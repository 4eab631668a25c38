"""Exception types raised across the library.

Every message names the violated precondition so the CLI can surface it
verbatim.
"""


class GotoNumberError(Exception):
    """Base class for all library errors."""


class EmptyError(GotoNumberError):
    """Generator list is empty."""


class GcdError(GotoNumberError):
    """Generators do not have gcd 1."""


class CoprimalityError(GotoNumberError):
    """Two-generator formula applied to a non-coprime pair."""


class NotInSemigroup(GotoNumberError):
    """Exponent is not an element of the semigroup."""


class MixedSemigroup(GotoNumberError):
    """Operands live over different semigroups."""


class MixedField(GotoNumberError):
    """Operands live over different coefficient fields."""


class ZeroElement(GotoNumberError):
    """Operation undefined for the zero element."""


class NotParameter(GotoNumberError):
    """Ideal generator is a unit, so the ideal is not a parameter ideal."""


class TruncationTooSmall(GotoNumberError):
    """A truncated subspace stops below the working truncation b + f + 1 of
    the ideal it is compared with (``contained_in_power_sum``)."""


class NotGorenstein(GotoNumberError):
    """Duality computation requires a symmetric semigroup."""


class ClosedIdeal(GotoNumberError):
    """Duality computation requires the ideal to be strictly smaller than
    its integral closure."""


class NotInConductor(GotoNumberError):
    """Conductor duality requires the generator valuation to exceed the
    Frobenius number."""


class NotAReduction(GotoNumberError):
    """Index of nilpotency requires generator valuation equal to the
    multiplicity."""


class NotTwoGenerated(GotoNumberError):
    """Closed form only applies to two-generated semigroups."""


class InputTooLarge(GotoNumberError):
    """Input past a size limit, refused before it is built; names the limit."""


class SearchSpaceTooLarge(InputTooLarge):
    """Requested enumeration exceeds the search cap (``explorer.SEARCH_CAP``)."""


class ParseError(GotoNumberError):
    """CLI input outside the grammar of ``fields.read_number`` or its digit limit."""


class BoundViolation(GotoNumberError):
    """Internal bug signal: a computation escaped a proven bound."""


class CrossCheckMismatch(GotoNumberError):
    """Internal bug signal: two routes to the same value disagree."""
