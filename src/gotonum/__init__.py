"""Exact computation of Goto numbers of parameter ideals.

The Goto number of a parameter ideal Q in a one-dimensional local ring
is the largest g such that the colon ideal Q : m^g is still integral
over Q.  This package computes it exactly for numerical semigroup rings
(and for pure-power monomial ideals in regular local rings), together
with every associated bound, closed form, duality value, and stable
value, over the rationals or a prime field.
"""

from .bounds import (
    bound_display_max,
    bound_first_generator,
    bound_global,
    bound_monomial_generator,
    build_report,
    closed_form_two_generated,
    rho,
    stable_goto,
)
from .colon import (
    TruncatedSubspace,
    colon_by_monomials,
    colon_power,
    conductor_dual_goto,
    contained_in_power_sum,
    dual_goto,
    goto_monomial,
    goto_number,
    ideal_image,
    index_of_nilpotency,
    is_integrally_closed,
)
from .explorer import (
    SearchConfig,
    SearchRecord,
    SearchResult,
    monomial_table,
    search,
    search_records,
)
from .fields import PrimeField, RATIONALS, Rationals, field_from_label
from .golden import run_golden_checks
from .regular import (
    MonomialIdeal,
    pure_power_goto,
    pure_power_report,
)
from .ring import (
    CanonicalIdeal,
    RingElement,
    canonicalize,
    parse_element,
)
from .semigroup import NumericalSemigroup, frobenius_two_generated

__all__ = [
    "CanonicalIdeal",
    "MonomialIdeal",
    "NumericalSemigroup",
    "PrimeField",
    "RATIONALS",
    "Rationals",
    "RingElement",
    "SearchConfig",
    "SearchRecord",
    "SearchResult",
    "TruncatedSubspace",
    "bound_display_max",
    "bound_first_generator",
    "bound_global",
    "bound_monomial_generator",
    "build_report",
    "canonicalize",
    "closed_form_two_generated",
    "colon_by_monomials",
    "colon_power",
    "conductor_dual_goto",
    "contained_in_power_sum",
    "dual_goto",
    "field_from_label",
    "frobenius_two_generated",
    "goto_monomial",
    "goto_number",
    "ideal_image",
    "index_of_nilpotency",
    "is_integrally_closed",
    "monomial_table",
    "parse_element",
    "pure_power_goto",
    "pure_power_report",
    "rho",
    "run_golden_checks",
    "search",
    "search_records",
    "stable_goto",
]
