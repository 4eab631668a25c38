"""Exact truncated arithmetic in a numerical semigroup ring.

The ring R is spanned by the monomials x^e with e in the semigroup G,
inside a discrete valuation ring V with uniformizer x.  Elements are
sparse coefficient vectors over exponents in G; an optional truncation T
means coefficients at exponents >= T are unknown.  Every nonzero
principal ideal has a canonical generator x^b * (1 + sum u_i x^i) with
the tail supported on positions i in [1, f]; coefficients above b + f
never change the ideal, because elements of valuation > b + f lie in
x^b times the conductor, which the ideal absorbs.

That generator is not unique: an R-unit 1 - c x^i with i in G clears the
tail at a position i in G without changing the ideal.  Clearing every such
position in ascending order (``normal_tail``) leaves the tail on the
gaps i with b + i in G, and that normal form is unique: two ideals are
equal exactly when their normal forms are.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import (
    MixedField,
    MixedSemigroup,
    NotAUnit,
    NotInSemigroup,
    NotParameter,
    ParseError,
    TruncationTooSmall,
    ZeroElement,
)
from .fields import RATIONALS


class RingElement:
    """A finitely supported element of R, optionally truncated at x^T."""

    __slots__ = ("semigroup", "field", "coeffs", "truncation")

    def __init__(self, semigroup, coeffs, truncation=None, field=RATIONALS):
        if truncation is not None and truncation < 0:
            raise ValueError(f"truncation must be >= 0, got {truncation}")
        clean = {}
        for e in sorted(coeffs):
            v = coeffs[e]
            if v == field.zero:
                continue
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponent {e!r} is not a non-negative integer")
            if not semigroup.contains(e):
                raise NotInSemigroup(
                    f"exponent {e} is not in the semigroup {semigroup.generators}"
                )
            if truncation is None or e < truncation:
                clean[e] = v
        self.semigroup = semigroup
        self.field = field
        self.coeffs = clean
        self.truncation = truncation

    @classmethod
    def monomial(cls, semigroup, e, field=RATIONALS, truncation=None):
        return cls(semigroup, {e: field.one}, truncation, field)

    @classmethod
    def zero(cls, semigroup, field=RATIONALS, truncation=None):
        return cls(semigroup, {}, truncation, field)

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> int:
        if not self.coeffs:
            raise ZeroElement("valuation of the zero element is undefined")
        return min(self.coeffs)

    def support(self):
        return tuple(sorted(self.coeffs))

    def known_to(self, bound: int) -> bool:
        """True when coefficients at all exponents < bound are determined."""
        return self.truncation is None or self.truncation >= bound

    def truncate(self, T: int) -> "RingElement":
        cur = self.truncation
        new_T = T if cur is None else min(cur, T)
        return RingElement(self.semigroup, self.coeffs, new_T, self.field)

    def _check_compatible(self, other):
        if self.semigroup != other.semigroup:
            raise MixedSemigroup(
                f"elements over {self.semigroup.generators} and "
                f"{other.semigroup.generators}"
            )
        if self.field != other.field:
            raise MixedField(
                f"elements over {self.field.label} and {other.field.label}"
            )

    def _combined_truncation(self, other):
        a, b = self.truncation, other.truncation
        if a is None:
            return b
        if b is None:
            return a
        return min(a, b)

    def __add__(self, other):
        self._check_compatible(other)
        fld = self.field
        out = dict(self.coeffs)
        for e, v in other.coeffs.items():
            out[e] = fld.add(out.get(e, fld.zero), v)
        return RingElement(self.semigroup, out, self._combined_truncation(other), fld)

    def __sub__(self, other):
        self._check_compatible(other)
        fld = self.field
        out = dict(self.coeffs)
        for e, v in other.coeffs.items():
            out[e] = fld.sub(out.get(e, fld.zero), v)
        return RingElement(self.semigroup, out, self._combined_truncation(other), fld)

    def __mul__(self, other):
        self._check_compatible(other)
        fld = self.field
        T = self._combined_truncation(other)
        out = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                e = e1 + e2
                if T is not None and e >= T:
                    continue
                out[e] = fld.add(out.get(e, fld.zero), fld.mul(v1, v2))
        return RingElement(self.semigroup, out, T, fld)

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.semigroup == other.semigroup
            and self.field == other.field
            and self.truncation == other.truncation
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(
            (self.semigroup, self.field, self.truncation, tuple(sorted(self.coeffs.items())))
        )

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        fld = self.field
        for e in sorted(self.coeffs):
            v = self.coeffs[e]
            text = fld.to_str(v)
            neg = text.startswith("-")
            if neg:
                text = text[1:]
            if text == "1":
                term = "x^0" if e == 0 else f"x^{e}"
            elif e == 0:
                term = text
            else:
                term = f"{text}*x^{e}"
            if not parts:
                parts.append(("-" if neg else "") + term)
            else:
                parts.append(("- " if neg else "+ ") + term)
        return " ".join(parts)

    def __repr__(self):
        return f"<{self} over {self.semigroup.generators}>"


_TERM_RE = re.compile(
    r"^(?P<sign>[+-]?)(?:(?P<coef>\d+(?:/\d+)?)\*?)?(?:x(?:\^(?P<exp>\d+))?)?$"
)


def parse_element(text, semigroup, field=RATIONALS, truncation=None):
    """Parse expressions like ``x^40 + x^44`` or ``3/2*x^5 - x^8``.

    Exponents outside the semigroup are rejected.
    """
    compact = text.replace(" ", "")
    if not compact:
        raise ParseError("empty element expression")
    coeffs = {}
    pieces = re.split(r"(?=[+-])", compact)
    for piece in pieces:
        if not piece:
            continue
        m = _TERM_RE.match(piece)
        if not m or (m.group("coef") is None and "x" not in piece):
            raise ParseError(f"cannot parse term {piece!r}")
        sign = -1 if m.group("sign") == "-" else 1
        coef_text = m.group("coef")
        coef = field.one if coef_text is None else field.parse(coef_text)
        if sign < 0:
            coef = field.neg(coef)
        if "x" in piece:
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        if not semigroup.contains(exp):
            raise ParseError(
                f"exponent {exp} is not in the semigroup {semigroup.generators}"
            )
        prev = coeffs.get(exp, field.zero)
        coeffs[exp] = field.add(prev, coef)
    return RingElement(semigroup, coeffs, truncation, field)


def invert_unit_mod(coeffs, T, field=RATIONALS):
    """Inverse of a unit 1 + c_1 x + c_2 x^2 + ... modulo x^T.

    The input is a sparse exponent-to-coefficient map with constant term 1
    (support need not lie in any semigroup: units live in V).  Uses the
    standard recurrence for the formal inverse; exact.
    """
    if coeffs.get(0) != field.one:
        raise NotAUnit("series must have constant term 1")
    tail = {e: v for e, v in coeffs.items() if 0 < e < T}
    inv = {0: field.one}
    if not tail:
        return inv
    for n in range(1, T):
        acc = field.zero
        for k, v in tail.items():
            if k <= n:
                prev = inv.get(n - k)
                if prev is not None:
                    acc = field.add(acc, field.mul(v, prev))
        if acc != field.zero:
            inv[n] = field.neg(acc)
    return inv


def integer_scale(field, values):
    """The modulus p of the field's integer arithmetic (0 over Q) and the
    scale D that makes a tail with these values integral: 1 over F_p, the
    lcm of their denominators over Q."""
    p = getattr(field, "p", 0)
    return p, 1 if p else lcm(*(v.denominator for v in values))


def integer_tail(tail, p, D):
    """A tail {i: u_i} as Python ints: u_i itself over F_p (p prime, D = 1),
    and t_i = D^i u_i over Q (p = 0, D a multiple of every denominator),
    the tail of u(Dx)."""
    if p:
        return dict(tail)
    return {i: v.numerator * (D // v.denominator) * D ** (i - 1) for i, v in tail.items()}


def normal_tail(S, tail, p):
    """The normal tail of x^b(1 + sum t_i x^i), t an integer tail, as
    ascending ((i, t_i), ...) pairs.

    Sweeps i = 1..f ascending: wherever i is in G and t_i != 0, it
    multiplies the unit by the R-unit 1 - t_i x^i, which clears i and
    touches only larger positions, and drops positions above f.  The tail
    ends up on the gaps i with b + i in G.  The sweep runs mod p over F_p;
    over Q (p = 0) t is the tail of u(Dx) (``integer_tail``), and sweeping
    u(Dx) is sweeping u with x -> Dx, so it stays in Z.  Two tails give
    the same ideal exactly when their normal tails agree: where an R-unit
    quotient of the two first differs from 1, at a position in G, so would
    the normal tails, which vanish there.
    """
    f = S.frobenius
    t = dict(tail)
    for i in range(1, f + 1):
        v = t.get(i)
        if not v or not S.contains(i):
            continue
        for j, w in list(t.items()):
            k = i + j
            if k <= f:
                nv = t.get(k, 0) - v * w
                if p:
                    nv %= p
                if nv:
                    t[k] = nv
                else:
                    t.pop(k, None)
        del t[i]
    return tuple(sorted(t.items()))


class CanonicalIdeal:
    """A parameter ideal in canonical form x^b * (1 + sum u_i x^i) R.

    b is the valuation of the generator (b in G, b >= 1) and the tail
    coefficients u_i sit at positions i in [1, f] with b + i in G.  The
    generator written this way is an exact polynomial.  Many generators
    give the same ideal; ``==`` and ``hash`` compare the ideals, through
    ``normal_form``.
    """

    __slots__ = (
        "semigroup",
        "field",
        "b",
        "unit_coeffs",
        "_uinv_cap",
        "_uinv",
        "_engine_cache",
        "_normal",
    )

    def __init__(self, semigroup, b, unit_coeffs=None, field=RATIONALS):
        if b == 0:
            raise NotParameter("generator of valuation 0 is a unit")
        if b < 0 or not semigroup.contains(b):
            raise NotInSemigroup(
                f"valuation {b} is not in the semigroup {semigroup.generators}"
            )
        f = semigroup.frobenius
        clean = {}
        for i in sorted(unit_coeffs or {}):
            v = unit_coeffs[i]
            if v == field.zero:
                continue
            if not (1 <= i <= f):
                raise ValueError(f"tail position {i} outside [1, {f}]")
            if not semigroup.contains(b + i):
                raise NotInSemigroup(
                    f"tail position {i} puts exponent {b + i} outside the semigroup"
                )
            clean[i] = v
        self.semigroup = semigroup
        self.field = field
        self.b = b
        self.unit_coeffs = clean
        self._uinv_cap = -1            # unit_inverse memo: exact below x^cap
        self._uinv = None
        self._engine_cache = {}        # colon-engine memo, see colon._context
        self._normal = None            # normal_form memo

    @property
    def truncation(self) -> int:
        """Default working truncation b + f + 1 for all ideal computations."""
        return self.b + max(self.semigroup.frobenius, 0) + 1

    def generator(self) -> RingElement:
        coeffs = {self.b: self.field.one}
        for i, v in self.unit_coeffs.items():
            coeffs[self.b + i] = v
        return RingElement(self.semigroup, coeffs, None, self.field)

    def unit_inverse(self, upto: int):
        """Coefficients of (1 + sum u_i x^i)^(-1) modulo x^upto, cached."""
        if self._uinv_cap < upto:
            unit = {0: self.field.one}
            unit.update(self.unit_coeffs)
            self._uinv = invert_unit_mod(unit, upto, self.field)
            self._uinv_cap = upto
        if upto == self._uinv_cap:
            return self._uinv
        return {e: v for e, v in self._uinv.items() if e < upto}

    def contains(self, w: RingElement) -> bool:
        """Exact membership test w in qR.

        Divides by the generator: w is in qR iff w * u^(-1) * x^(-b) has
        no coefficient at a gap exponent below f + 1 (positions beyond f
        land in the conductor, hence in R automatically).
        """
        if w.semigroup != self.semigroup:
            raise MixedSemigroup("element and ideal over different semigroups")
        if w.field != self.field:
            raise MixedField("element and ideal over different fields")
        if w.is_zero():
            return True
        needed = self.truncation
        if not w.known_to(needed):
            raise TruncationTooSmall(
                f"membership needs coefficients up to x^{needed - 1}, "
                f"element truncated at x^{w.truncation}"
            )
        b = self.b
        if w.valuation() < b:
            return False
        fld = self.field
        f = self.semigroup.frobenius
        uinv = self.unit_inverse(f + 1) if f >= 0 else {0: fld.one}
        coeffs = {e: v for e, v in w.coeffs.items() if e < needed}
        for i in self.semigroup.gaps:
            target = b + i
            acc = fld.zero
            for e, v in coeffs.items():
                k = target - e
                if k >= 0:
                    u = uinv.get(k)
                    if u is not None:
                        acc = fld.add(acc, fld.mul(v, u))
            if acc != fld.zero:
                return False
        return True

    def closure_contains(self, r: RingElement) -> bool:
        """Integral closure of qR is spanned by x^e with e in G, e >= b."""
        if r.is_zero():
            return True
        return r.valuation() >= self.b

    def normal_form(self) -> tuple:
        """The tail of the ideal's normal generator, as ascending
        ((i, u_i), ...) pairs in field scalars, cached (see ``normal_tail``)."""
        if self._normal is None:
            p, D = integer_scale(self.field, self.unit_coeffs.values())
            tail = normal_tail(self.semigroup, integer_tail(self.unit_coeffs, p, D), p)
            self._normal = tail if p else tuple((i, Fraction(t, D**i)) for i, t in tail)
        return self._normal

    def __eq__(self, other):
        """Ideal equality: same semigroup, field, valuation and normal form."""
        return (
            isinstance(other, CanonicalIdeal)
            and self.semigroup == other.semigroup
            and self.field == other.field
            and self.b == other.b
            and self.normal_form() == other.normal_form()
        )

    def __hash__(self):
        return hash((self.semigroup, self.field, self.b, self.normal_form()))

    def __str__(self):
        return str(self.generator())

    def __repr__(self):
        return f"<ideal ({self}) over {self.semigroup.generators}>"


def canonicalize(r: RingElement) -> CanonicalIdeal:
    """Canonical form of the principal ideal rR.

    Scales the leading coefficient to 1 and truncates at x^(b+f+1): every
    unit factor (1 - c x^j) that would clear a tail coefficient at j > f
    only touches exponents above b + f, so dropping those coefficients
    keeps the ideal.  The result is one generator of the ideal, not a
    unique one: tails at positions in G can still differ between
    generators of the same ideal (see ``CanonicalIdeal.normal_form``).
    Idempotent on canonical generators.
    """
    if r.is_zero():
        raise ZeroElement("cannot canonicalize the zero element")
    b = r.valuation()
    if b == 0:
        raise NotParameter("element of valuation 0 generates the unit ideal")
    S = r.semigroup
    needed = b + max(S.frobenius, 0) + 1
    if not r.known_to(needed):
        raise TruncationTooSmall(
            f"canonical form needs coefficients up to x^{needed - 1}, "
            f"element truncated at x^{r.truncation}"
        )
    fld = r.field
    lead_inv = fld.inv(r.coeffs[b])
    tail = {
        e - b: fld.mul(lead_inv, v)
        for e, v in r.coeffs.items()
        if b < e < needed
    }
    return CanonicalIdeal(S, b, tail, fld)
