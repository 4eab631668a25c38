"""Elements and principal ideals of a numerical semigroup ring.

The ring R is spanned by the monomials x^e with e in the semigroup G,
inside a discrete valuation ring V with uniformizer x.  Elements are
exact polynomials: sparse coefficient vectors over exponents in G, each
coefficient reduced through the field descriptor (``field.of``).  They
are parsed, canonicalized, compared and printed; the library never
multiplies two of them.
Every nonzero principal ideal has a canonical generator
x^b * (1 + sum u_i x^i) with the tail supported on positions i in
[1, f].  Each ideal Q = x^b u R has one working truncation, b + f + 1:
elements of valuation > b + f lie in x^b times the conductor, which Q
absorbs, so no computation on Q reads a coefficient at or above it.

That generator is not unique: an R-unit 1 - c x^i with i in G clears the
tail at a position i in G without changing the ideal.  Clearing every such
position in ascending order (``normal_tail``) leaves the tail on the
gaps i with b + i in G, and that normal form is unique: two ideals are
equal exactly when their normal forms are.

Each ideal Q = x^b u R has one integer model (``integer_model``): the
integer unit t = {0: 1, i: t_i}, u itself mod p = field.p over F_p and,
over Q (p = 0), u(Dx) with t_i = D^i u_i, D the lcm of the tail
denominators, so that no Fraction is needed.  The normal form and
``unit_inverse`` read it too.
One ascending sweep divides by the unit (``_quotient``): ``unit_inverse``
runs it on 1, and membership on r, which is in Q exactly when
h = r * u^(-1), read up to b + f, vanishes below b and at every b + k
with k a gap (r * x^(-b) u^(-1) must lie in R).
The colon engine of ``gotonum.colon`` solves its colons in the same
h = r * u^(-1), one equation per bit of the semigroup's ``gap_bits``:
r = h u is in R iff (h u)_k = 0 at every gap k; v(r) = v(h) as u(0) = 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import (
    MixedField,
    MixedSemigroup,
    NotInSemigroup,
    NotParameter,
    ParseError,
    ZeroElement,
)
from .fields import COEFFICIENT, RATIONALS, quote, quote_int, quote_ints, read_number


class RingElement:
    """A finitely supported element of R: an exact polynomial."""

    __slots__ = ("semigroup", "field", "coeffs")

    def __init__(self, semigroup, coeffs, field=RATIONALS):
        clean = {}
        for e in sorted(coeffs):
            v = field.of(coeffs[e])
            if v == field.zero:
                continue
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponent {e!r} is not a non-negative integer")
            if not semigroup.contains(e):
                raise NotInSemigroup(
                    f"exponent {quote_int(e)} is not in the semigroup "
                    f"{quote_ints(semigroup.generators)}"
                )
            clean[e] = v
        self.semigroup = semigroup
        self.field = field
        self.coeffs = clean

    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> int:
        if not self.coeffs:
            raise ZeroElement("valuation of the zero element is undefined")
        return min(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.semigroup == other.semigroup
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.semigroup, self.field, tuple(sorted(self.coeffs.items()))))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            text = str(self.coeffs[e])
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
    rf"(?P<sign>[+-]?)(?:(?P<coef>{COEFFICIENT})\*?)?(?:x(?:\^(?P<exp>[0-9]+))?)?"
)


def parse_element(text, semigroup, field=RATIONALS):
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
        m = _TERM_RE.fullmatch(piece)
        if not m or (m.group("coef") is None and "x" not in piece):
            raise ParseError(f"cannot parse term {quote(piece)}")
        sign = -1 if m.group("sign") == "-" else 1
        coef_text = m.group("coef")
        coef = field.one if coef_text is None else field.parse(coef_text)
        if sign < 0:
            coef = field.neg(coef)
        exp = read_number(m.group("exp") or "1", "exponent") if "x" in piece else 0
        if not semigroup.contains(exp):
            raise ParseError(
                f"exponent {quote_int(exp)} is not in the semigroup "
                f"{quote_ints(semigroup.generators)}"
            )
        prev = coeffs.get(exp, field.zero)
        coeffs[exp] = field.add(prev, coef)
    return RingElement(semigroup, coeffs, field)


def _quotient(r, t, p, hi):
    """The nonzero coefficients h_k, k <= hi, of h = r / t, as ascending
    (k, h_k) pairs, for an integer row r and the integer unit
    t = {0: 1, i: t_i} of ``integer_model``: one sweep of the recurrence
    h_k = r_k - sum_(i >= 1) t_i h_(k-i), reduced mod p over F_p (p = 0
    over Q, where it stays in Z).  A caller may stop at any k."""
    h = {}
    for k in range(min(r, default=hi + 1), hi + 1):
        acc = r.get(k, 0) - sum(v * h[k - i] for i, v in t.items() if i and k - i in h)
        if p:
            acc %= p
        if acc:
            h[k] = acc
            yield k, acc


def integer_scale(field, values):
    """The scale D that makes a tail with these values integral: 1 over
    F_p, the lcm of their denominators over Q."""
    return 1 if field.p else lcm(*(v.denominator for v in values))


def integer_tail(tail, p, D):
    """A tail {i: u_i} as Python ints: u_i itself over F_p (p prime, D = 1),
    and t_i = D^i u_i over Q (p = 0, D a multiple of every denominator),
    the tail of u(Dx)."""
    if p:
        return dict(tail)
    return {i: v.numerator * (D // v.denominator) * D ** (i - 1) for i, v in tail.items()}


def integer_row(vec, p, D=1):
    """A vector over F_p (p prime) or Q (p = 0) as an integer row of the
    same span: reduced mod p, or with its denominators cleared and
    coordinate c scaled by D^c."""
    if p:
        return {c: r for c, v in vec.items() if (r := v % p)}
    N = lcm(*(v.denominator for v in vec.values()))
    return {c: v.numerator * (N // v.denominator) * D**c for c, v in vec.items() if v}


def _add_shifted(unit, c, i, terms, hi, p):
    """unit += c x^i (sum of terms w x^j), in place, up to position hi."""
    for j, w in terms:
        k = i + j
        if k <= hi:
            nv = unit.get(k, 0) + c * w
            if p:
                nv %= p
            if nv:
                unit[k] = nv
            else:
                unit.pop(k, None)


def clear_step(W, P, e, s, clear, keep, f, p):
    """One level of the normal-tail sweep (``normal_tail``), as a new pair
    (W, P); the inputs are left as they were.

    W is the partly normal unit and P the product of the R-units that
    have cleared it, both integer units {0: 1, i: t_i} truncated at f.
    The level adds the unit's term s x^e, carried through those
    clearings as s x^e P, then clears W at each position i of ``clear``
    (ascending, in G, none below e) where it is nonzero: the R-unit
    1 - W_i x^i zeroes i and writes only above it.  The same unit
    multiplies P, up to ``keep``, the last position a later level reads.
    Mod p over F_p, in Z over Q (p = 0).
    """
    W0, P0 = W, P
    if s:
        W = dict(W)
        _add_shifted(W, s, e, P.items(), f, p)
    for i in clear:
        v = W.get(i)
        if v:
            W = dict(W) if W is W0 else W
            _add_shifted(W, -v, i, list(W.items()), f, p)
            if i <= keep:
                P = dict(P) if P is P0 else P
                _add_shifted(P, -v, i, list(P.items()), keep, p)
    return W, P


def sweep_levels(S, positions):
    """The levels (e, clear, keep) of the normal-tail sweep over ascending
    tail positions e_1 < ... < e_n (``clear_step``): level d clears the
    positions of G in [e_d, e_(d+1)), up to f at the last, and a later
    level reads P up to f - e_(d+1).  Built one level at a time."""
    f = S.frobenius
    for e, stop in zip(positions, [*positions[1:], f + 1]):
        yield e, S.members(e, stop - 1), f - stop


def normal_tail(S, tail, p):
    """The normal tail of x^b(1 + sum t_i x^i), t an integer tail, as
    ascending ((i, t_i), ...) pairs.

    Sweeping i ascending, wherever i is in G and the unit's coefficient
    t_i is nonzero, the unit is multiplied by the R-unit 1 - t_i x^i,
    which clears i and touches only larger positions; positions above f
    are dropped.  The tail ends up on the gaps i with b + i in G.  The
    coefficient cleared at i is that of u P_i, P_i the product of the
    clearings below i, and reads u only up to i, so the sweep can take the
    tail's terms one at a time, ascending: ``clear_step`` adds the term at
    e_d and clears G up to the next position, and the result is u times
    every clearing.  It runs mod p over F_p; over Q (p = 0) t is the tail
    of u(Dx) (``integer_tail``), and sweeping u(Dx) is sweeping u with
    x -> Dx, so it stays in Z.  Two tails give the same ideal exactly when
    their normal tails agree: where an R-unit quotient of the two first
    differs from 1, at a position in G, so would the normal tails, which
    vanish there.
    """
    f = S.frobenius
    W = P = {0: 1}
    for e, clear, keep in sweep_levels(S, sorted(tail)):
        W, P = clear_step(W, P, e, tail[e], clear, keep, f, p)
    return tuple(sorted(W.items()))[1:]


def integer_model(Q):
    """The integer model (t, D) of Q = x^b u R, in O(|tail|): the integer
    unit t = {0: 1, i: t_i}, u mod p = Q.field.p over F_p (D = 1), and
    over Q u(Dx), t_i = D^i u_i (``integer_tail``); with coordinate k
    scaled by D^k, h u reads h' t, in Z.  The gaps are the semigroup's
    (``gap_bits``), and b + f, the last exponent with a condition, is
    Q.truncation - 1."""
    D = integer_scale(Q.field, Q.unit_coeffs.values())
    return {0: 1, **integer_tail(Q.unit_coeffs, Q.field.p, D)}, D


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
        "_normal",
    )

    def __init__(self, semigroup, b, unit_coeffs=None, field=RATIONALS):
        if b == 0:
            raise NotParameter("generator of valuation 0 is a unit")
        if b < 0 or not semigroup.contains(b):
            raise NotInSemigroup(
                f"valuation {quote_int(b)} is not in the semigroup "
                f"{quote_ints(semigroup.generators)}"
            )
        f = semigroup.frobenius
        clean = {}
        for i in sorted(unit_coeffs or {}):
            v = field.of(unit_coeffs[i])
            if v == field.zero:
                continue
            if not (1 <= i <= f):
                raise ValueError(f"tail position {quote_int(i)} outside [1, {quote_int(f)}]")
            if not semigroup.contains(b + i):
                raise NotInSemigroup(
                    f"tail position {quote_int(i)} puts exponent {quote_int(b + i)} "
                    "outside the semigroup"
                )
            clean[i] = v
        self.semigroup = semigroup
        self.field = field
        self.b = b
        self.unit_coeffs = clean
        self._normal = None            # normal_form memo

    @property
    def truncation(self) -> int:
        """The working truncation b + f + 1: every element of valuation at
        least b + f + 1 lies in the ideal, so no computation on it reads a
        coefficient from there on."""
        return self.b + max(self.semigroup.frobenius, 0) + 1

    def generator(self) -> RingElement:
        coeffs = {self.b: self.field.one}
        for i, v in self.unit_coeffs.items():
            coeffs[self.b + i] = v
        return RingElement(self.semigroup, coeffs, self.field)

    def unit_inverse(self, upto: int):
        """Coefficients of (1 + sum u_i x^i)^(-1) modulo x^upto, as a sparse
        {k: w_k} map: 1 / t on the model (``_quotient``), w_k itself over
        F_p and w_k / D^k over Q; w_0 = 1 even when upto is 0."""
        t, D = integer_model(self)
        w = dict(_quotient({0: 1}, t, self.field.p, max(upto - 1, 0)))
        return w if self.field.p else {k: Fraction(v, D**k) for k, v in w.items()}

    def contains(self, w: RingElement) -> bool:
        """Exact membership test w in qR.

        w is in qR iff h = w * u^(-1) lies in x^b R, i.e. iff h_k = 0 for
        every k <= b + f with k < b or k - b a gap.  The ascending sweep of
        ``_quotient`` on the model stops at the first h_k that breaks it.
        Exponents above b + f lie in x^b times the conductor, hence in qR,
        and are never read.
        """
        if w.semigroup != self.semigroup:
            raise MixedSemigroup("element and ideal over different semigroups")
        if w.field != self.field:
            raise MixedField("element and ideal over different fields")
        t, D = integer_model(self)
        hi, p = self.truncation - 1, self.field.p
        coeffs = integer_row({k: v for k, v in w.coeffs.items() if k <= hi}, p, D)
        S, b = self.semigroup, self.b
        return all(k >= b and S.contains(k - b) for k, _ in _quotient(coeffs, t, p, hi))

    def closure_contains(self, r: RingElement) -> bool:
        """Integral closure of qR is spanned by x^e with e in G, e >= b."""
        if r.is_zero():
            return True
        return r.valuation() >= self.b

    def normal_form(self) -> tuple:
        """The tail of the ideal's normal generator, as ascending
        ((i, u_i), ...) pairs in field scalars, cached (see ``normal_tail``)."""
        if self._normal is None:
            t, D = integer_model(self)
            tail = normal_tail(self.semigroup, {i: v for i, v in t.items() if i}, self.field.p)
            self._normal = tail if self.field.p else tuple((i, Fraction(t, D**i)) for i, t in tail)
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
    S, fld = r.semigroup, r.field
    lead_inv = fld.inv(r.coeffs[b])
    tail = {
        e - b: fld.mul(lead_inv, v)
        for e, v in r.coeffs.items()
        if 0 < e - b <= S.frobenius
    }
    return CanonicalIdeal(S, b, tail, fld)
