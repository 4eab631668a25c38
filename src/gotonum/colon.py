"""Colon computations and Goto numbers via exact sparse linear algebra.

A parameter ideal Q = qR, q = x^b u with u = 1 + tail, is handled modulo
x^T, T = b + f + 1: elements of valuation above b + f lie in x^b times the
conductor, which qR absorbs.  A colon Q : (x^s : s in M) is solved in
h = r u^(-1), on three facts:

- r x^s is in qR iff h x^(s - b) is in R, which is spanned by monomials.
  So h lives on the live set E_M = {c <= b + f : c + s - b in G or
  c + s > b + f for every s in M}: x^b R : (x^s) taken in k[[x]].
- r = h u is in R iff (h u)_k = 0 at every gap k: the gap equations, one
  row per gap with entry u_(k - c) in column c, at most |tail| + 1 each.
- v(r) = v(h), because u(0) = 1.

With the largest column taken as pivot, a kernel vector led by c exists
iff c gets no pivot (c is then a combination of larger columns), so the
colon's minimal valuation is its smallest free live column.  The rows are
Python ints on the integer unit t of ``ring.integer_model``: mod field.p
over F_p, and over Q u(Dx); scaling row k by D^k and column c by D^(-c)
gives the entries t_(k - c) and moves no pivot, and a kernel vector h' in
the scaled coordinates maps to r'_k = D^k r_k = (h' t)_k.  Each public
function builds the model at most once and hands t to the helpers.

The Goto number is the last g whose colon Q : m^g has no element of
valuation below b.  Escape orders give it for monomials and for every Q
the conductor lemma decides; every other Q is scanned from g(x^b) + 1,
one elimination per g, M the exponents of m-adic order g.  Q is closed iff
Q : (closure) holds a unit, i.e. column 0 is free.  The colon subspaces
map a kernel basis by r = h u and reduce it (``TruncatedSubspace.span``).

Duality asks for the level of r, the largest i with r in m^i + Q.  Q's
shifts x^e u, e in b + G, are echeloned with the pivot at the column of
least m-adic order, then of least exponent, so a row led at order >= i is
zero on every column of order < i.  Level lemma: the level is the order at
which r's residual leads.  The residual is in r + Q and in m^o, o its
leading order; were r in m^(o + 1) + Q, the residual less an element of
m^(o + 1) would be in Q, led by a column that leads no echelon row.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import (
    BoundViolation,
    ClosedIdeal,
    MixedField,
    MixedSemigroup,
    NotAReduction,
    NotGorenstein,
    NotInConductor,
    NotInSemigroup,
    TruncationTooSmall,
)
from .fields import quote_int, quote_ints
from .ring import CanonicalIdeal, integer_model, integer_row

# -- exact integer row echelon ---------------------------------------------


def _eliminate(row, j, prow, p):
    """The row with column j cleared by the pivot row prow, as an integer
    row.  Over F_p (p prime) prow has entry 1 at j and the update runs
    mod p.  Over Q (p = 0) the row is first scaled by prow[j] over its gcd
    with row[j] (a cross-multiplication), so the result stays in Z.
    Consumes the row."""
    factor = row.pop(j)
    if not p:
        common = gcd(prow[j], factor)
        scale = prow[j] // common
        factor //= common
        if scale != 1:
            row = {c: scale * v for c, v in row.items()}
    for c, v in prow.items():
        if c == j:
            continue
        nv = row.get(c, 0) - factor * v
        if p:
            nv %= p
        if nv:
            row[c] = nv
        else:
            row.pop(c, None)
    return row


def _reduce(row, pivots, p):
    """Residual of an integer row against stored pivot rows, the largest
    column first; empty exactly when the row lies in their span.

    A residual is scaled to leading entry 1 over F_p and divided by the
    gcd of its entries over Q.  Consumes the row.
    """
    while row:
        j = max(row)
        prow = pivots.get(j)
        if prow is None:
            break
        row = _eliminate(row, j, prow, p)
    if row and p:
        inv = pow(row[max(row)], -1, p)
        if inv != 1:
            row = {c: v * inv % p for c, v in row.items()}
    elif row:
        content = gcd(*row.values())
        if content != 1:
            row = {c: v // content for c, v in row.items()}
    return row


def _pivot_columns(rows, p):
    """Pivot rows of an integer system keyed by their pivot column, the
    largest column taken as pivot.

    Each row is reduced against the pivot rows stored so far and, if a
    residual is left, stored under its largest column.  The pivot set is
    the field's rank profile.  Consumes rows.
    """
    pivots = {}
    for row in rows:
        row = _reduce(row, pivots, p)
        if row:
            pivots[max(row)] = row
    return pivots


def _back_substitute(pivots, p):
    """Clear each pivot column from every other pivot row, in place.

    Every row holds its pivot q and columns below q.  Taking the pivots
    ascending, row q is already free of the smaller pivot columns when it
    clears column q from the larger rows, so it brings no pivot column
    back.  Afterwards row q holds q and free columns only; its leading
    entry is still 1 over F_p.
    """
    order = sorted(pivots)
    for k, q in enumerate(order):
        prow = pivots[q]
        for r in order[k + 1:]:
            if q in pivots[r]:
                pivots[r] = _eliminate(pivots[r], q, prow, p)
    return pivots


class TruncatedSubspace:
    """A subspace of R / x^T R in reduced echelon coordinates.

    Basis vectors are sparse maps exponent -> scalar with pivot exponents
    strictly ascending; the smallest pivot is the minimal valuation
    attained by the subspace.  The colons and ideal images of an ideal Q
    are built at its working truncation T = b + f + 1, where x^T R lies
    in Q; the subspace then stands for its preimage, V + x^T R.
    """

    __slots__ = ("semigroup", "field", "truncation", "basis")

    def __init__(self, semigroup, field, truncation, basis):
        self.semigroup = semigroup
        self.field = field
        self.truncation = truncation
        self.basis = basis

    @classmethod
    def span(cls, semigroup, field, truncation, vectors):
        """The span of sparse vectors over the field, in reduced echelon form.

        Each vector becomes an integer row, its denominators cleared over
        Q, with exponent c keyed -c, so that the echelon's largest key is
        the smallest exponent.  Each reduced row is divided by its lead.
        """
        p = field.p
        rows = [{-c: v for c, v in integer_row(vec, p).items()} for vec in vectors]
        pivots = _back_substitute(_pivot_columns(rows, p), p)
        basis = []
        for key in sorted(pivots, reverse=True):
            prow = pivots[key]
            lead = prow[key]
            basis.append({-c: v if p else Fraction(v, lead) for c, v in prow.items()})
        return cls(semigroup, field, truncation, basis)

    def min_valuation(self):
        """Smallest pivot exponent; None for the zero subspace."""
        if not self.basis:
            return None
        return min(self.basis[0])

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSubspace)
            and self.semigroup == other.semigroup
            and self.field == other.field
            and self.truncation == other.truncation
            and self.basis == other.basis
        )

    def __repr__(self):
        return (
            f"<subspace dim {self.dimension} of R/x^{self.truncation} "
            f"over {self.semigroup.generators}>"
        )


# -- the gap equations -------------------------------------------------------


def _ones(bits):
    """The positions of "1" in a bit string, ascending."""
    c = bits.find("1")
    while c >= 0:
        yield c
        c = bits.find("1", c + 1)


def _gap_echelon(Q, t, multipliers):
    """The live set E_M as a bit string indexed by column, and the pivot
    rows of the gap equations on it.  Column c is dead for s when c + s - b
    is negative or a gap: the gap bitset shifted by b - s, and [0, b - s)."""
    hi, p, gaps = Q.truncation - 1, Q.field.p, Q.semigroup.gap_bits()
    live = (1 << (hi + 1)) - 1
    for s in multipliers:
        d = s - Q.b
        live &= ~(gaps >> d if d >= 0 else gaps << -d | (1 << -d) - 1)
    bits = format(live, f"0{hi + 1}b")[::-1]
    rows = (
        {c: v for i, v in t.items() if (c := k - i) >= 0 and bits[c] == "1"}
        for k in _ones(format(gaps, "b")[::-1])
    )
    return bits, _pivot_columns((row for row in rows if row), p)


def _smallest_free(bits, pivots):
    """The smallest free live column: the colon's minimal valuation (None
    when the colon is zero)."""
    return next((c for c in _ones(bits) if c not in pivots), None)


def _colon_rows(Q, t, multipliers):
    """A basis of the colon mod x^T as integer rows r'_k = D^k r_k, one led
    by each free live column c: after the back substitution, the kernel
    vector h'_c = 1, h'_q = -prow_q[c] / prow_q[q] (cleared by the lcm of
    those leads over Q) times t, cut at b + f."""
    hi, p = Q.truncation - 1, Q.field.p
    bits, pivots = _gap_echelon(Q, t, multipliers)
    _back_substitute(pivots, p)
    above = {}
    for q, prow in pivots.items():
        for c in prow.keys() - {q}:
            above.setdefault(c, []).append(q)
    out = []
    for c in _ones(bits):
        if c in pivots:
            continue
        qs = above.get(c, ())
        L = 1 if p else lcm(*(pivots[q][q] for q in qs))
        h = {c: L}
        for q in qs:
            h[q] = -pivots[q][c] % p if p else -pivots[q][c] * (L // pivots[q][q])
        r = {}
        for e, v in h.items():
            for i, w in t.items():
                if e + i <= hi:
                    r[e + i] = r.get(e + i, 0) + v * w
        out.append({k: x for k, v in r.items() if (x := v % p if p else v)})
    return out


def _colon(Q, multipliers):
    """The subspace {r mod x^T : r * x^s in Q for every s in multipliers},
    at T = b + f + 1."""
    t, D = integer_model(Q)
    rows = _colon_rows(Q, t, multipliers)
    vectors = rows if Q.field.p else [{k: Fraction(v, D**k) for k, v in r.items()} for r in rows]
    return TruncatedSubspace.span(Q.semigroup, Q.field, Q.truncation, vectors)


def colon_power(Q: CanonicalIdeal, g: int) -> TruncatedSubspace:
    """The subspace {r mod x^T : r * m^g <= Q} at T = b + f + 1."""
    if g < 0:
        raise ValueError(f"need g >= 0, got {quote_int(g)}")
    return _colon(Q, Q.semigroup.power_generators(g, Q.truncation - 1))


def colon_by_monomials(Q: CanonicalIdeal, exponents) -> TruncatedSubspace:
    """The subspace {r mod x^T : r * x^e in Q for every e in the set} at
    T = b + f + 1."""
    S = Q.semigroup
    for e in exponents:
        if not S.contains(e):
            raise NotInSemigroup(
                f"multiplier exponent {quote_int(e)} is not in the semigroup "
                f"{quote_ints(S.generators)}"
            )
    return _colon(Q, sorted(e for e in set(exponents) if e < Q.truncation))


def _colon_min_valuation(Q, t, g):
    """Minimal valuation in Q : m^g (None when the colon is zero): the
    smallest free live column of its gap equations, with no back
    substitution and no kernel basis."""
    return _smallest_free(*_gap_echelon(Q, t, Q.semigroup.power_generators(g, Q.truncation - 1)))


def goto_number(Q: CanonicalIdeal) -> int:
    """Largest g such that Q : m^g stays inside the integral closure of Q.

    The floor is g(x^b) (``goto_monomial``): r in Q : m^g of valuation
    c < b puts x^c in x^b R : m^g (compare valuations in r x^e in qR), and
    the colons grow with g.  A monomial Q has exactly that value.

    The conductor lemma bounds g(Q) from above.  With w the escape order
    and f < c < b, u x^c lies in R (its exponents exceed f), and for every
    sum s of w(b - c) + 1 generators x^c x^s lies in x^b R, so
    u x^c x^s = q x^(c + s - b) lies in qR; so g(Q) <= w(b - c).  As
    w(alpha + a_1) > w(alpha) (``goto_monomial``), g(Q) <= U(b), the least
    w(alpha) over 1 <= alpha <= min(b - f - 1, a_1).  When U(b) equals the
    floor, as it does for every b > f + a_1, g(Q) is the floor.

    Every other Q is scanned over ascending g from the floor + 1, one
    elimination of the gap equations per g, up to the first colon whose
    smallest free live column lies below b.  The scan cannot legitimately
    pass floor(f/a_1) + 1, so reaching floor(f/a_1) + 2 raises an internal
    error.
    """
    S = Q.semigroup
    floor, settled = S.monomial_floor(Q.b)
    if settled or not Q.unit_coeffs:
        return floor
    cap = S.frobenius // S.multiplicity + 1
    t = integer_model(Q)[0]
    for g in range(floor + 1, cap + 2):
        mv = _colon_min_valuation(Q, t, g)
        if mv is not None and mv < Q.b:
            return g - 1
    raise BoundViolation(
        f"colon of ({Q}) still integral at g = {cap + 1}, beyond the proven bound"
    )


def goto_monomial(S, b: int) -> int:
    """Goto number of the monomial ideal x^b R, by pure combinatorics.

    x^c survives in x^b R : m^g exactly when c + s - b stays in G for
    every sum s of g generators with s <= b + f - c.  For fixed c the set
    of g where some sum escapes is the initial segment [0, w(b - c)] with
    w the escape order, so the Goto number is min over c in G, c < b, of
    the escape order of b - c.

    It is the least w(alpha) over alpha in [1, a_1] with b - alpha in G
    (``S.monomial_floor``, O(a_1)).  A witness x^e of w(delta) gives the
    witness x^(e + a_1) of w(delta + a_1), so w(delta + a_1) > w(delta).
    For c in G below b, the alpha in [1, a_1] congruent to b - c has
    b - alpha = c + k a_1 in G and w(alpha) <= w(b - c); each such alpha
    is a c = b - alpha.  For b > f + a_1 every alpha qualifies, which
    gives the stable value (``S.stable_goto_via_t_prime``).
    """
    if b < 1:
        raise ValueError(f"need b >= 1, got {quote_int(b)}")
    if not S.contains(b):
        raise NotInSemigroup(
            f"{quote_int(b)} is not in the semigroup {quote_ints(S.generators)}"
        )
    return S.monomial_floor(b)[0]


# -- duality and nilpotency ---------------------------------------------


def ideal_image(Q: CanonicalIdeal) -> TruncatedSubspace:
    """The image of Q in R / x^T R at T = b + f + 1: the colon Q : (x^0)."""
    return _colon(Q, [0])


def _shift_echelon(Q, t):
    """Q's shifts x^e t, e in b + G up to b + f, echeloned in the scaled
    coordinates with the pivot at the column of least m-adic order, then
    of least exponent: (keys, W, pivots), where column e is keyed
    -(ord(e) W + e) with W = b + f + 1, so that its order is -key // W."""
    S, hi, p = Q.semigroup, Q.truncation - 1, Q.field.p
    W = hi + 1
    keys = {e: -(S.madic_order(e) * W + e) for e in S.members(0, hi)}
    shifts = (
        {keys[e + i]: v for i, v in t.items() if e + i <= hi}
        for e in (Q.b + c for c in S.members(0, hi - Q.b))
    )
    return keys, W, _pivot_columns(shifts, p)


def _level(Q, t, rows):
    """Largest i with every row (integer, in the scaled coordinates) in
    m^i + Q, None when they all lie in Q: by the level lemma, the least
    order at which a residual leads.  Exponents above b + f (in Q) drop."""
    p = Q.field.p
    keys, W, pivots = _shift_echelon(Q, t)
    residuals = (_reduce({keys[e]: v for e, v in r.items() if e in keys}, pivots, p) for r in rows)
    return min((-max(res) // W for res in residuals if res), default=None)


def _closure_generator_exponents(Q):
    """Exponents of the monomial generators of Q's integral closure, the
    e in G with b <= e <= b + f + 1: a larger e has e - b > f in G."""
    return Q.semigroup.members(Q.b, Q.truncation)


def is_integrally_closed(Q: CanonicalIdeal) -> bool:
    """Q equals its closure exactly when Q : (closure) holds a unit, i.e.
    when column 0 of its gap equations is live and free."""
    t = integer_model(Q)[0]
    return _smallest_free(*_gap_echelon(Q, t, _closure_generator_exponents(Q))) == 0


def contained_in_power_sum(V: TruncatedSubspace, i: int, Q: CanonicalIdeal) -> bool:
    """Decide V + x^T R <= m^i + Q, T the truncation of V, as "the level of
    V in R/Q is at least i".

    Needs T >= b + f + 1, Q's working truncation: then x^T R lies in x^b
    times the conductor, hence in Q, and so do V's coefficients from
    x^(b + f + 1) on.  A V built for an ideal of smaller valuation is
    refused.
    """
    if V.semigroup != Q.semigroup:
        raise MixedSemigroup("subspace and ideal over different semigroups")
    if V.field != Q.field:
        raise MixedField("subspace and ideal over different fields")
    if i < 0:
        raise ValueError(f"need i >= 0, got {quote_int(i)}")
    if V.truncation < Q.truncation:
        raise TruncationTooSmall(
            f"containment needs truncation >= {quote_int(Q.truncation)}, "
            f"got {quote_int(V.truncation)}"
        )
    if i == 0:
        return True
    t, D = integer_model(Q)
    level = _level(Q, t, [integer_row(vec, Q.field.p, D) for vec in V.basis])
    return level is None or level >= i


def dual_goto(Q: CanonicalIdeal) -> int:
    """Goto number through Gorenstein duality.

    With J = Q : (integral closure of Q), the Goto number equals
    max{i : J <= m^i + Q} whenever the semigroup is symmetric and Q is
    strictly smaller than its closure.  J's basis rows go to ``_level``
    as they come off the gap equations, at Q's working truncation: what a
    wider one adds lies in x^b times the conductor.  Q is closed exactly
    when J holds a unit, i.e. when a row is led by column 0.
    """
    S = Q.semigroup
    if not S.is_symmetric():
        raise NotGorenstein(
            f"duality requires a symmetric semigroup, {quote_ints(S.generators)} is not"
        )
    t = integer_model(Q)[0]
    rows = _colon_rows(Q, t, _closure_generator_exponents(Q))
    if any(0 in r for r in rows):
        raise ClosedIdeal("duality requires Q strictly inside its closure")
    cap = S.frobenius // S.multiplicity + 2
    level = _level(Q, t, rows)
    if level is None or level >= cap:
        raise BoundViolation(
            f"duality value for ({Q}) escaped the bound {cap}"
        )
    return level


def conductor_dual_goto(Q: CanonicalIdeal) -> int:
    """The value max{i : C <= m^i + Q} for Q inside the conductor C.

    Agrees with the Goto number when the semigroup is symmetric; computed
    as stated regardless, so callers can compare the two.
    """
    S = Q.semigroup
    f = S.frobenius
    if Q.b <= f:
        raise NotInConductor(
            f"generator valuation {quote_int(Q.b)} must exceed the Frobenius number {quote_int(f)}"
        )
    hard_cap = (Q.truncation - 1) // S.multiplicity + 3
    level = _level(Q, integer_model(Q)[0], [{e: 1} for e in S.conductor_generators])
    if level is None or level >= hard_cap:
        raise BoundViolation(
            f"conductor containment for ({Q}) never failed up to i = {hard_cap}"
        )
    return level


def index_of_nilpotency(Q: CanonicalIdeal) -> int:
    """Least i with m^(i+1) <= Q, for Q a reduction of m (valuation a_1).

    m^(i+1) is spanned by the x^e of m-adic order above i, and those with
    e > b + f lie in x^b times the conductor, hence in Q.  So the answer
    is the largest order of an x^e, e <= b + f, outside Q: of a column
    leading no row of Q's shift echelon (level lemma).  x^0 always counts.
    """
    S = Q.semigroup
    if Q.b != S.multiplicity:
        raise NotAReduction(
            f"generator valuation {quote_int(Q.b)} differs from the multiplicity "
            f"{quote_int(S.multiplicity)}"
        )
    keys, W, pivots = _shift_echelon(Q, integer_model(Q)[0])
    return max(-key // W for key in keys.values() if key not in pivots)
