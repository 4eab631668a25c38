"""Colon computations and Goto numbers via exact sparse linear algebra.

A parameter ideal Q with canonical generator q = x^b(1 + tail) is handled
modulo x^T with T = b + f + 1: elements of R with valuation above b + f
lie in x^b times the conductor, which qR absorbs, so nothing below T is
ever affected.  The colon Q : m^g is the kernel of a linear system over
the coordinates {x^e : e in G, e < T}: for each multiplier s, an exponent
of m-adic order exactly g (a minimal monomial generator of m^g,
``NumericalSemigroup.power_generators``), and each checked exponent j
(j - b negative or a gap) the coefficient of x^j in r * x^s * u^(-1) must
vanish.  That condition depends only on the shift d = j - s, so the
system holds one row per distinct shift.

The Goto number is the last g whose colon stays inside the integral
closure, i.e. has no element of valuation below b.  For a monomial Q that
is read off escape orders (``goto_monomial``), and so it is for every Q
the conductor lemma decides, all Q with b > f + a_1 among them
(``goto_number``).  For every other Q the scan starts at the monomial
floor g(x^b) + 1, and one forward elimination per g decides it: with the
largest column taken as pivot, a kernel vector led by column c exists
exactly when c gets no pivot, so the colon's
minimal valuation is the smallest free column and no kernel basis is
built.  That scan runs on Python ints, on the ideal's integer model
(``ring.integer_model``): over F_p the rows are reduced mod p, and over Q
the substitution x -> Dx (D the lcm of the tail denominators) makes
u^(-1) integral without moving a pivot, so the elimination is
fraction-free.  ``colon_power`` and ``colon_by_monomials``, which need
the subspace itself, finish the same integer echelon with a back
substitution and read the reduced kernel basis off it, and
``TruncatedSubspace.span`` runs it on exponents keyed in reverse.

Duality works in R/Q, embedded by the same coefficients: phi(r) is
r * u^(-1) read at the checked exponents (``ring.image``, on the same
model).  m^i + Q maps onto the span of the images of the monomials of
m-adic order at least i, so one integer echelon, filled by descending
order, gives the largest i with a subspace inside m^i + Q for every i at
once.
"""

from __future__ import annotations

from bisect import bisect_right
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
from .ring import CanonicalIdeal, image, integer_model, monomial_images

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


def _pivot_columns(rows, p, pivots=None):
    """Pivot columns of an integer system, the largest column taken as pivot.

    Each row is reduced against the pivot rows stored so far (those of
    ``pivots`` first, when given, which is then extended) and, if a
    residual is left, stored under its largest column.  The pivot set is
    the field's rank profile.  Consumes rows.
    """
    pivots = {} if pivots is None else pivots
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


def _kernel_basis(rows, cols, p, D):
    """Reduced basis of the kernel of an integer system whose column c was
    scaled by D^(-c) (see ``ring.integer_model``), leading exponents
    ascending, with scalars mod p over F_p and Fractions over Q.

    After the descending echelon and back substitution, a free column c
    gives the kernel vector x_c = 1, x_q = -prow_q[c] / prow_q[q] for each
    pivot q > c, in the scaled coordinates; multiplying x_q by
    D^(c - q) undoes the scaling.  These vectors are already the reduced
    echelon basis: no other one has a coefficient at c.
    """
    pivots = _back_substitute(_pivot_columns(rows, p), p)
    one = 1 if p else Fraction(1)
    basis = {c: {c: one} for c in cols if c not in pivots}
    for q, prow in pivots.items():
        lead = prow[q]
        for c, v in prow.items():
            if c != q:
                basis[c][q] = -v % p if p else Fraction(-v, lead * D ** (q - c))
    return list(basis.values())


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
        p = getattr(field, "p", 0)
        rows = []
        for vec in vectors:
            if p:
                rows.append({-c: r for c, v in vec.items() if (r := v % p)})
            else:
                N = lcm(*(v.denominator for v in vec.values()))
                rows.append({-c: v.numerator * (N // v.denominator) for c, v in vec.items() if v})
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


# -- the membership linear system ------------------------------------------


def _membership_rows(Q, multipliers):
    """Rows forcing r * x^s in Q for every s in multipliers, one per shift.

    A condition at a checked exponent j reads off the coefficient of x^j
    in r * x^s * u^(-1), the sum of r_c * series[j - s - c] over c in G
    (series the integer model's coefficients of u^(-1)).  It depends on s
    and j only through the shift d = j - s, so each distinct d >= 0 gives
    the one row {c: series[d - c] : c in G, c <= d}.  Every such c is at
    most b + f.
    """
    _, cols, checked, series = integer_model(Q)[:4]
    shifts = {j - s for s in multipliers for j in checked if j >= s}
    rows = []
    for d in sorted(shifts):
        row = {
            c: v
            for c in cols[: bisect_right(cols, d)]
            if (v := series.get(d - c)) is not None
        }
        if row:
            rows.append(row)
    return rows


def _colon(Q, multipliers):
    """The subspace {r mod x^T : r * x^s in Q for every s in multipliers},
    at T = b + f + 1."""
    _, cols, _, _, p, D = integer_model(Q)
    basis = _kernel_basis(_membership_rows(Q, multipliers), cols, p, D)
    return TruncatedSubspace(Q.semigroup, Q.field, Q.truncation, basis)


def colon_power(Q: CanonicalIdeal, g: int) -> TruncatedSubspace:
    """The subspace {r mod x^T : r * m^g <= Q} at T = b + f + 1."""
    if g < 0:
        raise ValueError(f"need g >= 0, got {g}")
    hi = integer_model(Q)[0]
    return _colon(Q, Q.semigroup.power_generators(g, hi))


def colon_by_monomials(Q: CanonicalIdeal, exponents) -> TruncatedSubspace:
    """The subspace {r mod x^T : r * x^e in Q for every e in the set} at
    T = b + f + 1."""
    S = Q.semigroup
    for e in exponents:
        if not S.contains(e):
            raise NotInSemigroup(
                f"multiplier exponent {e} is not in the semigroup {S.generators}"
            )
    hi = integer_model(Q)[0]
    return _colon(Q, sorted(e for e in set(exponents) if e <= hi))


def _colon_min_valuation(Q, g):
    """Minimal valuation in Q : m^g (None when the colon is zero), from the
    rank profile of its membership system alone.

    With the largest column taken as pivot, column c gets no pivot exactly
    when it lies in the span of the larger columns, i.e. when some kernel
    vector is led by x^c.  So the smallest free column is the answer, with
    no back substitution and no kernel basis.
    """
    hi, cols, _, _, p, _ = integer_model(Q)
    rows = _membership_rows(Q, Q.semigroup.power_generators(g, hi))
    pivots = _pivot_columns(rows, p)
    return next((c for c in cols if c not in pivots), None)


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
    rank-only elimination per g, up to the first colon that reaches below
    valuation b.  The scan cannot legitimately pass floor(f/a_1) + 1, so
    reaching floor(f/a_1) + 2 raises an internal error.
    """
    S = Q.semigroup
    floor, settled = S.monomial_floor(Q.b)
    if settled or not Q.unit_coeffs:
        return floor
    cap = S.frobenius // S.multiplicity + 1
    for g in range(floor + 1, cap + 2):
        mv = _colon_min_valuation(Q, g)
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
        raise ValueError(f"need b >= 1, got {b}")
    if not S.contains(b):
        raise NotInSemigroup(f"{b} is not in the semigroup {S.generators}")
    return S.monomial_floor(b)[0]


# -- duality and nilpotency ---------------------------------------------


def ideal_image(Q: CanonicalIdeal) -> TruncatedSubspace:
    """The image of Q in R / x^T R at T = b + f + 1, spanned by the shifts
    q * x^e."""
    S, b, T = Q.semigroup, Q.b, Q.truncation
    unit = {0: Q.field.one, **Q.unit_coeffs}
    vectors = [
        {b + e + i: v for i, v in unit.items() if b + e + i < T}
        for e in S.members(0, T - 1 - b)
    ]
    return TruncatedSubspace.span(S, Q.field, T, vectors)


def _level(Q, vectors):
    """Largest i with the span of the vectors (over Q's field) inside
    m^i + Q; None when they lie in Q, hence in every m^i + Q.

    m^i is spanned by the x^e with m-adic order at least i, so phi maps
    m^i + Q onto L_i, the span of those images.  Inserting the images into
    one integer echelon by descending order builds L_i for each order i in
    turn, and the residuals of the vectors' images only ever shrink; the
    first order at which they all vanish is the answer, and 0 when none
    does.
    """
    p = integer_model(Q)[4]
    residuals = [row for vec in vectors if (row := image(Q, vec))]
    if not residuals:
        return None
    S = Q.semigroup
    by_order = {}
    for e, row in monomial_images(Q).items():
        if e and row:
            by_order.setdefault(S.madic_order(e), []).append(dict(row))
    pivots = {}
    for i in sorted(by_order, reverse=True):
        _pivot_columns(by_order[i], p, pivots)
        residuals = [row for r in residuals if (row := _reduce(r, pivots, p))]
        if not residuals:
            return i
    return 0


def is_integrally_closed(Q: CanonicalIdeal) -> bool:
    """Q is inside its closure, spanned by {x^e : e in G, e >= b}; they are
    equal exactly when every such x^e with e <= b + f lies in Q, i.e. has
    image 0 in R/Q."""
    return not any(row for e, row in monomial_images(Q).items() if e >= Q.b)


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
        raise ValueError(f"need i >= 0, got {i}")
    if V.truncation < Q.truncation:
        raise TruncationTooSmall(
            f"containment needs truncation >= {Q.truncation}, got {V.truncation}"
        )
    if i == 0:
        return True
    level = _level(Q, V.basis)
    return level is None or level >= i


def _closure_generator_exponents(Q):
    """Monomial generators of the integral closure of Q as an ideal:
    exponents e in G with b <= e <= b + f + 1.  Every larger member e has
    e - b > f in G, so x^e is a multiple of x^b."""
    return Q.semigroup.members(Q.b, Q.truncation)


def dual_goto(Q: CanonicalIdeal) -> int:
    """Goto number through Gorenstein duality.

    With J = Q : (integral closure of Q), the Goto number equals
    max{i : J <= m^i + Q} whenever the semigroup is symmetric and Q is
    strictly smaller than its closure.  J is built once, at Q's working
    truncation: what a wider one adds lies in x^b times the conductor.
    """
    S = Q.semigroup
    if not S.is_symmetric():
        raise NotGorenstein(
            f"duality requires a symmetric semigroup, {S.generators} is not"
        )
    if is_integrally_closed(Q):
        raise ClosedIdeal("duality requires Q strictly inside its closure")
    J = colon_by_monomials(Q, _closure_generator_exponents(Q))
    cap = S.frobenius // S.multiplicity + 2
    level = _level(Q, J.basis)
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
            f"generator valuation {Q.b} must exceed the Frobenius number {f}"
        )
    hard_cap = (Q.truncation - 1) // S.multiplicity + 3
    level = _level(Q, [{e: Q.field.one} for e in S.conductor_generators])
    if level is None or level >= hard_cap:
        raise BoundViolation(
            f"conductor containment for ({Q}) never failed up to i = {hard_cap}"
        )
    return level


def index_of_nilpotency(Q: CanonicalIdeal) -> int:
    """Least i with m^(i+1) <= Q, for Q a reduction of m (valuation a_1).

    m^(i+1) is spanned by the x^e of m-adic order above i, and those with
    e > b + f lie in x^b times the conductor, hence in Q.  So the answer
    is the largest order of an x^e, e <= b + f, with nonzero image in
    R/Q; x^0 always counts, since 1 is not in Q.
    """
    S = Q.semigroup
    if Q.b != S.multiplicity:
        raise NotAReduction(
            f"generator valuation {Q.b} differs from the multiplicity "
            f"{S.multiplicity}"
        )
    return max(S.madic_order(e) for e, row in monomial_images(Q).items() if row)
