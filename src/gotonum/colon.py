"""Colon computations and Goto numbers via exact sparse linear algebra.

A parameter ideal Q with canonical generator q = x^b(1 + tail) is handled
modulo x^T with T = b + f + 1: elements of R with valuation above b + f
lie in x^b times the conductor, which qR absorbs, so nothing below T is
ever affected.  The colon Q : m^g is the kernel of a linear system over
the coordinates {x^e : e in G, e < T}: for each multiplier s and each
checked exponent j (j - b negative or a gap) the coefficient of x^j in
r * x^s * u^(-1) must vanish.  That condition depends only on the shift
d = j - s, so the system holds one row per distinct shift.

The Goto number is the last g whose colon stays inside the integral
closure, i.e. has no element of valuation below b.  For a monomial Q that
is read off escape orders (``goto_monomial``).  For every other Q the
scan starts at the monomial floor g(x^b) + 1, and one forward elimination
per g decides it: with the largest column taken as pivot, a kernel vector
led by column c exists exactly when c gets no pivot, so the colon's
minimal valuation is the smallest free column and no kernel basis is
built.  That scan runs on Python ints: over F_p the rows are reduced mod
p, and over Q the substitution x -> Dx (D the lcm of the tail
denominators) makes u^(-1) integral without moving a pivot, so the
elimination is fraction-free.  ``colon_power`` and ``colon_by_monomials``,
which need the subspace itself, read the reduced kernel basis off a
descending elimination over the field, on the same rows.

Duality works in R/Q, embedded by the same coefficients: phi(r) is r * u^(-1)
read at the checked exponents.  m^i + Q maps onto the span of the images
of the monomials of m-adic order at least i, so one integer echelon,
filled by descending order, gives the largest i with a subspace inside
m^i + Q for every i at once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import gcd, lcm

from .errors import (
    BoundViolation,
    ClosedIdeal,
    NotAReduction,
    NotGorenstein,
    NotInConductor,
    NotInSemigroup,
    TruncationTooSmall,
)
from .fields import PrimeField
from .ring import CanonicalIdeal, RingElement

# -- exact sparse row echelon --------------------------------------------


def _forward_eliminate(rows, field, lead):
    """Sparse forward elimination, taking ``lead(row)`` as each row's pivot
    column (``min`` for spans, ``max`` for kernels).  Returns {pivot column
    -> row} with each stored row normalized to pivot coefficient 1."""
    zero = field.zero
    pivots = {}
    for incoming in rows:
        row = dict(incoming)
        while row:
            j = lead(row)
            prow = pivots.get(j)
            if prow is None:
                lead_coef = row[j]
                if lead_coef != field.one:
                    inv = field.inv(lead_coef)
                    row = {c: field.mul(inv, v) for c, v in row.items()}
                pivots[j] = row
                break
            factor = row.pop(j)
            for c, v in prow.items():
                if c == j:
                    continue
                nv = field.sub(row.get(c, zero), field.mul(factor, v))
                if nv == zero:
                    row.pop(c, None)
                else:
                    row[c] = nv
    return pivots


def _back_substitute(pivots, field):
    """Clear each pivot column from every other row (full RREF), in place.

    The result does not depend on the order.  Taking rows shortest first
    finishes each row before it is subtracted from the others, in an
    echelon form of either direction.
    """
    zero = field.zero
    for j in sorted(pivots, key=lambda p: len(pivots[p])):
        prow = pivots[j]
        for j2, row in pivots.items():
            factor = row.get(j)
            if factor is None or j2 == j:
                continue
            for c, v in prow.items():
                nv = field.sub(row.get(c, zero), field.mul(factor, v))
                if nv == zero:
                    row.pop(c, None)
                else:
                    row[c] = nv
    return pivots


def _kernel_basis(rows, cols, field):
    """Reduced basis of the kernel of the system, leading exponents ascending.

    After a descending RREF each pivot row holds its pivot p and free
    columns below p only.  A free column c therefore gives the kernel
    vector e_c - sum prow_p[c] e_p with every p > c, and these vectors are
    already the reduced echelon basis: no other one has a coefficient at c.
    """
    pivots = _back_substitute(_forward_eliminate(rows, field, max), field)
    one = field.one
    basis = {c: {c: one} for c in cols if c not in pivots}
    for p, prow in pivots.items():
        for c, v in prow.items():
            if c != p:
                basis[c][p] = field.neg(v)
    return list(basis.values())


class TruncatedSubspace:
    """A subspace of R / x^T R in reduced echelon coordinates.

    Basis vectors are sparse maps exponent -> scalar with pivot exponents
    strictly ascending; the smallest pivot is the minimal valuation
    attained by the subspace.
    """

    __slots__ = ("semigroup", "field", "truncation", "basis")

    def __init__(self, semigroup, field, truncation, basis):
        self.semigroup = semigroup
        self.field = field
        self.truncation = truncation
        self.basis = basis

    @classmethod
    def span(cls, semigroup, field, truncation, vectors):
        reduced = _back_substitute(_forward_eliminate(vectors, field, min), field)
        return cls(semigroup, field, truncation, [reduced[j] for j in sorted(reduced)])

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


def _context(Q):
    """Per-ideal memo: the largest exponent b + f that carries a condition,
    the semigroup members up to it (ascending), and the exponents
    j <= b + f where membership in qR imposes a condition."""
    ctx = Q._engine_cache.get("ctx")
    if ctx is None:
        S = Q.semigroup
        b = Q.b
        hi = b + max(S.frobenius, 0)
        cols = S.members(0, hi)
        checked = [j for j in range(hi + 1) if j < b or not S.contains(j - b)]
        ctx = (hi, cols, checked)
        Q._engine_cache["ctx"] = ctx
    return ctx


def _membership_rows(Q, multipliers, series):
    """Rows forcing r * x^s in Q for every s in multipliers, one per shift.

    A condition at a checked exponent j reads off the coefficient of x^j
    in r * x^s * u^(-1), the sum of r_c * series[j - s - c] over c in G
    (series holds the coefficients of u^(-1), or a rescaling of them).  It
    depends on s and j only through the shift d = j - s, so each distinct
    d >= 0 gives the one row {c: series[d - c] : c in G, c <= d}.  Every
    such c is at most b + f, whatever the truncation.
    """
    _, cols, checked = _context(Q)
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


def _integer_series(Q):
    """The unit inverse as Python ints, with the modulus the scan reduces
    by (0 over Q) and the scale D, cached.

    Over F_p the coefficients of u^(-1) already are ints mod p, and D = 1.
    Over Q, with D the lcm of the tail denominators,
    w = (1 + sum u_i D^i x^i)^(-1) has integer coefficients
    w_k = D^k uinv_k.  Entry c of the row of shift d becomes
    D^(d - c) uinv_(d - c): the row scaled by D^d and column c by D^(-c),
    which moves no pivot.
    """
    cached = Q._engine_cache.get("zseries")
    if cached is None:
        hi = _context(Q)[0]
        if isinstance(Q.field, PrimeField):
            cached = (Q.unit_inverse(hi + 1), Q.field.p, 1)
        else:
            tail = Q.unit_coeffs
            D = lcm(*(v.denominator for v in tail.values()))
            scaled = {
                i: v.numerator * (D // v.denominator) * D ** (i - 1)
                for i, v in tail.items()
            }
            w = {0: 1}
            for n in range(1, hi + 1):
                acc = sum(t * w[n - k] for k, t in scaled.items() if n - k in w)
                if acc:
                    w[n] = -acc
            cached = (w, 0, D)
        Q._engine_cache["zseries"] = cached
    return cached


def _reduce(row, pivots, p):
    """Residual of an integer row against stored pivot rows, the largest
    column first; empty exactly when the row lies in their span.

    Over F_p (p prime) reductions run mod p and a residual is scaled to
    leading entry 1.  Over Q (p = 0) they stay in Z: the row is
    cross-multiplied against the pivot row by their leading entries, and a
    residual is divided by the gcd of its entries.  Consumes the row.
    """
    while row:
        j = max(row)
        prow = pivots.get(j)
        if prow is None:
            break
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
    """Pivot columns of an integer system, the largest column taken as pivot.

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


def _colon(Q, multipliers, truncation):
    """The subspace {r mod x^T : r * x^s in Q for every s in multipliers}."""
    if truncation is None:
        truncation = Q.truncation
    if truncation < Q.truncation:
        raise TruncationTooSmall(
            f"colon needs truncation >= {Q.truncation}, got {truncation}"
        )
    S = Q.semigroup
    rows = _membership_rows(Q, multipliers, Q.unit_inverse(_context(Q)[0] + 1))
    cols = S.members(0, truncation - 1)
    return TruncatedSubspace(S, Q.field, truncation, _kernel_basis(rows, cols, Q.field))


def colon_power(Q: CanonicalIdeal, g: int, truncation=None) -> TruncatedSubspace:
    """The subspace {r mod x^T : r * m^g <= Q} at T = b + f + 1 by default."""
    if g < 0:
        raise ValueError(f"need g >= 0, got {g}")
    hi = _context(Q)[0]
    return _colon(Q, Q.semigroup._sums_upto(g, hi), truncation)


def colon_by_monomials(Q: CanonicalIdeal, exponents, truncation=None) -> TruncatedSubspace:
    """The subspace {r mod x^T : r * x^e in Q for every e in the set}."""
    S = Q.semigroup
    for e in exponents:
        if not S.contains(e):
            raise NotInSemigroup(
                f"multiplier exponent {e} is not in the semigroup {S.generators}"
            )
    hi = _context(Q)[0]
    return _colon(Q, sorted(e for e in set(exponents) if e <= hi), truncation)


def _colon_min_valuation(Q, g):
    """Minimal valuation in Q : m^g (None when the colon is zero), from the
    rank profile of its membership system alone.

    With the largest column taken as pivot, column c gets no pivot exactly
    when it lies in the span of the larger columns, i.e. when some kernel
    vector is led by x^c.  So the smallest free column is the answer, with
    no back substitution and no kernel basis.  The rows are built from
    ``_integer_series``, so the elimination makes no field calls.
    """
    hi, cols, _ = _context(Q)
    series, p, _ = _integer_series(Q)
    rows = _membership_rows(Q, Q.semigroup._sums_upto(g, hi), series)
    pivots = _pivot_columns(rows, p)
    return next((c for c in cols if c not in pivots), None)


def goto_number(Q: CanonicalIdeal) -> int:
    """Largest g such that Q : m^g stays inside the integral closure of Q.

    A monomial Q goes to ``goto_monomial`` (escape orders).  Every other Q
    is scanned over ascending g from g(x^b) + 1, one rank-only elimination
    per g, up to the first colon that reaches below valuation b.  That
    floor holds since r in Q : m^g of valuation c < b puts x^c in
    x^b R : m^g (compare valuations in r x^e in qR), and the colons grow
    with g.  The scan cannot legitimately pass floor(f/a_1) + 1, so
    reaching floor(f/a_1) + 2 raises an internal error.
    """
    S = Q.semigroup
    floor = goto_monomial(S, Q.b)
    if not Q.unit_coeffs:
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
    """
    if b < 1:
        raise ValueError(f"need b >= 1, got {b}")
    if not S.contains(b):
        raise NotInSemigroup(f"{b} is not in the semigroup {S.generators}")
    if S.is_regular:
        return 0
    value = min(S.escape_order(b - c) for c in S.members(0, b - 1))
    cap = S.frobenius // S.multiplicity + 1
    if value > cap:
        raise BoundViolation(
            f"g(x^{b}) = {value} escapes the proven bound {cap}"
        )
    return value


# -- duality and nilpotency ---------------------------------------------


def ideal_image(Q: CanonicalIdeal, truncation=None) -> TruncatedSubspace:
    """The image of Q in R / x^T R, spanned by the shifts q * x^e."""
    S = Q.semigroup
    T = truncation if truncation is not None else Q.truncation
    fld = Q.field
    vectors = []
    for e in S.members(0, T - 1 - Q.b):
        vec = {Q.b + e: fld.one}
        for i, v in Q.unit_coeffs.items():
            if Q.b + e + i < T:
                vec[Q.b + e + i] = v
        vectors.append(vec)
    return TruncatedSubspace.span(S, fld, T, vectors)


def _monomial_images(Q):
    """The images phi(x^e) for e in G, e <= b + f, as integer rows, cached.

    phi_j(r) is the coefficient of x^j in r * u^(-1) at a checked exponent
    j; their common kernel is Q, so phi embeds R/Q.  Entry j of phi(x^e)
    is series[j - e] for ``_integer_series``, whose rescaling x -> Dx
    scales coordinate j and x^e and so moves no span.  Entry j is keyed
    b + f - j, so that the echelon's largest key is the smallest exponent
    and the images stay nearly triangular.
    """
    images = Q._engine_cache.get("images")
    if images is None:
        hi, cols, checked = _context(Q)
        series = _integer_series(Q)[0]
        images = {}
        for e in cols:
            above = checked[bisect_left(checked, e):]
            images[e] = {hi - j: v for j in above if (v := series.get(j - e)) is not None}
        Q._engine_cache["images"] = images
    return images


def _image(Q, vec):
    """phi of a vector over Q's field as an integer row, up to a nonzero
    factor: the sum of v_c phi(x^c) with the denominators of the v_c and
    the D^c cleared over Q, and reduced mod p over F_p.  Exponents above
    b + f have image 0."""
    _, p, D = _integer_series(Q)
    images = _monomial_images(Q)
    coeffs = {c: v for c, v in vec.items() if c in images}
    if not p:
        N = lcm(*(v.denominator for v in coeffs.values()))
        coeffs = {c: v.numerator * (N // v.denominator) * D**c for c, v in coeffs.items()}
    row = {}
    for c, k in coeffs.items():
        for j, v in images[c].items():
            row[j] = row.get(j, 0) + k * v
    if p:
        row = {j: v % p for j, v in row.items()}
    return {j: v for j, v in row.items() if v}


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
    p = _integer_series(Q)[1]
    residuals = [row for vec in vectors if (row := _image(Q, vec))]
    if not residuals:
        return None
    S = Q.semigroup
    by_order = {}
    for e, row in _monomial_images(Q).items():
        if e and row:
            by_order.setdefault(S.madic_order(e), []).append(row)
    pivots = {}
    for i in sorted(by_order, reverse=True):
        for row in by_order[i]:
            row = _reduce(dict(row), pivots, p)
            if row:
                pivots[max(row)] = row
        residuals = [row for r in residuals if (row := _reduce(r, pivots, p))]
        if not residuals:
            return i
    return 0


def is_integrally_closed(Q: CanonicalIdeal) -> bool:
    """Q is inside its closure, spanned by {x^e : e in G, e >= b}; they are
    equal exactly when every such x^e with e <= b + f lies in Q, i.e. has
    image 0 in R/Q."""
    return not any(row for e, row in _monomial_images(Q).items() if e >= Q.b)


def contained_in_power_sum(V: TruncatedSubspace, i: int, Q: CanonicalIdeal) -> bool:
    """Decide V <= m^i + Q, as "the level of V in R/Q is at least i".

    Needs T >= max(b, i*a_1) + f + 1: elements of valuation at least
    i*a_1 + f + 1 factor as x^(i*a_1) times a conductor element, hence lie
    in m^i, so the truncated subspace decides the real containment.
    """
    if i < 0:
        raise ValueError(f"need i >= 0, got {i}")
    S = V.semigroup
    T = V.truncation
    f = max(S.frobenius, 0)
    needed = max(Q.b, i * S.multiplicity) + f + 1
    if T < needed:
        raise TruncationTooSmall(
            f"containment at i = {i} needs truncation >= {needed}, got {T}"
        )
    if i == 0:
        return True
    level = _level(Q, V.basis)
    return level is None or level >= i


def _closure_generator_exponents(Q):
    """Monomial generators of the integral closure of Q as an ideal:
    exponents e in G with b <= e <= b + f + 1 (higher monomials are
    x^(a_1)-multiples of lower ones; checked below on a window)."""
    S = Q.semigroup
    gens = S.members(Q.b, Q.b + max(S.frobenius, 0) + 1)
    if not all(
        any(S.contains(e - c) for c in gens)
        for e in S.members(Q.b, Q.b + 2 * max(S.frobenius, 1))
    ):
        raise BoundViolation(
            f"closure generators of ({Q}) up to x^{gens[-1]} miss a monomial"
        )
    return gens


def dual_goto(Q: CanonicalIdeal) -> int:
    """Goto number through Gorenstein duality.

    With J = Q : (integral closure of Q), the Goto number equals
    max{i : J <= m^i + Q} whenever the semigroup is symmetric and Q is
    strictly smaller than its closure.  J is built once, at the default
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
    one = Q.field.one
    hard_cap = (Q.b + max(f, 0)) // S.multiplicity + 3
    level = _level(Q, [{e: one} for e in S.conductor_generators])
    if level is None or level >= hard_cap:
        raise BoundViolation(
            f"conductor containment for ({Q}) never failed up to i = {hard_cap}"
        )
    return level


def index_of_nilpotency(Q: CanonicalIdeal) -> int:
    """Least i with m^(i+1) <= Q, for Q a reduction of m (valuation a_1).

    Containment is checked on the monomial generators of m^(i+1) with
    exponent at most b + f; larger products fall into x^b times the
    conductor automatically.
    """
    S = Q.semigroup
    if Q.b != S.multiplicity:
        raise NotAReduction(
            f"generator valuation {Q.b} differs from the multiplicity "
            f"{S.multiplicity}"
        )
    hi = Q.b + max(S.frobenius, 0)
    cap = hi // S.multiplicity + 2
    for i in range(cap + 1):
        gens = S._sums_upto(i + 1, hi)
        if all(
            Q.contains(RingElement.monomial(S, s, Q.field)) for s in gens
        ):
            return i
    raise BoundViolation(f"m^(i+1) never entered ({Q}) up to i = {cap}")
