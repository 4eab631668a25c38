"""Brute-force reference implementations used to anchor test expectations.

Everything here is written for clarity over speed and stays independent
of the library code paths it checks: membership by coin-problem dynamic
programming, generator sums by explicit multiset enumeration, m-adic
orders by exhaustive partition search, the Pareto labels of the residue
classes by enumerating multisets, escape orders by trying every
exponent, monomial colon ideals by direct containment scans, and Goto
numbers read off those colons.  Normal tails come from the full
ascending sweep over [1, f], and held search positions from the listed
sums of the admissible positions.  Colons of non-monomial ideals come from
the literal membership system, one row per (multiplier, checked
exponent) pair, eliminated over Fraction or mod p;
primes from trial division.  Colons Q : m^g of m-primary monomial ideals
in a regular local ring, and pure-power Goto numbers, come from the
staircase of Q : m^g, one dilation step per g.
Integrality over a pure-power ideal is the one facet of its Newton
polyhedron, and the order of a monomial ideal is the least degree of a
generator.  Unit inverses come from the formal-inverse recurrence run
through the field descriptor, and sums and products of ring elements
from term-by-term arithmetic through it.  Colon subspaces, ideal images
and spans come from a field-generic elimination (every operation through
the field descriptor) on rows built from that inverse.  Duality values come from the
per-i span route: for every i the colon J = Q : closure at a truncation
wide enough for m^i, the span of m^i + Q over the field, and a reduction
of each basis vector of J.  Colons over F_2 and F_3 also come from the
definition alone: every element of R/x^T and an explicit set of the
elements of Q mod x^T.  The search envelope check is no oracle: it holds
search records against the library's stable value and global bound.  Nor
is the product check: it reads the library's Goto numbers of two ideals
and of their product, which it multiplies out itself.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from math import gcd, isqrt

from gotonum.bounds import bound_global, stable_goto
from gotonum.colon import TruncatedSubspace, goto_number
from gotonum.errors import BoundViolation, ClosedIdeal, NotGorenstein, NotInConductor
from gotonum.fields import RATIONALS
from gotonum.regular import MonomialIdeal
from gotonum.ring import RingElement, canonicalize


def representable(n, gens):
    """Is n a sum of elements of gens (with repetition)?"""
    if n < 0:
        return False
    table = [False] * (n + 1)
    table[0] = True
    for e in range(1, n + 1):
        table[e] = any(a <= e and table[e - a] for a in gens)
    return table[n]


def minimal_generators(gens):
    """The elements of gens that are not sums of smaller ones, ascending."""
    gens = sorted(set(gens))
    return [a for a in gens if not representable(a, [c for c in gens if c < a])]


def members_upto(gens, cap):
    """Semigroup elements in [0, cap], by dynamic programming."""
    table = [False] * (cap + 1)
    table[0] = True
    for e in range(1, cap + 1):
        table[e] = any(a <= e and table[e - a] for a in gens)
    return [e for e in range(cap + 1) if table[e]]


def frobenius_brute(gens):
    """Largest non-representable integer (-1 if everything reachable)."""
    assert gcd(*gens) == 1 if len(gens) > 1 else gens == [1]
    if min(gens) == 1:
        return -1
    cap = max(gens) * min(gens) + max(gens)
    member = set(members_upto(gens, cap))
    return max(e for e in range(cap + 1) if e not in member)


def exact_sums(gens, t, cap):
    """Sums of exactly t generators with repetition, capped: multiset
    enumeration, no dynamic programming."""
    if t == 0:
        return {0} if cap >= 0 else set()
    return {
        s
        for combo in combinations_with_replacement(sorted(gens), t)
        if (s := sum(combo)) <= cap
    }


def madic_order_brute(gens, e):
    """Largest t with e = (sum of t generators) + (semigroup element),
    by trying every t down from e // min(gens)."""
    member = set(members_upto(gens, e))
    assert e in member
    if e == 0:
        return 0
    for t in range(e // min(gens), 0, -1):
        if any(e - s in member for s in exact_sums(gens, t, e)):
            return t
    raise AssertionError("every positive member has order >= 1")


@lru_cache(maxsize=None)
def _madic_order_cached(gens, e):
    return madic_order_brute(list(gens), e)


def escape_order_brute(gens, delta):
    """Largest m-adic order among members e <= f + delta with e - delta
    outside the semigroup, every such e tried."""
    gens = tuple(sorted(gens))
    f = frobenius_brute(list(gens))
    member = set(members_upto(gens, f + delta))
    return max(_madic_order_cached(gens, e) for e in member if e - delta not in member)


def apery_labels_brute(gens):
    """Per residue class mod a_1, the undominated pairs (D, S) over every
    multiset A of generators other than a_1 with fewer than a_1 summands:
    S = sum(A), D = S - |A| a_1, D ascending.  (D, S) is dominated when
    another pair of its class is no larger in both coordinates."""
    gens = sorted(gens)
    a1, rest = gens[0], gens[1:]
    pairs = [set() for _ in range(a1)]
    for k in range(a1):
        for combo in combinations_with_replacement(rest, k):
            s = sum(combo)
            pairs[s % a1].add((s - k * a1, s))
    return [
        sorted(p for p in cls if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in cls))
        for cls in pairs
    ]


def power_generators_brute(gens, g):
    """Exponents of the minimal monomial generators of m^g, ascending: the
    sums of g generators that are not another such sum plus a nonzero
    member."""
    sums = exact_sums(gens, g, g * max(gens))
    member = set(members_upto(gens, g * max(gens)))
    return [s for s in sorted(sums) if not any(s - t in member for t in sums if t < s)]


def monomial_colon(gens, b, g, cap):
    """Exponents c <= cap of monomials in (x^b R) : m^g.

    x^c is in the colon iff c + s - b is in the semigroup for every sum s
    of exactly g generators; sums with c + s - b beyond the Frobenius
    number pass automatically, so a finite check cap on s suffices.
    """
    f = frobenius_brute(gens)
    member = set(members_upto(gens, cap + max(f, 0) + max(gens) * (g + 1) + b))
    out = []
    for c in range(cap + 1):
        if c not in member:
            continue
        good = all(
            c + s - b in member
            for s in exact_sums(gens, g, b + max(f, 0) - c)
        )
        if good:
            out.append(c)
    return out


def goto_monomial_brute(gens, b):
    """Goto number of x^b R: last g whose colon stays at valuations >= b."""
    f = frobenius_brute(gens)
    cap = f // min(gens) + 2
    for g in range(1, cap + 1):
        low = [c for c in monomial_colon(gens, b, g, b - 1)]
        if low:
            return g - 1
    raise AssertionError("colon chain never dropped below the valuation")


def conductor_lemma_decides(gens, b):
    """Whether the conductor lemma fixes g(Q) = g(x^b) for every parameter
    ideal Q of valuation b: exactly when x^b R : m^(g+1), g = g(x^b),
    holds some x^c with f < c < b."""
    f = frobenius_brute(gens)
    g = goto_monomial_brute(gens, b)
    return any(c > f for c in monomial_colon(gens, b, g + 1, b - 1))


@lru_cache(maxsize=None)
def _frobenius_and_members(gens):
    f = frobenius_brute(list(gens))
    return f, frozenset(members_upto(gens, f))


def normal_tail_sweep(gens, tail, p=0):
    """The normal tail of the integer unit 1 + tail by the full ascending
    sweep: at every i in [1, f] in G where the unit's coefficient is
    nonzero, the unit is multiplied out by 1 - t_i x^i, terms above f
    dropped, mod p when p is nonzero."""
    f, member = _frobenius_and_members(tuple(gens))
    t = dict(tail)
    for i in range(1, f + 1):
        v = t.get(i)
        if not v or i not in member:
            continue
        unit = {0: 1, **t}
        prod = dict(unit)
        for j, w in unit.items():
            if i + j <= f:
                prod[i + j] = prod.get(i + j, 0) - v * w
        t = {k: c % p if p else c for k, c in prod.items() if k and (c % p if p else c)}
    return tuple(sorted(t.items()))


def held_positions_brute(gens, positions):
    """The positions j in G of A = positions with j + s in G or above f for
    every sum s of positions in A, the sums listed up to f."""
    f, member = _frobenius_and_members(tuple(gens))
    sums, todo = set(), list(positions)
    while todo:
        s = todo.pop()
        if s <= f and s not in sums:
            sums.add(s)
            todo.extend(s + a for a in positions)
    return tuple(
        j for j in positions if j in member and all(j + s > f or j + s in member for s in sums)
    )


def index_of_nilpotency_brute(gens, b):
    """Least i with m^(i+1) inside x^b R, for monomial reductions."""
    f = frobenius_brute(gens)
    member = set(members_upto(gens, b + max(f, 0) + max(gens)))
    i = 0
    while True:
        sums = exact_sums(gens, i + 1, b + max(f, 0))
        if all(s - b in member for s in sums):
            return i
        i += 1


def goto_monomial_literal(S, b):
    """Literal scan for the monomial Goto number, on the library semigroup:
    the largest g such that no c in G with c < b satisfies
    c + s - b in G for every generator sum s of size g with s <= b + f - c.

    Written as a pinned-coordinate scan: x^c is pinned at level g when
    some sum s puts c + s on a checked exponent (below b, or b plus a
    gap), and the first unpinned c ends the scan.
    """
    hi = b + S.frobenius
    checked = {j for j in range(hi + 1) if not S.contains(j - b)}
    candidates = S.members(0, b - 1)
    cap = S.frobenius // S.multiplicity + 2
    for g in range(1, cap + 1):
        sums = sorted(exact_sums(S.generators, g, hi))
        for c in candidates:
            for s in sums:
                if c + s > hi:
                    return g - 1
                if c + s in checked:
                    break
            else:
                return g - 1
    raise AssertionError("no witness appeared below the proven bound")


def power_in_shift_brute(gens, t, alpha):
    """m^t inside x^alpha R, checked on every generator sum that matters."""
    f = frobenius_brute(gens)
    member = set(members_upto(gens, max(gens) * t + alpha))
    def contains(e):
        if e < 0:
            return False
        if e > f:
            return True
        return e in member
    return all(contains(s - alpha) for s in exact_sums(gens, t, f + alpha))


def _staircase_step(std, d):
    """One dilation of a staircase: a point stays outside I : m^(k+1)
    exactly when some step p + e_i stays outside I : m^k."""
    return {p for p in std if any(p[:i] + (p[i] + 1,) + p[i + 1:] in std for i in range(d))}


def _staircase_generators(std, d):
    """Minimal generators of the ideal whose staircase is ``std``: the
    points off the staircase whose downward neighbours all lie on it, that
    is the origin when the staircase is empty, and otherwise points one
    step above a staircase point."""
    if not std:
        return [(0,) * d]
    above = {p[:i] + (p[i] + 1,) + p[i + 1:] for p in std for i in range(d)}
    return [
        q
        for q in above - std
        if all(q[:i] + (q[i] - 1,) + q[i + 1:] in std for i in range(d) if q[i])
    ]


def staircase_colon(Q, g):
    """Q : m^g for an m-primary MonomialIdeal Q, on its staircase: the
    exponents outside Q, inside the box of its pure powers, dilated g times."""
    d = Q.dimension
    box = [min(h[i] for h in Q.generators if sum(h) == h[i]) for i in range(d)]
    std = {
        p
        for p in product(*map(range, box))
        if not any(all(h_i <= p_i for h_i, p_i in zip(h, p)) for h in Q.generators)
    }
    for _ in range(g):
        std = _staircase_step(std, d)
    return MonomialIdeal(d, _staircase_generators(std, d))


def pure_power_goto_staircase(exponents):
    """Goto number of (x_1^{n_1}, ..., x_d^{n_d}) by the staircase scan.

    The staircase of Q (the exponents of the monomials outside it) is the
    whole box prod [0, n_i).  Dilate it one step per g, read the minimal
    generators of Q : m^g off it, and stop at the first g where a
    generator x^p fails the Newton-polyhedron test sum p_i/n_i >= 1.
    """
    exponents = tuple(exponents)
    d = len(exponents)
    std = set(product(*map(range, exponents)))
    for g in range(sum(exponents) + 3):
        generators = _staircase_generators(std, d)
        if any(sum(Fraction(q_i, n_i) for q_i, n_i in zip(q, exponents)) < 1 for q in generators):
            return g - 1
        std = _staircase_step(std, d)
    raise AssertionError("colon chain never left the integral closure")


def pure_power_integral(exponents, point):
    """Is x^point integral over (x_1^{n_1}, ..., x_d^{n_d})?  Exactly when
    sum p_i / n_i >= 1, the one facet of the ideal's Newton polyhedron."""
    if len(point) != len(exponents) or min(exponents) < 1:
        raise ValueError(f"point {point} against pure powers {exponents}")
    return sum(Fraction(p, n) for p, n in zip(point, exponents)) >= 1


def monomial_order(ideal):
    """The largest n with the monomial ideal inside m^n: the least total
    degree of a minimal generator."""
    return min(sum(g) for g in ideal.generators)


def is_prime_trial(n):
    """Primality by trial division up to the square root."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def colon_free_columns_literal(gens, b, tail, g, p=0):
    """Free columns of the membership system of (x^b * u) : m^g, as built
    literally: one row per (multiplier s, checked exponent j) pair.

    s runs over the sums of exactly g generators with s <= b + f, and j
    over the exponents s <= j <= b + f with j < b or j - b a gap; the
    entry of the row at a column c (a member, c <= b + f) is the
    coefficient of x^(j - s - c) in u^(-1), with u = 1 + sum tail[i] x^i.
    Gaussian elimination over Fraction (p = 0) or mod p takes the columns
    in descending order; the columns that get no pivot are returned
    ascending.  They are the leading exponents of the colon's reduced
    basis, and the first one is its minimal valuation.
    """
    hi = b + max(frobenius_brute(gens), 0)
    member = set(members_upto(gens, hi))
    cols = sorted(member)
    norm = (lambda x: x % p) if p else (lambda x: x)
    uinv = [norm(1)] + [norm(0)] * hi
    for n in range(1, hi + 1):
        uinv[n] = norm(-sum(v * uinv[n - i] for i, v in tail.items() if i <= n))
    checked = [j for j in range(hi + 1) if j < b or j - b not in member]
    rows = []
    for s in sorted(exact_sums(gens, g, hi)):
        for j in checked:
            if j >= s:
                row = {c: uinv[j - s - c] for c in cols if c <= j - s and uinv[j - s - c]}
                rows.append(row)
    return free_columns_descending(rows, cols, p)


def free_columns_descending(rows, cols, p=0):
    """Columns without a pivot when Gaussian elimination over Fraction
    (p = 0) or mod p takes the columns in descending order, ascending.
    Column c is free exactly when it lies in the span of the larger ones."""
    if p:
        div = lambda x, y: x * pow(y, -1, p) % p
        norm = lambda x: x % p
    else:
        div = lambda x, y: Fraction(x) / y
        norm = lambda x: x
    rows = [dict(row) for row in rows]
    free = []
    for c in sorted(cols, reverse=True):
        pivot = next((row for row in rows if row.get(c)), None)
        if pivot is None:
            free.append(c)
            continue
        rows = [row for row in rows if row is not pivot]
        for row in rows:
            if row.get(c):
                factor = div(row[c], pivot[c])
                for k, v in pivot.items():
                    row[k] = norm(row.get(k, 0) - factor * v)
        rows = [{k: v for k, v in row.items() if v} for row in rows]
        rows = [row for row in rows if row]
    return sorted(free)


def goto_number_literal(gens, b, tail, p=0):
    """Goto number of (x^b * u): the last g before the literal system's
    first free column drops below b."""
    cap = frobenius_brute(gens) // min(gens) + 2
    for g in range(1, cap + 1):
        free = colon_free_columns_literal(gens, b, tail, g, p)
        if free and free[0] < b:
            return g - 1
    raise AssertionError("colon chain never dropped below the valuation")


# -- field-generic elimination ---------------------------------------------


def invert_unit_generic(coeffs, T, field=RATIONALS):
    """Inverse of a unit 1 + c_1 x + c_2 x^2 + ... modulo x^T, by the
    recurrence for the formal inverse with every operation through the
    field descriptor."""
    if coeffs.get(0) != field.one:
        raise ValueError("series must have constant term 1")
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


def element_sum(a, b):
    """a + b for two elements over one semigroup and field, coefficient by
    coefficient through the field descriptor."""
    fld = a.field
    out = dict(a.coeffs)
    for e, v in b.coeffs.items():
        out[e] = fld.add(out.get(e, fld.zero), v)
    return RingElement(a.semigroup, out, fld)


def element_product(a, b):
    """a * b for two elements over one semigroup and field, one term
    product per pair of terms, through the field descriptor."""
    fld = a.field
    out = {}
    for e1, v1 in a.coeffs.items():
        for e2, v2 in b.coeffs.items():
            out[e1 + e2] = fld.add(out.get(e1 + e2, fld.zero), fld.mul(v1, v2))
    return RingElement(a.semigroup, out, fld)


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


def span_generic(S, field, T, vectors):
    """The span of sparse vectors over the field, in reduced echelon form
    with pivot exponents ascending."""
    reduced = _back_substitute(_forward_eliminate(vectors, field, min), field)
    return TruncatedSubspace(S, field, T, [reduced[j] for j in sorted(reduced)])


def colon_generic(Q, multipliers, T=None):
    """{r mod x^T : r x^s in Q for every s in multipliers}, T = b + f + 1
    by default.  For each shift d = j - s, with j <= b + f an exponent
    below b or at b plus a gap, the row {c: coefficient of x^(d - c) in
    u^(-1)} over the members c <= d; the colon is its kernel."""
    S, fld, b = Q.semigroup, Q.field, Q.b
    T = Q.truncation if T is None else T
    hi = b + max(S.frobenius, 0)
    uinv = invert_unit_generic({0: fld.one, **Q.unit_coeffs}, hi + 1, fld)
    members = S.members(0, hi)
    checked = [j for j in range(hi + 1) if j < b or not S.contains(j - b)]
    shifts = sorted({j - s for s in multipliers for j in checked if s <= j})
    rows = [{c: uinv[d - c] for c in members if d - c in uinv} for d in shifts]
    return TruncatedSubspace(S, fld, T, _kernel_basis(rows, S.members(0, T - 1), fld))


def colon_power_generic(Q, g, T=None):
    """Q : m^g, the colon by the sums of exactly g generators."""
    hi = Q.b + max(Q.semigroup.frobenius, 0)
    return colon_generic(Q, exact_sums(Q.semigroup.generators, g, hi), T)


def ideal_image_generic(Q, T=None):
    """The image of Q in R / x^T R, spanned by the shifts q x^e."""
    S, fld = Q.semigroup, Q.field
    T = Q.truncation if T is None else T
    vectors = []
    for e in S.members(0, T - 1 - Q.b):
        vec = {Q.b + e: fld.one}
        for i, v in Q.unit_coeffs.items():
            if Q.b + e + i < T:
                vec[Q.b + e + i] = v
        vectors.append(vec)
    return span_generic(S, fld, T, vectors)


# -- colons from the definition ----------------------------------------------


def colon_sets_definition(gens, b, tail, p, g_max):
    """The colons Q : m^g over F_p for g = 0..g_max, Q generated by
    q = x^b (1 + sum tail[i] x^i), from the definition alone.

    With T = b + f + 1 everything of valuation >= T lies in Q, so r x^s is
    in Q exactly when it is modulo x^T.  Q mod x^T is listed as the set of
    all F_p-combinations of the shifts q x^e mod x^T, and every r in R/x^T
    is tried against every sum s of exactly g generators, which span m^g.
    Elements are coefficient tuples over the members below T, ascending;
    returns the colons and those members.
    """
    T = b + max(frobenius_brute(gens), 0) + 1
    members = members_upto(gens, T - 1)
    where = {e: k for k, e in enumerate(members)}
    q = {b: 1, **{b + i: v % p for i, v in tail.items()}}
    shifts = []
    for e in members:
        vec = [0] * len(members)
        for j, v in q.items():
            if e + j < T:
                vec[where[e + j]] = v
        if any(vec):
            shifts.append(vec)
    ideal = {
        tuple(sum(k * vec[n] for k, vec in zip(combo, shifts)) % p for n in range(len(members)))
        for combo in product(range(p), repeat=len(shifts))
    }
    elements = list(product(range(p), repeat=len(members)))
    colons = []
    for g in range(g_max + 1):
        moves = [
            [(where[e], where[e + s]) for e in members if e + s < T]
            for s in exact_sums(gens, g, T - 1)
        ]
        colon = set()
        for r in elements:
            for move in moves:
                shifted = [0] * len(members)
                for k, k2 in move:
                    shifted[k2] = r[k]
                if tuple(shifted) not in ideal:
                    break
            else:
                colon.add(r)
        colons.append(colon)
    return colons, members


def reduce_vector(basis, vec, field):
    """Residual of vec after elimination against a reduced echelon basis
    (sparse vectors, each led by its smallest exponent)."""
    out = dict(vec)
    for row in basis:
        factor = out.get(min(row))
        if factor is None:
            continue
        for c, v in row.items():
            nv = field.sub(out.get(c, field.zero), field.mul(factor, v))
            if nv == field.zero:
                out.pop(c, None)
            else:
                out[c] = nv
    return out


def contains_subspace(W, V):
    """V <= W for truncated subspaces over one field."""
    return all(not reduce_vector(W.basis, v, W.field) for v in V.basis)


def contained_in_power_sum_spans(V, i, Q):
    """V <= m^i + Q inside R / x^T, T the truncation of V, by spanning the
    monomials of order >= i and the shifts of the generator over the field
    and reducing every basis vector of V against that span."""
    if i == 0 or not V.basis:
        return True
    S, T, fld = V.semigroup, V.truncation, Q.field
    vectors = [{e: fld.one} for e in S.members(1, T - 1) if S.madic_order(e) >= i]
    for e in S.members(0, T - 1 - Q.b):
        vec = {Q.b + e: fld.one}
        for pos, v in Q.unit_coeffs.items():
            if Q.b + e + pos < T:
                vec[Q.b + e + pos] = v
        vectors.append(vec)
    return contains_subspace(span_generic(S, fld, T, vectors), V)


def dual_goto_spans(Q):
    """The duality value max{i : Q : closure <= m^i + Q}, one colon and one
    span per i, with the library's errors and messages."""
    S = Q.semigroup
    if not S.is_symmetric():
        raise NotGorenstein(f"duality requires a symmetric semigroup, {S.generators} is not")
    closure = span_generic(
        S, Q.field, Q.truncation, [{e: Q.field.one} for e in S.members(Q.b, Q.truncation - 1)]
    )
    if ideal_image_generic(Q) == closure:
        raise ClosedIdeal("duality requires Q strictly inside its closure")
    a1, f = S.multiplicity, max(S.frobenius, 0)
    closure_exps = S.members(Q.b, Q.b + f + 1)
    cap = S.frobenius // a1 + 2
    for i in range(1, cap + 1):
        J = colon_generic(Q, closure_exps, max(Q.b, i * a1) + f + 1)
        if not contained_in_power_sum_spans(J, i, Q):
            return i - 1
    raise BoundViolation(f"duality value for ({Q}) escaped the bound {cap}")


def conductor_dual_goto_spans(Q):
    """max{i : conductor <= m^i + Q} for b > f, one span per i, with the
    library's errors and messages."""
    S = Q.semigroup
    f = S.frobenius
    if Q.b <= f:
        raise NotInConductor(f"generator valuation {Q.b} must exceed the Frobenius number {f}")
    hard_cap = (Q.b + max(f, 0)) // S.multiplicity + 3
    for i in range(1, hard_cap + 1):
        T = max(Q.b, i * S.multiplicity) + max(f, 0) + 1
        V = span_generic(S, Q.field, T, [{e: Q.field.one} for e in S.conductor_generators])
        if not contained_in_power_sum_spans(V, i, Q):
            return i - 1
    raise BoundViolation(f"conductor containment for ({Q}) never failed up to i = {hard_cap}")


def check_search_envelope(S, records):
    """Every observed Goto number must lie between the stable value and the
    global bound.  Returns (stable, bound); raises BoundViolation on the
    first record outside."""
    lo, hi = stable_goto(S), bound_global(S)
    for rec in records:
        if not lo <= rec.goto <= hi:
            raise BoundViolation(
                f"record (b={rec.b}, g={rec.goto}) escapes [{lo}, {hi}]"
            )
    return lo, hi


def product_goto_numbers(Q1, Q2):
    """(g(Q1), g(Q2), g(Q1 Q2)), for the product inequality
    g(Q1 Q2) <= min(g(Q1), g(Q2)).  The generators are multiplied by
    ``element_product``; ``canonicalize`` drops the product's coefficients
    above b1 + b2 + f, which never change the product ideal."""
    product_ideal = canonicalize(element_product(Q1.generator(), Q2.generator()))
    return goto_number(Q1), goto_number(Q2), goto_number(product_ideal)
