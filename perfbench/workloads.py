"""Seeded op lists for the four benchmark workloads.

An op is one ``gotonum`` CLI invocation (its argv) plus the facts the
correctness checks need about its input.  Everything here is computed
with the benchmark's own small semigroup helpers, never with the library
under test, so generating inputs costs the same on every commit.

A pass is a fixed number of ops drawn from ``random.Random(f"{workload}:
{seed}:{pass}")``: the same seed always gives the same passes.  Inside a
pass the size parameter that drives an op's cost is drawn stratified
(one draw per equal-width slice of its range, in shuffled order), so two
seeds give passes of nearly the same total cost and the run-to-run
spread measures the program, not the luck of the draw.  The search and
rlr classes are small enough to run whole: a pass of either is all of
it, and the seed sets the order (and, on rlr, the order of each vector's
exponents).
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heappop, heappush
from itertools import combinations, combinations_with_replacement
from math import exp, gcd, log

FP_LABEL = "fp:2147483647"
OPS_PER_PASS = 100   # enough for a p90 latency with ten ops beyond it


@dataclass(frozen=True)
class Op:
    argv: tuple          # the CLI arguments after ``gotonum``
    kind: str            # op class, used to stratify and to pick checks
    meta: dict = field(default_factory=dict, compare=False, hash=False)


# -- semigroup helpers, independent of the library -----------------------


def apery(gens):
    """Smallest member of each residue class mod a_1 (shortest paths)."""
    m = gens[0]
    w = [None] * m
    w[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heappop(heap)
        if d > w[r]:
            continue
        for a in gens[1:]:
            nd, nr = d + a, (r + a) % m
            if w[nr] is None or nd < w[nr]:
                w[nr] = nd
                heappush(heap, (nd, nr))
    return w


class Semigroup:
    """Membership, Frobenius number and symmetry from the Apéry set."""

    def __init__(self, gens):
        self.gens = list(gens)
        self.m = gens[0]
        self.w = apery(self.gens)
        self.f = max(self.w) - self.m

    def __contains__(self, e):
        return e >= 0 and e >= self.w[e % self.m]

    def minimal(self):
        """No generator is another generator plus a member."""
        return all(a - c not in self for a in self.gens for c in self.gens if c < a)

    def symmetric(self):
        # G is symmetric iff it has (f + 1) / 2 gaps; Selmer counts them
        return 2 * sum(x // self.m for x in self.w) == self.f + 1

    def positions(self, b):
        """Tail positions i in [1, f] with b + i in G."""
        return [i for i in range(1, self.f + 1) if b + i in self]


def _stratified(rng, lo, hi, n):
    """n values in [lo, hi], one uniform draw per equal slice, shuffled."""
    width = (hi - lo) / n
    values = [lo + width * (i + rng.random()) for i in range(n)]
    rng.shuffle(values)
    return values


# -- search: canonical-form enumeration at one valuation -----------------

# numbers k of admissible tail positions in the search class; a search at
# --b b enumerates 2^k forms, so k sets the op's cost
SEARCH_K = (5, 6, 7)


def _search_population():
    """Every (semigroup, b) of the search class (multiplicity 3-5, at most
    four generators, 5 <= f <= 13), keyed by the number k of tail positions
    at b and ordered by b + f, the width of its systems."""
    by_k = {}
    for m in range(3, 6):
        for r in (1, 2, 3):
            for extra in combinations(range(m + 1, m + 14), r):
                if gcd(m, *extra) != 1:
                    continue
                S = Semigroup([m, *extra])
                if not 5 <= S.f <= 13 or not S.minimal():
                    continue
                for b in range(m, S.f + m + 2):
                    if b in S:
                        by_k.setdefault(len(S.positions(b)), []).append((S, b))
    for pairs in by_k.values():
        pairs.sort(key=lambda sb: (sb[1] + sb[0].f, sb[0].gens, sb[1]))
    return by_k


def _search_pass(rng, by_k):
    """Every (G, b) of the search class with k in SEARCH_K, in seeded order.

    Drawing part of so small a class made the cost of a pass depend on the
    draw by about a tenth, as much as the host's own noise."""
    ops = []
    for k in SEARCH_K:
        for S, b in by_k[k]:
            argv = ("search", *map(str, S.gens), "--b", str(b))
            ops.append(Op(argv, "search", {"gens": S.gens, "f": S.f, "b": b, "forms": 2 ** k}))
    rng.shuffle(ops)
    return ops


# -- goto: one wide system per op, no repeats ----------------------------

GOTO_MULT = (7, 13)
GOTO_F = (30, 90)
GOTO_TERMS = 4       # most tail terms of an ideal
DUAL_TERMS = 3       # most tail terms of a --dual ideal


def _goto_pool(rng, size=300):
    """Semigroups with multiplicity in GOTO_MULT, one to three more minimal
    generators below 3 * 13 above it, and f in GOTO_F."""
    out = []
    while len(out) < size:
        m = rng.randint(*GOTO_MULT)
        gens = sorted({m, *rng.sample(range(m + 1, m + 40), rng.randint(1, 3))})
        if gcd(*gens) != 1:
            continue
        S = Semigroup(gens)
        if GOTO_F[0] <= S.f <= GOTO_F[1] and S.minimal():
            out.append(S)
    return sorted(out, key=lambda S: (S.f, S.gens))


def _coefficient(rng):
    if rng.random() < 0.5:
        value = Fraction(rng.choice((1, 2, 3, 5, 7)), rng.choice((2, 3, 5, 7)))
    else:
        value = Fraction(rng.randint(1, 5))
    return -value if rng.random() < 0.5 else value


def _term(coef, e):
    sign = "-" if coef < 0 else "+"
    mag = abs(coef)
    return f"{sign}x^{e}" if mag == 1 else f"{sign}{mag}*x^{e}"


def _nearest(rng, pool, target):
    """A random one of the three semigroups whose f is closest to target;
    pool is sorted by f."""
    i = bisect([S.f for S in pool], target)
    window = pool[max(i - 3, 0):i + 3]
    return rng.choice(sorted(window, key=lambda S: abs(S.f - target))[:3])


def _goto_pass(rng, pool, seen):
    """A fifth of the ops --dual, a quarter of each kind over F_p; within
    each kind the target f, the valuation depth and the number of tail
    terms are stratified, so every pass holds the same mix of wide and
    narrow, shallow and deep, short and long ideals.

    Dual ops get at most DUAL_TERMS tail terms: over Q, four-term duals
    with f near 90 took up to 2 s, a whole pass's worth, so which passes
    drew them set the pass time more than the program did."""
    n = OPS_PER_PASS
    symmetric = [S for S in pool if S.symmetric()]
    slots = []
    for kind, count in (("dual", n // 5), ("plain", n - n // 5)):
        most = DUAL_TERMS if kind == "dual" else GOTO_TERMS
        terms = [1 + i % most for i in range(count)]
        fp = [i < count // 4 for i in range(count)]
        rng.shuffle(terms)
        rng.shuffle(fp)
        slots += zip([kind] * count, _stratified(rng, *GOTO_F, count),
                     _stratified(rng, 0, 1, count), terms, fp)
    rng.shuffle(slots)
    ops = []
    for kind, target, depth, terms, fp in slots:
        dual = kind == "dual"
        while True:
            S = _nearest(rng, symmetric if dual else pool, target)
            valuations = [e for e in range(S.m, S.f + S.m + 1) if e in S]
            b = valuations[int(depth * len(valuations))]
            depth = rng.random()  # a retry draws a fresh valuation
            positions = S.positions(b)
            # duality needs Q strictly inside its closure: some gap i with b + i in G
            if not positions or (dual and all(i in S for i in positions)):
                continue
            picked = sorted(rng.sample(positions, min(len(positions), terms)))
            ideal = f"x^{b}" + "".join(_term(_coefficient(rng), b + i) for i in picked)
            argv = ("goto", *map(str, S.gens), "--ideal", ideal)
            if fp:
                argv += ("--field", FP_LABEL)
            if dual:
                argv += ("--dual",)
            if argv not in seen:
                break
        seen.add(argv)
        ops.append(Op(argv, kind, {"gens": S.gens, "f": S.f, "b": b}))
    return ops


# -- invariants: semigroup construction, orders, stable routes ------------

# info and bounds cost grows like a^3 (the stable_goto_via_t route), so a
# is drawn log-uniformly: most ops are small, the tail reaches a = 220
TWO_GEN_A = (30, 220)
THREE_GEN_MULT = (50, 150)
INVARIANT_SHARES = (("info", 30), ("bounds", 20), ("table", 50))


def _invariants_pass(rng):
    ops = []
    for kind, share in INVARIANT_SHARES:
        if kind != "table":
            for x in _stratified(rng, log(TWO_GEN_A[0]), log(TWO_GEN_A[1]), share):
                a = round(exp(x))
                ops.append(Op((kind, str(a), str(a + 1)), kind, {"gens": [a, a + 1]}))
            continue
        reaches = _stratified(rng, 0, 1, share)
        for m, reach in zip(_stratified(rng, *THREE_GEN_MULT, share), reaches):
            m = int(m)
            # a_3 < 2 a_1 keeps all three generators minimal
            while True:
                a2 = rng.randint(m + 1, 2 * m - 2)
                a3 = rng.randint(a2 + 1, 2 * m - 1)
                if gcd(m, a2, a3) == 1:
                    break
            gens = [m, a2, a3]
            f = Semigroup(gens).f
            top = 2 * m + int(reach * (min(f + m + 1, 8 * m) - 2 * m))
            argv = ("table", *map(str, gens), "--max", str(top))
            ops.append(Op(argv, kind, {"gens": gens, "f": f, "max": top}))
    rng.shuffle(ops)
    return ops


# -- rlr: pure-power ideals in a regular local ring -----------------------

# dimension -> (largest exponent, largest box volume prod n_i); the
# staircase cost grows with d and the volume, from ~5 ms at d = 3 to
# ~0.3 s at (4, 4, 4, 4, 4)
RLR_SHAPES = {3: (7, 343), 4: (7, 1000), 5: (5, 1024)}


def _rlr_candidates(d):
    """Sorted exponent vectors of dimension d within the limits, by volume."""
    top, volume = RLR_SHAPES[d]
    out = []
    for vec in combinations_with_replacement(range(2, top + 1), d):
        prod = 1
        for x in vec:
            prod *= x
        if prod <= volume:
            out.append((prod, vec))
    return [vec for _, vec in sorted(out)]


def _rlr_pass(rng):
    """Every exponent vector of RLR_SHAPES (213), each in seeded order.

    Drawing 100 of them made the median op of a run depend on the draw by
    about a twentieth, a third of the host's own noise."""
    ops = []
    for d in RLR_SHAPES:
        for vec in _rlr_candidates(d):
            exps = list(vec)
            rng.shuffle(exps)
            argv = ("rlr", "--pure-power", ",".join(map(str, exps)))
            ops.append(Op(argv, "rlr", {"exponents": exps}))
    rng.shuffle(ops)
    return ops


def generate(workload, seed, passes):
    """The op lists of the first ``passes`` passes of a workload.

    Pass p draws its ops from ``random.Random(f"{workload}:{seed}:{p}")``;
    the goto semigroups come from one fixed pool."""
    if workload == "search":
        by_k = _search_population()
        make = lambda rng: _search_pass(rng, by_k)
    elif workload == "goto":
        pool, seen = _goto_pool(random.Random("goto:pool")), set()
        make = lambda rng: _goto_pass(rng, pool, seen)
    elif workload == "invariants":
        make = _invariants_pass
    elif workload == "rlr":
        make = _rlr_pass
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [make(random.Random(f"{workload}:{seed}:{p}")) for p in range(passes)]
