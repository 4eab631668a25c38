"""Enumeration and search over parameter ideals.

Canonical forms x^b(1 + sum u_i x^i) are enumerated over a finite
coefficient set C; the resulting Goto numbers are exact for the chosen
field and coefficient set and say nothing about other coefficients.
``search`` enumerates at each valuation only the positions whose
coefficient can change the ideal, and weights each vector by |C|^|H|, H
the held positions it leaves out (its docstring has the proof).  The
integer normal unit of each vector, from one odometer that shares each
prefix's part of the sweep (``_normal_keys``), keys a memo, so the level
scan (``colon.goto_scan``) runs once per distinct ideal, straight from
its key.  Records are streamed: a search holds the distinct ideals of
one valuation, never one record per form.  ``SEARCH_CAP`` bounds the
work, counted before it is done: the vectors and the sweep's writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat

from .colon import goto_monomial, goto_scan
from .errors import SearchSpaceTooLarge
from .fields import RATIONALS, quote_int
from .ring import CanonicalIdeal, clear_step, integer_scale, integer_tail, sweep_levels

# most work one search may do: vectors enumerated and the sweep's writes (``_plan``)
SEARCH_CAP = 10_000_000


def monomial_table(S, e_max: int) -> dict:
    """Goto numbers of every monomial ideal x^e with e in G, 1 <= e <= e_max."""
    if e_max < S.multiplicity:
        raise ValueError(f"need e_max >= {quote_int(S.multiplicity)}, got {quote_int(e_max)}")
    return {e: goto_monomial(S, e) for e in S.members(1, e_max)}


@dataclass
class SearchConfig:
    """Enumeration space for a canonical-form search.

    coefficients must contain 0 (absent positions); positions, when given,
    restricts which tail indices i in [1, f] may carry a nonzero
    coefficient.  Enumeration order is lexicographic in (b, coefficient
    vector).
    """

    semigroup: object
    field: object = RATIONALS
    coefficients: tuple = (0, 1)
    b_values: tuple | None = None
    positions: tuple | None = None

    def __post_init__(self):
        fld = self.field
        coerced = [fld.of(c) for c in self.coefficients]
        seen = dict.fromkeys(coerced)
        if fld.zero not in seen:
            raise ValueError("coefficient set must contain 0")
        self.coefficients = tuple(sorted(seen))
        S = self.semigroup
        S.check_frobenius_limit("searches")
        if self.b_values is None:
            hi = S.frobenius + S.multiplicity + 1
            self.b_values = tuple(S.members(1, hi))
        else:
            self.b_values = tuple(sorted(set(self.b_values)))
            for b in self.b_values:
                if b < 1 or not S.contains(b):
                    raise ValueError(f"b = {quote_int(b)} is not a valid valuation")
        if self.positions is not None:
            self.positions = tuple(sorted(set(self.positions)))
            f = S.frobenius
            outside = [i for i in self.positions if not 1 <= i <= f]
            if outside:
                listed = ", ".join(map(quote_int, outside))
                raise ValueError(f"tail positions [{listed}] outside [1, {quote_int(f)}]")

    def admissible_positions(self, b: int) -> tuple:
        S = self.semigroup
        candidates = range(1, S.frobenius + 1) if self.positions is None else self.positions
        return tuple(i for i in candidates if S.contains(b + i))


@dataclass(frozen=True)
class SearchRecord:
    b: int
    coeffs: tuple      # ((position, scalar), ...) for the nonzero tail
    goto: int

    def ideal(self, semigroup, field=RATIONALS) -> CanonicalIdeal:
        return CanonicalIdeal(semigroup, self.b, dict(self.coeffs), field)

    def element_text(self, semigroup, field=RATIONALS) -> str:
        return str(self.ideal(semigroup, field).generator())


@dataclass
class SearchResult:
    """How many forms took each Goto number, and the first form in
    enumeration order to take it; exact for the configured field and
    coefficient set only."""

    config: SearchConfig
    value_counts: dict     # g -> number of forms
    witnesses: dict        # g -> first record

    @property
    def count(self) -> int:
        return sum(self.value_counts.values())

    @property
    def min_goto(self) -> int | None:
        return min(self.value_counts, default=None)

    @property
    def max_goto(self) -> int | None:
        return max(self.value_counts, default=None)

    def to_json(self) -> dict:
        S, fld = self.config.semigroup, self.config.field
        return {
            "schema": 1,
            "generators": list(S.generators),
            "field": fld.label,
            "coefficients": [str(c) for c in self.config.coefficients],
            "count": self.count,
            "min_goto": self.min_goto,
            "max_goto": self.max_goto,
            "value_counts": {str(g): n for g, n in sorted(self.value_counts.items())},
            "witnesses": {
                str(g): rec.element_text(S, fld) for g, rec in sorted(self.witnesses.items())
            },
        }


def _held_positions(S, positions):
    """The positions of A = ``positions`` in T (``search``): j is outside
    T when a sum of gaps of A takes it to a gap of S, so the j outside T
    are the gaps of S shifted down by those sums, as bitsets."""
    f = S.frobenius
    outside = S.gap_bits()
    for a in positions:
        if not S.contains(a):
            step = a  # shifting by a, 2a, 4a, ... shifts by every multiple of a
            while step <= f:
                outside |= outside >> step
                step <<= 1
    bits = bin(outside | 2 << f)[:1:-1]  # bits[j] == "1" iff j is outside T
    return tuple(j for j in positions if bits[j] == "0")


def _normal_keys(S, p, positions, images):
    """(vector, normal unit) for every form on the ascending ``positions``,
    in product order: digit k at position e puts images[k][e] there, and
    the unit is {0: 1, **normal tail} (``normal_tail``) as ascending pairs.

    An odometer over the positions keeps the sweep's state (W, P) after
    each level (``clear_step``).  Level d reads only the digits up to d,
    so when digit d changes only the levels from d on are recomputed."""
    f, n = S.frobenius, len(positions)
    if not n:
        yield (), ((0, 1),)
        return
    levels = list(sweep_levels(S, positions))
    states = [({0: 1}, {0: 1})] * n
    digits = [0] * n
    e, clear, keep = levels[-1]
    last = [image[e] for image in images]
    d = 0
    while d >= 0:
        for level in range(d, n - 1):
            e_d, clear_d, keep_d = levels[level]
            W, P = states[level]
            states[level + 1] = clear_step(W, P, e_d, images[digits[level]][e_d], clear_d, keep_d, f, p)
        W, P = states[-1]
        prefix = tuple(digits[:-1])
        for k, s in enumerate(last):
            yield (*prefix, k), tuple(sorted(clear_step(W, P, e, s, clear, keep, f, p)[0].items()))
        d = n - 2
        while d >= 0 and digits[d] == len(images) - 1:
            digits[d] = 0
            d -= 1
        if d >= 0:
            digits[d] += 1


def _search_one_b(config, b, positions):
    """Yield (vector, goto) for every form on ``positions`` at b, the
    vector indexing the coefficient set, in product order.

    Where the conductor lemma decides every ideal of valuation b, each
    form gets the floor g(x^b) and nothing else is built.  Elsewhere the
    integer images of the coefficients (one D for the whole set over Q,
    see ``integer_tail``) give each form's integer normal unit, which
    keys the memo: a miss scans the key as the ideal's unit
    (``goto_scan``), and the unit 1, the monomial x^b, takes the floor."""
    S, fld, coeffs = config.semigroup, config.field, config.coefficients
    floor, settled = S.monomial_floor(b)
    if settled:
        yield from zip(product(range(len(coeffs)), repeat=len(positions)), repeat(floor))
        return
    p, D = fld.p, integer_scale(fld, coeffs)
    images = [integer_tail(dict.fromkeys(positions, c), p, D) for c in coeffs]
    memo = {((0, 1),): floor}
    for vector, key in _normal_keys(S, p, positions, images):
        goto = memo.get(key)
        if goto is None:
            goto = memo[key] = goto_scan(S, b, p, dict(key))
        yield vector, goto


def _check_cap(work):
    if work > SEARCH_CAP:
        raise SearchSpaceTooLarge(f"enumeration would exceed {SEARCH_CAP} ideals")


def _sweep_work(S, positions, m, budget):
    """A bound on the work of ``_normal_keys`` over ``positions`` with m
    coefficients, counted until it passes ``budget``: one per vector, and
    for level d, which runs m^d times, its clear positions and the pairs
    (i, j) below.

    At level d, W and P live on Y, {0} and the sums of e_1, ..., e_d, up
    to f.  The level writes s x^e P at e + j, and a clearing at i (in Y,
    as W_i is nonzero) writes W and P at i + j, for j in Y with
    i + j <= f: each pair (i, j) stands for at most one write to W and
    one to P.  The pairs grow as f^2 where the levels clear many
    positions, so a few vectors at large f can be refused (``_plan``)."""
    f = S.frobenius
    work, sums, mask = m ** len(positions), 1, (2 << f) - 1
    for d, (e, clear, _) in enumerate(sweep_levels(S, positions), 1):
        if work > budget:
            break
        step = e  # adding e, 2e, 4e, ... adds every multiple of e up to f
        while step <= f:
            sums = (sums | sums << step) & mask
            step <<= 1
        bits = bin(sums | 2 << f)[:1:-1]  # bits[j] == "1" iff j in Y
        writers = [e, *(i for i in clear if bits[i] == "1")]
        pairs = below = start = 0
        for i in reversed(writers):  # |Y up to f - i|, by ascending f - i
            below += bits.count("1", start, f - i + 1)
            start = f - i + 1
            pairs += below
        work += m**d * (len(clear) + pairs)
    return work


def _plan(config, hold):
    """(b, enumerated positions, held positions) per valuation, refused
    up front past ``SEARCH_CAP``; with ``hold``, the held positions of
    ``search``, else none.

    The cap counts the work, each part before it is done: f for a
    valuation's own walks over [1, f], then |C|^(gaps of A), a lower
    bound on the vectors, before T is swept, then the sweep's bound
    (``_sweep_work``), or the |C|^|A| forms where b is decided."""
    S, m = config.semigroup, len(config.coefficients)
    plan, total = [], 0
    for b in config.b_values:
        total += S.frobenius
        _check_cap(total)
        positions = config.admissible_positions(b)
        settled = S.monomial_floor(b)[1]
        if not hold:
            held = ()
        elif settled:
            held = positions
        else:
            _check_cap(total + m ** sum(not S.contains(i) for i in positions))
            held = _held_positions(S, positions)
        kept = set(held)
        free = tuple(i for i in positions if i not in kept)
        if settled:
            total += m ** len(free)
        else:
            total += _sweep_work(S, free, m, SEARCH_CAP - total)
        _check_cap(total)
        plan.append((b, free, held))
    return plan


def _record(config, b, free, held, vector, goto):
    """The form with these digits on ``free`` and C[0] at every held
    position, the first of its fiber in enumeration order."""
    coeffs, zero = config.coefficients, config.field.zero
    tail = [(i, coeffs[k]) for i, k in zip(free, vector) if coeffs[k] != zero]
    if coeffs[0] != zero:
        tail += [(i, coeffs[0]) for i in held]
    return SearchRecord(b, tuple(sorted(tail)), goto)


def search_records(config: SearchConfig):
    """Every configured form's record, in enumeration order; all count toward the cap."""
    plan = _plan(config, hold=False)
    return (
        _record(config, b, free, (), vector, goto)
        for b, free, _ in plan
        for vector, goto in _search_one_b(config, b, free)
    )


def search(config: SearchConfig) -> SearchResult:
    """Count the Goto numbers of the configured forms, with the first witness
    of each.

    Only the admissible positions A whose coefficient can change the
    ideal are enumerated.  The others, H, are held: all of A where the
    conductor lemma decides b, else A and T, T the j in G with j + <A>
    in G or above f, <A> the nonempty sums of positions in A.
      - A held coefficient cannot change the ideal: for j in T,
        u + c x^j = u (1 + c x^j u^(-1)), and u^(-1) lives on {0} and
        <A>, so x^j u^(-1) lies in R (its terms above f in the
        conductor) and the second factor is an R-unit.  Changing held
        coefficients one at a time keeps the support in A, so the forms
        that agree off H are one ideal.
      - T by a sweep down from f (``_held_positions``): <A> is A plus
        A + <A>, so j is in T iff j is in G and j + a is in T or above f
        for each a in A; T + G lies in T, so only the gaps of A are
        tested.  Unrolled: j is outside T iff j plus a sum of gaps of A
        (or none) is a gap of S, so T comes from the gap bitset by shifts.
    Each vector stands for the |C|^|H| forms that fill H, and its witness
    fills H with C[0], the first of those forms in enumeration order.
    The cap counts the enumerated vectors and the sweep's work, never
    the held forms (``_plan``)."""
    C = config.coefficients
    value_counts, witnesses = {}, {}
    for b, free, held in _plan(config, hold=True):
        weight = len(C) ** len(held)
        for vector, goto in _search_one_b(config, b, free):
            value_counts[goto] = value_counts.get(goto, 0) + weight
            if goto not in witnesses:
                witnesses[goto] = _record(config, b, free, held, vector, goto)
    return SearchResult(config, value_counts, witnesses)
