"""Enumeration and search over parameter ideals.

Canonical forms x^b(1 + sum u_i x^i) are enumerated over a finite
coefficient set; the resulting Goto numbers are exact for the chosen
field and coefficient set and say nothing about other coefficients.
``search`` counts the |C|^k forms of a valuation the conductor lemma
decides in closed form; elsewhere the level scan (``colon.goto_scan``)
runs once per distinct ideal, straight from its memo key, the integer
normal tail.  Records are streamed: a search holds the distinct ideals of
one valuation, never one record per form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product

from .colon import goto_monomial, goto_scan
from .errors import SearchSpaceTooLarge
from .fields import RATIONALS, quote_int
from .ring import CanonicalIdeal, integer_scale, integer_tail, normal_tail

# most canonical forms one search may enumerate
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
        f = S.frobenius
        pos = [i for i in range(1, f + 1) if S.contains(b + i)]
        if self.positions is not None:
            allowed = set(self.positions)
            pos = [i for i in pos if i in allowed]
        return tuple(pos)


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


def _search_one_b(config, b):
    """Yield the records at valuation b, one Goto number per distinct ideal.

    Forms are enumerated as index vectors into the coefficient set.  Where
    the conductor lemma decides every ideal of valuation b, each form gets
    the floor g(x^b) and nothing else is built.  Elsewhere the integer
    images of the coefficients (one D for the whole set over Q, see
    ``integer_tail``) give each form's integer normal tail, which keys the
    memo: a miss scans the key as the ideal's unit (``goto_scan``), and the
    empty key, the monomial x^b, takes the floor."""
    S, fld, coeffs = config.semigroup, config.field, config.coefficients
    zero = coeffs.index(fld.zero)
    positions = config.admissible_positions(b)
    floor, settled = S.monomial_floor(b)
    if not settled:
        p, D = fld.p, integer_scale(fld, coeffs)
        scaled = [integer_tail(dict.fromkeys(positions, c), p, D) for c in coeffs]
        memo = {(): floor}
    for vector in product(range(len(coeffs)), repeat=len(positions)):
        tail = tuple((i, coeffs[k]) for i, k in zip(positions, vector) if k != zero)
        if settled:
            yield SearchRecord(b, tail, floor)
            continue
        key = normal_tail(S, {i: scaled[k][i] for i, k in zip(positions, vector) if k != zero}, p)
        goto = memo.get(key)
        if goto is None:
            goto = memo[key] = goto_scan(S, b, p, {0: 1, **dict(key)})
        yield SearchRecord(b, tail, goto)


def _check_cap(config, b_values):
    """Refuse more than ``SEARCH_CAP`` forms at these valuations, up front."""
    total = 0
    for b in b_values:
        total += len(config.coefficients) ** len(config.admissible_positions(b))
        if total > SEARCH_CAP:
            raise SearchSpaceTooLarge(f"enumeration would exceed {SEARCH_CAP} ideals")


def search_records(config: SearchConfig):
    """Every configured form's record, in enumeration order; all count toward the cap."""
    _check_cap(config, config.b_values)
    return chain.from_iterable(_search_one_b(config, b) for b in config.b_values)


def search(config: SearchConfig) -> SearchResult:
    """Count the Goto numbers of the configured forms, with the first witness
    of each.  At a valuation the conductor lemma decides, the |C|^k forms
    take the floor and the first, every position at C[0], is the witness;
    only the other valuations' forms are enumerated and count toward the cap."""
    S, C = config.semigroup, config.coefficients
    _check_cap(config, [b for b in config.b_values if not S.monomial_floor(b)[1]])
    value_counts, witnesses = {}, {}
    for b in config.b_values:
        floor, settled = S.monomial_floor(b)
        if settled:
            positions = config.admissible_positions(b)
            first = () if C[0] == config.field.zero else tuple((i, C[0]) for i in positions)
            records = [(len(C) ** len(positions), SearchRecord(b, first, floor))]
        else:
            records = ((1, rec) for rec in _search_one_b(config, b))
        for n, rec in records:
            value_counts[rec.goto] = value_counts.get(rec.goto, 0) + n
            witnesses.setdefault(rec.goto, rec)
    return SearchResult(config, value_counts, witnesses)
