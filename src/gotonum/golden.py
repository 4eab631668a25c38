"""The golden corpus: every externally known value the library must
reproduce, re-derived from scratch on each run.

Each check recomputes one published value (Frobenius numbers, Goto
numbers, bounds, duality values, stable values, pure-power formulas) and
compares it with the hard-coded expectation.  The CLI ``verify-paper``
subcommand prints one PASS/FAIL line per check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import bounds
from .colon import (
    colon_power,
    conductor_dual_goto,
    contained_in_power_sum,
    dual_goto,
    goto_monomial,
    goto_number,
    TruncatedSubspace,
)
from .explorer import SearchConfig, search, search_records
from .regular import (
    MonomialIdeal,
    pure_power_goto,
    pure_power_report,
)
from .ring import canonicalize, parse_element
from .semigroup import NumericalSemigroup, frobenius_two_generated


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: str
    actual: str

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


def _catalogue():
    """Yield (name, expected, thunk) triples in a fixed order."""
    cache = {}

    def sg(*gens):
        if gens not in cache:
            cache[gens] = NumericalSemigroup(list(gens))
        return cache[gens]

    def ideal(gens, text):
        S = sg(*gens)
        return canonicalize(parse_element(text, S))

    # semigroup invariants
    yield ("<4,7,9> frobenius", 10, lambda: sg(4, 7, 9).frobenius)
    yield ("<4,7,9> contains 10", False, lambda: sg(4, 7, 9).contains(10))
    yield (
        "<4,6,7,10> minimal generators",
        (4, 6, 7),
        lambda: sg(4, 6, 7, 10).generators,
    )
    yield ("<4,6,7> frobenius", 9, lambda: sg(4, 6, 7).frobenius)
    yield ("<5,11> frobenius", 39, lambda: sg(5, 11).frobenius)
    yield (
        "two-generator frobenius formula (5,11)",
        39,
        lambda: frobenius_two_generated(5, 11),
    )
    yield (
        "two-generator frobenius formula (9,19)",
        143,
        lambda: frobenius_two_generated(9, 19),
    )
    yield ("<9,19> frobenius", 143, lambda: sg(9, 19).frobenius)
    yield ("<9,19,21> frobenius", 71, lambda: sg(9, 19, 21).frobenius)
    yield ("<5,6,13> frobenius", 14, lambda: sg(5, 6, 13).frobenius)
    yield ("<7,9,20> frobenius", 33, lambda: sg(7, 9, 20).frobenius)
    yield (
        "<9,19,21> largest element below 21",
        19,
        lambda: sg(9, 19, 21).largest_below(21),
    )
    yield (
        "<9,19,21> largest element below 19",
        18,
        lambda: sg(9, 19, 21).largest_below(19),
    )
    yield (
        "<7,9,20> m-adic order of x^40",
        2,
        lambda: sg(7, 9, 20).madic_order(40),
    )
    yield (
        "<7,9,20> m-adic order of x^38",
        3,
        lambda: sg(7, 9, 20).madic_order(38),
    )
    # m^t lies in x^alpha R exactly when escape_order(alpha) < t
    yield (
        "<9,19> m^8 escapes every shift x^alpha",
        True,
        lambda: all(sg(9, 19).escape_order(alpha) >= 8 for alpha in range(1, 10)),
    )
    yield (
        "<7,9,20> stable value via power containment",
        3,
        lambda: sg(7, 9, 20).stable_goto_via_t(),
    )
    yield (
        "<7,9,20> stable value via escape orders",
        3,
        lambda: sg(7, 9, 20).stable_goto_via_t_prime(),
    )
    yield (
        "<9,19> stable value via power containment",
        8,
        lambda: sg(9, 19).stable_goto_via_t(),
    )
    yield (
        "<7,9,20> conductor order",
        2,
        lambda: sg(7, 9, 20).conductor_order(),
    )
    yield (
        "<7,9,20> conductor order below stable value",
        True,
        lambda: sg(7, 9, 20).conductor_order() < bounds.stable_goto(sg(7, 9, 20)),
    )
    yield ("<11,14,21> symmetric", True, lambda: sg(11, 14, 21).is_symmetric())
    yield ("<4,5,11> symmetric", False, lambda: sg(4, 5, 11).is_symmetric())

    # canonical forms and membership
    yield (
        "<5,11> canonical form of x^40+x^44",
        (40, ((4, Fraction(1)),)),
        lambda: (
            ideal((5, 11), "x^40+x^44").b,
            tuple(sorted(ideal((5, 11), "x^40+x^44").unit_coeffs.items())),
        ),
    )
    yield (
        "<4,7,9> canonical form of x^7+x^8+x^9",
        (7, ((1, Fraction(1)), (2, Fraction(1)))),
        lambda: (
            ideal((4, 7, 9), "x^7+x^8+x^9").b,
            tuple(sorted(ideal((4, 7, 9), "x^7+x^8+x^9").unit_coeffs.items())),
        ),
    )
    yield (
        "<3,5> x^9 in x^10 R",
        False,
        lambda: ideal((3, 5), "x^10").contains(parse_element("x^9", sg(3, 5))),
    )
    yield (
        "<3,5> x^9 integral over x^10 R",
        False,
        lambda: ideal((3, 5), "x^10").closure_contains(
            parse_element("x^9", sg(3, 5))
        ),
    )

    # colon subspaces
    yield (
        "<3,5> colon of x^10 R by m^3 reaches x^9",
        9,
        lambda: colon_power(ideal((3, 5), "x^10"), 3).min_valuation(),
    )
    yield (
        "<4,7,9> colon of (x^7+x^8+x^9) by m^3 stays integral",
        7,
        lambda: colon_power(ideal((4, 7, 9), "x^7+x^8+x^9"), 3).min_valuation(),
    )

    # Goto numbers
    yield ("<3,5> g(x^5)", 3, lambda: goto_number(ideal((3, 5), "x^5")))
    yield ("<3,5> g(x^10)", 2, lambda: goto_number(ideal((3, 5), "x^10")))
    yield ("<5,11> g(x^40)", 4, lambda: goto_number(ideal((5, 11), "x^40")))
    yield (
        "<5,11> g(x^40+x^44)",
        5,
        lambda: goto_number(ideal((5, 11), "x^40+x^44")),
    )
    yield (
        "<4,7,9> g(x^7+x^8+x^9)",
        3,
        lambda: goto_number(ideal((4, 7, 9), "x^7+x^8+x^9")),
    )
    yield (
        "<7,11,20> monomial Goto numbers at 7, 11, 20, 45",
        (4, 4, 5, 3),
        lambda: tuple(goto_monomial(sg(7, 11, 20), e) for e in (7, 11, 20, 45)),
    )
    yield (
        "<11,14,21> monomial Goto numbers at 11, 14, 21, 85",
        (6, 6, 7, 5),
        lambda: tuple(goto_monomial(sg(11, 14, 21), e) for e in (11, 14, 21, 85)),
    )
    yield (
        "<9,19,21> g(x^19), g(x^21), g(x^9)",
        (8, 6, 4),
        lambda: tuple(goto_monomial(sg(9, 19, 21), e) for e in (19, 21, 9)),
    )
    yield ("<9,19> g(x^152)", 9, lambda: goto_monomial(sg(9, 19), 152))
    yield ("<5,6,13> g(x^5)", 2, lambda: goto_monomial(sg(5, 6, 13), 5))
    yield ("<4,5,11> g(x^12)", 2, lambda: goto_number(ideal((4, 5, 11), "x^12")))

    # duality
    yield ("<3,5> duality value of x^5 R", 3, lambda: dual_goto(ideal((3, 5), "x^5")))
    yield (
        "<5,11> duality value of x^40 R",
        4,
        lambda: dual_goto(ideal((5, 11), "x^40")),
    )
    yield (
        "<5,11> duality value of (x^40+x^44) R",
        5,
        lambda: dual_goto(ideal((5, 11), "x^40+x^44")),
    )
    yield (
        "<5,11> conductor duality value of x^40 R",
        4,
        lambda: conductor_dual_goto(ideal((5, 11), "x^40")),
    )
    yield (
        "<4,5,11> conductor duality value of x^12 R",
        1,
        lambda: conductor_dual_goto(ideal((4, 5, 11), "x^12")),
    )

    def conductor_in_power_sum(gens, text, i):
        S = sg(*gens)
        Q = ideal(gens, text)
        one = Q.field.one
        V = TruncatedSubspace.span(
            S, Q.field, Q.truncation, [{e: one} for e in S.conductor_generators]
        )
        return contained_in_power_sum(V, i, Q)

    yield (
        "<4,5,11> conductor inside m^1 + x^12 R",
        True,
        lambda: conductor_in_power_sum((4, 5, 11), "x^12", 1),
    )
    yield (
        "<4,5,11> conductor inside m^2 + x^12 R",
        False,
        lambda: conductor_in_power_sum((4, 5, 11), "x^12", 2),
    )

    # bounds and formulas
    yield ("<4,6,7> global bound", 3, lambda: bounds.bound_global(sg(4, 6, 7)))
    yield (
        "<9,19,21> generator bound j=2",
        8,
        lambda: bounds.bound_monomial_generator(sg(9, 19, 21), 2),
    )
    yield (
        "<9,19,21> generator bound j=3",
        8,
        lambda: bounds.bound_monomial_generator(sg(9, 19, 21), 3),
    )
    yield (
        "<9,19,21> smallest-generator bound",
        4,
        lambda: bounds.bound_first_generator(sg(9, 19, 21)),
    )
    yield (
        "<5,6,13> smallest-generator bound",
        3,
        lambda: bounds.bound_first_generator(sg(5, 6, 13)),
    )
    yield ("<4,7,9> rho", 2, lambda: bounds.rho(sg(4, 7, 9)))
    yield ("<7,11,20> rho", 5, lambda: bounds.rho(sg(7, 11, 20)))
    yield ("<11,14,21> rho", 7, lambda: bounds.rho(sg(11, 14, 21)))
    yield ("<4,7,9> display bound", 3, lambda: bounds.bound_display_max(sg(4, 7, 9)))
    yield (
        "<9,19,21> display bound",
        8,
        lambda: bounds.bound_display_max(sg(9, 19, 21)),
    )
    yield ("<9,19> stable Goto number", 8, lambda: bounds.stable_goto(sg(9, 19)))
    yield ("<7,9,20> stable Goto number", 3, lambda: bounds.stable_goto(sg(7, 9, 20)))
    yield (
        "<7,11,20> stable Goto number",
        3,
        lambda: bounds.stable_goto(sg(7, 11, 20)),
    )

    # searches
    def exhaustive_467():
        res = search(SearchConfig(semigroup=sg(4, 6, 7)))
        return (res.min_goto, res.max_goto)

    yield ("<4,6,7> exhaustive 0/1 search min and max", (2, 2), exhaustive_467)

    def witness_479():
        S = sg(4, 7, 9)
        records = list(search_records(SearchConfig(semigroup=S, b_values=(7,))))
        top = max(rec.goto for rec in records)
        attaining = [rec.element_text(S) for rec in records if rec.goto == top]
        return (top, "x^7 + x^8 + x^9" in attaining)

    yield (
        "<4,7,9> search finds an ideal beating rho",
        (3, True),
        witness_479,
    )

    def witness_511():
        res = search(
            SearchConfig(semigroup=sg(5, 11), b_values=(40,), positions=(4,))
        )
        return (res.min_goto, res.max_goto)

    yield ("<5,11> search at valuation 40 reaches 5", (4, 5), witness_511)

    yield (
        "<3,5> product x^5 * x^5 drops the Goto number",
        (3, 2),
        lambda: (
            goto_number(ideal((3, 5), "x^5")),
            goto_number(ideal((3, 5), "x^10")),
        ),
    )

    # pure powers in a regular local ring
    yield (
        "pure powers (2,5,5): Goto number",
        5,
        lambda: pure_power_goto((2, 5, 5)),
    )
    yield (
        "pure powers (2,5,5): ratios",
        (Fraction(5, 2), Fraction(5, 2), Fraction(5, 2)),
        lambda: tuple(map(Fraction, pure_power_report((2, 5, 5))["ratios"])),
    )
    yield (
        "pure powers (2,3,3): colon by m^3 equals (x1^2) + m^3",
        True,
        lambda: MonomialIdeal.pure_powers((2, 3, 3)).colon_power_maximal(3)
        == MonomialIdeal(
            3,
            [(2, 0, 0), (1, 2, 0), (1, 1, 1), (1, 0, 2)]
            + [(0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3)],
        ),
    )
    yield ("pure powers (3,3): Goto number", 2, lambda: pure_power_goto((3, 3)))


def run_golden_checks():
    """Execute the corpus; returns the list of CheckResult in fixed order."""
    results = []
    for name, expected, thunk in _catalogue():
        try:
            actual = thunk()
        except Exception as exc:  # a crash is a failure, not an abort
            results.append(CheckResult(name, repr(expected), f"error: {exc!r}"))
            continue
        results.append(CheckResult(name, repr(expected), repr(actual)))
    return results
