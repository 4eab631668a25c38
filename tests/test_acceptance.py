"""Acceptance suite: every external contract, each printing one
PASS/FAIL line.  All comparisons are exact integer or exact rational
equality, zero tolerance.

Criterion groups:
  1. golden corpus of known values, semigroup by semigroup;
  2. property suites over the full two- and three-generated family with
     largest generator at most 25 (plus coprime pairs up to 30);
  3. the pure-power grid in regular local rings, 2 <= d <= 5, e <= n <= 6;
  4. byte-identical reruns of the verification command and of a search.
"""

import io
from contextlib import redirect_stdout
from itertools import combinations
from math import gcd

import oracles
from gotonum.bounds import (
    bound_display_max,
    bound_first_generator,
    bound_global,
    bound_monomial_generator,
    closed_form_two_generated,
    rho,
    stable_goto,
)
from gotonum.cli import main as cli_main
from gotonum.colon import (
    conductor_dual_goto,
    dual_goto,
    goto_monomial,
    goto_number,
)
from gotonum.explorer import (
    SearchConfig,
    search,
    search_records,
)
from gotonum.regular import MonomialIdeal, pure_power_report
from gotonum.ring import CanonicalIdeal, canonicalize, parse_element

from conftest import semigroup, full_family


def report(name, ok):
    print(f"ACCEPT {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def ideal(gens, text):
    return canonicalize(parse_element(text, semigroup(*gens)))


class TestGoldenCorpus:
    def test_3_5(self):
        ok = (
            goto_number(ideal((3, 5), "x^5")) == 3
            and goto_number(ideal((3, 5), "x^10")) == 2
        )
        report("<3,5> Goto numbers of x^5 and x^10", ok)

    def test_5_11(self):
        S = semigroup(5, 11)
        q40 = ideal((5, 11), "x^40")
        q44 = ideal((5, 11), "x^40+x^44")
        ok = (
            S.frobenius == 39
            and goto_number(q40) == 4
            and goto_number(q44) == 5
            and dual_goto(q40) == 4
            and dual_goto(q44) == 5
        )
        report("<5,11> conductor ideals and duality agreement", ok)

    def test_4_7_9(self):
        S = semigroup(4, 7, 9)
        ok = (
            S.frobenius == 10
            and rho(S) == 2
            and goto_number(ideal((4, 7, 9), "x^7+x^8+x^9")) == 3
            and bound_display_max(S) == 3
        )
        report("<4,7,9> rho, witness beyond rho, display bound", ok)

    def test_7_11_20(self):
        S = semigroup(7, 11, 20)
        got = [goto_monomial(S, e) for e in (7, 11, 20, 45)]
        report("<7,11,20> monomial table", got == [4, 4, 5, 3])

    def test_11_14_21(self):
        S = semigroup(11, 14, 21)
        got = [goto_monomial(S, e) for e in (11, 14, 21, 85)]
        report("<11,14,21> monomial table", got == [6, 6, 7, 5])

    def test_9_19_21(self):
        S = semigroup(9, 19, 21)
        ok = (
            S.frobenius == 71
            and goto_monomial(S, 19) == 8
            and goto_monomial(S, 21) == 6
            and bound_monomial_generator(S, 2) == 8
            and bound_monomial_generator(S, 3) == 8
            and bound_first_generator(S) == 4
            and goto_monomial(S, 9) == 4
        )
        report("<9,19,21> bounds against engine truth", ok)

    def test_5_6_13(self):
        S = semigroup(5, 6, 13)
        ok = (
            S.frobenius == 14
            and bound_first_generator(S) == 3
            and goto_monomial(S, 5) == 2
        )
        report("<5,6,13> strict smallest-generator bound", ok)

    def test_9_19(self):
        S = semigroup(9, 19)
        ok = (
            S.frobenius == 143
            and goto_monomial(S, 152) == 9
            and stable_goto(S) == 8
        )
        report("<9,19> sharp stability threshold", ok)

    def test_4_5_11(self):
        S = semigroup(4, 5, 11)
        Q = ideal((4, 5, 11), "x^12")
        ok = (
            goto_number(Q) == 2
            and conductor_dual_goto(Q) == 1
            and not S.is_symmetric()
        )
        report("<4,5,11> conductor duality fails without symmetry", ok)

    def test_4_6_7(self):
        S = semigroup(4, 6, 7)
        result = search(SearchConfig(semigroup=S))
        ok = (
            S.frobenius == 9
            and bound_global(S) == 3
            and result.min_goto == 2
            and result.max_goto == 2
        )
        report("<4,6,7> exhaustive 0/1 search pins every Goto number at 2", ok)

    def test_7_9_20(self):
        S = semigroup(7, 9, 20)
        ok = (
            S.frobenius == 33
            and S.madic_order(40) == 2
            and S.madic_order(38) == 3
            and stable_goto(S) == 3
            and S.conductor_order() == 2
        )
        report("<7,9,20> conductor order strictly below stable value", ok)


class TestPropertySuites:
    def test_oracle_equivalence_full_family(self):
        """Escape-order route vs. the literal pinned-coordinate scan, every
        monomial ideal with b <= f + 2*a_1, over the whole family."""
        mismatches = 0
        for S in full_family():
            for b in S.members(1, S.frobenius + 2 * S.multiplicity):
                if oracles.goto_monomial_literal(S, b) != goto_monomial(S, b):
                    mismatches += 1
        report("monomial oracle equivalence over the family", mismatches == 0)

    def test_closed_forms_coprime_pairs_to_30(self):
        bad = 0
        for a1, a2 in combinations(range(2, 31), 2):
            if gcd(a1, a2) != 1:
                continue
            S = semigroup(a1, a2)
            pair = closed_form_two_generated(S)
            if pair != (goto_monomial(S, a1), goto_monomial(S, a2)):
                bad += 1
            if pair[0] > pair[1]:
                bad += 1
            if bound_global(S) != pair[1]:
                bad += 1
            if stable_goto(S) != a1 - 1:
                bad += 1
        report("two-generated closed forms up to 30", bad == 0)

    def test_stable_triple_agreement(self):
        bad = 0
        for S in full_family():
            # goto_monomial returns the stable value past f + a_1, so the
            # monomial side comes from the literal scan
            stable = oracles.goto_monomial_literal(S, S.frobenius + S.multiplicity + 1)
            if not (
                stable
                == S.stable_goto_via_t()
                == S.stable_goto_via_t_prime()
                == stable_goto(S)
            ):
                bad += 1
        report("stable value triple agreement over the family", bad == 0)

    def test_search_runs_respect_envelope(self):
        """Global bound, stable minimality, product inequality, monomial
        lower bound, conductor order, on every computed ideal."""
        bad = 0
        runs = [
            ((4, 6, 7), {}),
            ((4, 7, 9), {"b_values": (7, 9)}),
            ((3, 5), {}),
            ((5, 11), {"b_values": (40,), "positions": (4, 9)}),
        ]
        for gens, kwargs in runs:
            S = semigroup(*gens)
            records = list(search_records(SearchConfig(semigroup=S, **kwargs)))
            hi = bound_global(S)
            lo = stable_goto(S)
            for rec in records:
                if not lo <= rec.goto <= hi:
                    bad += 1
            for rec in records:
                if rec.goto < goto_monomial(S, rec.b):
                    bad += 1
            sample = [records[0], records[-1]]
            pairs = [
                (r.ideal(S), CanonicalIdeal(S, S.multiplicity)) for r in sample
            ]
            for pair in pairs:
                g1, g2, g12 = oracles.product_goto_numbers(*pair)
                if g12 > min(g1, g2):
                    bad += 1
        for S in full_family():
            if S.conductor_order() > S.stable_goto_via_t_prime():
                bad += 1
        report("bound envelope on every search record", bad == 0)

    def test_stability_window_full_family(self):
        bad = 0
        for S in full_family():
            f, a1 = S.frobenius, S.multiplicity
            window = {
                oracles.goto_monomial_literal(S, e)
                for e in S.members(f + a1 + 1, f + 3 * a1)
            }
            if window != {goto_monomial(S, f + 3 * a1)}:
                bad += 1
        report("stability window constant over the family", bad == 0)


class TestRegularLocalGrid:
    def test_grid(self):
        """Formula, colon identity (on the staircase oracle), and orders
        over 2 <= d <= 5, 1 <= e <= n <= 6.  At e = n = 1 the ideal is the
        maximal ideal and the middle order is the excluded division-by-zero
        case; there the value and ratios must vanish instead."""
        bad = 0
        for d in range(2, 6):
            for n in range(1, 7):
                for e in range(1, n + 1):
                    exps = (e,) + (n,) * (d - 1)
                    want = (d - 2) * (n - 1) + e - 1
                    rep = pure_power_report(exps)
                    if rep["goto_number"] != want:
                        bad += 1
                    Q = MonomialIdeal.pure_powers(exps)
                    plus = MonomialIdeal(
                        d,
                        [tuple(e if k == 0 else 0 for k in range(d))]
                        + list(_degree_monomials(d, n)),
                    )
                    if oracles.staircase_colon(Q, want) != plus:
                        bad += 1
                    if exps == (1,) * d:
                        if rep["ratios"] != ["0"] * 3:
                            bad += 1
                    elif list(rep["orders"].values()) != [e, e, e]:
                        bad += 1
        report("pure-power grid: formula, colon identity, orders", bad == 0)


def _degree_monomials(d, n):
    if d == 1:
        return [(n,)]
    out = []
    for first in range(n + 1):
        for rest in _degree_monomials(d - 1, n - first):
            out.append((first,) + rest)
    return out


class TestDeterminism:
    def _capture(self, argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    def test_verify_paper_reruns_identical(self):
        code1, out1 = self._capture(["verify-paper"])
        code2, out2 = self._capture(["verify-paper"])
        ok = code1 == code2 == 0 and out1 == out2 and "FAIL" not in out1
        report("verify-paper passes and reruns byte-identical", ok)

    def test_fixed_search_reruns_identical(self):
        argv = ["search", "4", "7", "9", "--b", "7", "--format", "tsv"]
        _, out1 = self._capture(argv)
        _, out2 = self._capture(argv)
        report("fixed search reruns byte-identical", out1 == out2)
