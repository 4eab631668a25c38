import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from gotonum import bounds
from gotonum.bounds import (
    bound_display_max,
    bound_first_generator,
    bound_global,
    bound_monomial_generator,
    build_report,
    closed_form_two_generated,
    rho,
    stable_goto,
)
from gotonum.cli import main
from gotonum.colon import goto_monomial
from gotonum.errors import NotTwoGenerated
from gotonum.semigroup import NumericalSemigroup

from conftest import semigroup


class TestGlobalBound:
    def test_not_sharp_for_467(self):
        # the bound allows 3 but every Goto number there is 2
        assert bound_global(semigroup(4, 6, 7)) == 3

    def test_sharp_for_two_generated(self):
        S = semigroup(5, 11)
        assert bound_global(S) == 8
        assert goto_monomial(S, 11) == 8

    def test_smallest(self):
        assert bound_global(semigroup(2, 3)) == 1

    def test_two_generated_bound_is_second_closed_form(self):
        for a1, a2 in combinations(range(2, 31), 2):
            if gcd(a1, a2) != 1:
                continue
            S = semigroup(a1, a2)
            assert bound_global(S) == closed_form_two_generated(S)[1], (a1, a2)


class TestPerGeneratorBound:
    def test_strict_for_j3_in_91921(self):
        S = semigroup(9, 19, 21)
        assert bound_monomial_generator(S, 3) == 8
        assert goto_monomial(S, 21) == 6

    def test_sharp_for_j2_in_91921(self):
        S = semigroup(9, 19, 21)
        assert bound_monomial_generator(S, 2) == 8
        assert goto_monomial(S, 19) == 8

    def test_smallest(self):
        S = semigroup(2, 3)
        assert bound_monomial_generator(S, 2) == 1
        assert goto_monomial(S, 3) == 1

    def test_rejects_first_index(self):
        with pytest.raises(ValueError):
            bound_monomial_generator(semigroup(3, 5), 1)


class TestFirstGeneratorBound:
    def test_sharp_case(self):
        S = semigroup(9, 19, 21)
        assert bound_first_generator(S) == 4
        assert goto_monomial(S, 9) == 4

    def test_strict_case(self):
        S = semigroup(5, 6, 13)
        assert bound_first_generator(S) == 3
        assert goto_monomial(S, 5) == 2

    def test_smallest(self):
        assert bound_first_generator(semigroup(2, 3)) == 1


class TestTwoGeneratedClosedForm:
    def test_values(self):
        assert closed_form_two_generated(semigroup(9, 19)) == (8, 16)
        assert closed_form_two_generated(semigroup(3, 5)) == (2, 3)
        assert closed_form_two_generated(semigroup(2, 3)) == (1, 1)

    def test_rejects_three_generated(self):
        with pytest.raises(NotTwoGenerated):
            closed_form_two_generated(semigroup(4, 7, 9))

    def test_matches_engine_up_to_30(self):
        for a1, a2 in combinations(range(2, 31), 2):
            if gcd(a1, a2) != 1:
                continue
            S = semigroup(a1, a2)
            pair = closed_form_two_generated(S)
            assert pair[0] <= pair[1], (a1, a2)
            assert pair == (goto_monomial(S, a1), goto_monomial(S, a2)), (a1, a2)
            assert stable_goto(S) == a1 - 1, (a1, a2)


class TestStableGoto:
    def test_values(self):
        assert stable_goto(semigroup(9, 19)) == 8
        assert stable_goto(semigroup(7, 9, 20)) == 3
        assert stable_goto(semigroup(7, 11, 20)) == 3

    def test_threshold_sharp_for_9_19(self):
        # one step below the stable range the value is still 9
        assert goto_monomial(semigroup(9, 19), 152) == 9

    def test_strict_below_generator_minimum_for_d3(self):
        S = semigroup(7, 11, 20)
        assert stable_goto(S) < min(goto_monomial(S, a) for a in S.generators)

    def test_regular(self):
        assert stable_goto(semigroup(1)) == 0

    def test_one_route(self, monkeypatch):
        # the monomial and power routes are test oracles, not runtime checks
        def refuse(*args):
            raise AssertionError("stable_goto ran a second route")

        monkeypatch.setattr(NumericalSemigroup, "stable_goto_via_t", refuse)
        monkeypatch.setattr(bounds, "goto_monomial", refuse)
        assert stable_goto(NumericalSemigroup([9, 19])) == 8
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["info", "9", "19"]) == 0
        assert json.loads(buf.getvalue())["stable_goto"] == 8


class TestRho:
    def test_values(self):
        assert rho(semigroup(4, 7, 9)) == 2
        assert rho(semigroup(7, 11, 20)) == 5
        assert rho(semigroup(11, 14, 21)) == 7

    def test_dominates_every_monomial(self, named_semigroups):
        for S in named_semigroups:
            r = rho(S)
            for e in S.members(1, S.frobenius + 3 * S.multiplicity):
                assert goto_monomial(S, e) <= r, (S.generators, e)


class TestDisplayMax:
    def test_values(self):
        assert bound_display_max(semigroup(4, 7, 9)) == 3
        assert bound_display_max(semigroup(9, 19, 21)) == 8
        assert bound_display_max(semigroup(2, 3)) == 1

    def test_sandwich_over_family(self, family):
        for S in family:
            value = bound_display_max(S)
            assert rho(S) <= value, S.generators
            assert Fraction(value) <= 1 + Fraction(S.frobenius, S.multiplicity)


class TestBoundReport:
    # build_report returns the JSON payload itself: integer keys as
    # strings, the pair as a list, the slacks last
    def test_report_structure_and_slacks(self):
        report = build_report(semigroup(4, 7, 9))
        assert list(report) == [
            "schema", "generators", "frobenius", "global_bound",
            "generator_bounds", "first_generator_bound", "two_generated_pair",
            "display_max", "stable_goto", "rho", "conductor_order",
            "monomial_gotos", "slacks",
        ]
        assert report["schema"] == 1
        assert report["generators"] == [4, 7, 9]
        assert report["frobenius"] == 10
        assert report["rho"] == 2
        assert report["display_max"] == 3
        assert report["two_generated_pair"] is None
        assert report["generator_bounds"] == {"7": 3, "9": 2}
        assert report["monomial_gotos"] == {"4": 2, "7": 2, "9": 2}
        assert report["slacks"] == {
            "global_vs_rho": 1, "first_generator": 0, "display_vs_rho": 1,
            "stable_vs_conductor_order": 0, "generator_7": 1, "generator_9": 0,
        }

    def test_two_generated_report(self):
        report = build_report(semigroup(5, 11))
        assert report["two_generated_pair"] == [4, 8]
        assert report["global_bound"] == 8
        assert report["stable_goto"] == 4

    def test_json_field_order_stable(self):
        a = json.dumps(build_report(semigroup(4, 7, 9)))
        b = json.dumps(build_report(semigroup(4, 7, 9)))
        assert a == b

    def test_report_is_what_bounds_prints(self, named_semigroups):
        for S in named_semigroups:
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert main(["bounds", *map(str, S.generators)]) == 0
            assert buf.getvalue() == json.dumps(build_report(S), indent=2) + "\n"
