import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gotonum
import oracles
from gotonum import cli
from gotonum.cli import main
from gotonum.semigroup import NumericalSemigroup


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_child(*argv, timeout):
    """``python -m gotonum argv`` in a child process on this checkout's src/."""
    src = str(Path(gotonum.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "gotonum", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


class TestInfo:
    def test_info_479(self):
        code, out = run_cli("info", "4", "7", "9")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["frobenius"] == 10
        assert payload["symmetric"] is False
        assert payload["stable_goto"] == 2

    def test_info_human_format(self):
        code, out = run_cli("info", "3", "5", "--format", "human")
        assert code == 0
        assert "frobenius: 7" in out

    def test_info_conductor_order_beyond_old_window(self):
        # the conductor's order used to be taken over [f+1, f+2*a_d] behind
        # an assert that failed on this semigroup
        code, out = run_cli("info", "100", "131", "177")
        assert code == 0
        assert json.loads(out)["conductor_order"] == 34

    def test_info_minimalizes(self):
        code, out = run_cli("info", "4", "6", "7", "10")
        assert code == 0
        assert json.loads(out)["generators"] == [4, 6, 7]


class TestGoto:
    def test_ideal_expression(self):
        code, out = run_cli("goto", "5", "11", "--ideal", "x^40+x^44")
        assert code == 0
        assert json.loads(out)["goto_number"] == 5

    def test_with_dual(self):
        code, out = run_cli("goto", "5", "11", "--ideal", "x^40+x^44", "--dual")
        payload = json.loads(out)
        assert payload["goto_number"] == payload["dual_goto"] == 5

    def test_monomial(self):
        code, out = run_cli("goto", "7", "11", "20", "--monomial", "45")
        assert code == 0
        assert json.loads(out)["goto_number"] == 3

    def test_prime_field(self):
        code, out = run_cli(
            "goto", "5", "11", "--ideal", "x^40+x^44", "--field", "fp:7"
        )
        assert code == 0
        assert json.loads(out)["goto_number"] == 5

    @pytest.mark.parametrize(
        "gens", [(3, 5), (4, 7, 9), (5, 11), (7, 11, 20), (9, 19, 21)]
    )
    def test_monomial_is_shorthand_for_the_ideal(self, gens):
        # --monomial m and --ideal x^m run one route and print one answer,
        # through the first valuations past the stable threshold f + a_1
        S = NumericalSemigroup(list(gens))
        g = [str(a) for a in gens]
        duals = ([], ["--dual"]) if S.is_symmetric() else ([],)
        for m in S.members(1, S.frobenius + 2 * S.multiplicity):
            for fmt, field, dual in product(("json", "human"), ("q", "fp:101"), duals):
                opts = ["--format", fmt, "--field", field, *dual]
                mono = run_captured(["goto", *g, "--monomial", str(m), *opts])
                assert mono == run_captured(["goto", *g, "--ideal", f"x^{m}", *opts])
                assert mono[0] == 0, (m, opts, mono)


class TestTable:
    def test_json(self):
        code, out = run_cli("table", "3", "5", "--max", "10")
        table = json.loads(out)["table"]
        assert table["5"] == 3
        assert table["10"] == 2

    def test_tsv(self):
        code, out = run_cli("table", "2", "3", "--max", "4", "--format", "tsv")
        assert code == 0
        assert out.splitlines() == ["e\tgoto", "2\t1", "3\t1", "4\t1"]


class TestSearch:
    def test_467(self):
        code, out = run_cli("search", "4", "6", "7")
        payload = json.loads(out)
        assert payload["min_goto"] == payload["max_goto"] == 2

    def test_restricted(self):
        code, out = run_cli(
            "search", "5", "11", "--b", "40", "--positions", "4"
        )
        payload = json.loads(out)
        assert payload["max_goto"] == 5
        assert payload["witnesses"]["5"] == "x^40 + x^44"

    def test_tsv_records(self):
        code, out = run_cli(
            "search", "3", "5", "--b", "5", "--positions", "3", "--format", "tsv"
        )
        lines = out.splitlines()
        assert lines[0] == "b\tcoeffs\tgoto"
        assert len(lines) == 3

    def test_cap_counts_only_enumerated_forms(self):
        # b = 45 > f + a_1 over <5,11> has 39 admissible positions: the
        # JSON count is 2^39 in closed form, while TSV, which writes every
        # form, is refused before its header
        code, out, err = run_captured(["search", "5", "11", "--b", "45"])
        payload = json.loads(out)
        assert (code, err) == (0, "")
        assert payload["count"] == 549755813888 == 2**39
        assert payload["value_counts"] == {"4": 549755813888}
        assert payload["witnesses"] == {"4": "x^45"}
        code, out, err = run_captured(["search", "5", "11", "--b", "45", "--format", "tsv"])
        assert (code, out) == (2, "")
        assert err == "error: enumeration would exceed 10000000 ideals\n"
        # b = 40 is undecided, so its 2^39 forms are refused in every format
        assert run_captured(["search", "5", "11", "--b", "40"])[0] == 2

    def test_cap_counts_only_enumerated_positions(self):
        # b = 4 over <4,17> is undecided with 26 admissible positions, but
        # 18 of them are held (their coefficients cannot change the ideal):
        # 2^8 vectors stand for 2^26 forms, while TSV writes every form
        proc = run_child("search", "4", "17", "--b", "4", timeout=10)
        assert (proc.returncode, proc.stderr) == (0, "")
        payload = json.loads(proc.stdout)
        assert payload["count"] == 67108864 == 2**26
        assert payload["value_counts"] == {"3": 67108864}
        assert payload["witnesses"] == {"3": "x^4"}
        proc = run_child("search", "4", "17", "--b", "4", "--format", "tsv", timeout=10)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: enumeration would exceed 10000000 ideals\n"
        # 602 positions at b = 4 over <4,401>, eight of them enumerated
        proc = run_child("search", "4", "401", "--b", "4", timeout=10)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["value_counts"] == {"3": 2**602}

    @pytest.mark.parametrize(
        "argv",
        [
            # 16 vectors, but a sweep that clears about f/3 positions over
            # dense units: O(f^2) work each
            ("search", "3", "1000001", "--b", "3"),
            ("search", "3", "30001", "--b", "3"),
            # two vectors per valuation, but 10^6 valuations, each
            # charged f for its walks over [1, f]
            ("search", "3", "1000001", "--positions", "1999999"),
        ],
    )
    def test_cap_counts_the_sweep(self, argv):
        # the cap charges the sweep's bound and each valuation's walks
        # before they run, so few vectors at large f are refused at once
        proc = run_child(*argv, timeout=10)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: enumeration would exceed 10000000 ideals\n"


class TestBoundsAndRlr:
    def test_bounds(self):
        code, out = run_cli("bounds", "4", "7", "9")
        payload = json.loads(out)
        assert payload["rho"] == 2
        assert payload["display_max"] == 3

    def test_rlr(self):
        code, out = run_cli("rlr", "--pure-power", "2,5,5")
        payload = json.loads(out)
        assert payload["goto_number"] == 5
        assert payload["ratios"] == ["5/2", "5/2", "5/2"]

    @pytest.mark.parametrize(
        "argv, want",
        [
            (
                ["rlr", "--pure-power", "2,5,5"],
                '{\n  "schema": 1,\n  "exponents": [\n    2,\n    5,\n    5\n  ],\n'
                '  "goto_number": 5,\n  "orders": {\n    "ideal": 2,\n    "colon_m": 2,\n'
                '    "colon_m_goto": 2\n  },\n  "ratios": [\n    "5/2",\n    "5/2",\n'
                '    "5/2"\n  ]\n}\n',
            ),
            (
                ["rlr", "--pure-power", "2,5,5", "--format", "human"],
                "schema: 1\nexponents: [2, 5, 5]\ngoto_number: 5\n"
                "orders: {'ideal': 2, 'colon_m': 2, 'colon_m_goto': 2}\n"
                "ratios: ['5/2', '5/2', '5/2']\n",
            ),
            (
                # the maximal ideal: g = 0, Q : m is the unit ideal
                ["rlr", "--pure-power", "1,1,1"],
                '{\n  "schema": 1,\n  "exponents": [\n    1,\n    1,\n    1\n  ],\n'
                '  "goto_number": 0,\n  "orders": {\n    "ideal": 1,\n    "colon_m": 0,\n'
                '    "colon_m_goto": 1\n  },\n  "ratios": [\n    "0",\n    "0",\n'
                '    "0"\n  ]\n}\n',
            ),
        ],
    )
    def test_rlr_prints_the_same_bytes(self, argv, want):
        assert run_cli(*argv) == (0, want)

    def test_rlr_large_exponents_answer_at_once(self):
        # closed forms: no staircase of 5000^4 or 2 * 10^6 points is built
        code, out = run_cli("rlr", "--pure-power", "5000,5000,5000,5000")
        assert code == 0
        assert json.loads(out)["goto_number"] == 14997
        code, out = run_cli("rlr", "--pure-power", "2,1000000")
        assert code == 0
        assert json.loads(out)["goto_number"] == 1

    def test_python_dash_m_matches_main(self):
        argv = ["rlr", "--pure-power", "2,5,5"]
        proc = run_child(*argv, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_cli(*argv)[1]


class TestDeepValuations:
    # past f + a_1 every Goto number is the stable value, read off escape
    # orders; a cost that grows with b again would hit the timeout here
    # instead of hanging the suite
    def run_child(self, *argv):
        proc = run_child(*argv, timeout=5)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_goto_ideal(self):
        payload = self.run_child("goto", "3", "5", "--ideal", "x^1000000+x^1000001")
        assert payload["goto_number"] == 2

    def test_goto_monomial(self):
        assert self.run_child("goto", "3", "5", "--monomial", "1000000")["goto_number"] == 2

    def test_search(self):
        payload = self.run_child("search", "3", "5", "--b", "100000")
        assert payload["count"] == 128
        assert payload["value_counts"] == {"2": 128}

    def test_search_decided_valuation_in_closed_form(self):
        # 2^23 forms at b = 30 > f + a_1, counted with none enumerated
        payload = self.run_child("search", "6", "7", "15", "--b", "30")
        assert payload["count"] == 8388608
        assert payload["value_counts"] == {"3": 8388608}
        assert payload["witnesses"] == {"3": "x^30"}

    def test_table(self):
        table = self.run_child("table", "3", "5", "--max", "20000")["table"]
        assert len(table) == 20000 - 4
        assert {g for e, g in table.items() if int(e) > 10} == {2}


GOTO_JSON = (
    '{\n  "schema": 1,\n  "generators": [\n    %d,\n    %d\n  ],\n'
    '  "ideal": "%s",\n  "goto_number": %d%s\n}\n'
)


class TestPinnedValues:
    # valuations f < b <= f + a_1 where g(Q) exceeds g(x^b) + 1, so no
    # closed form in g(x^b) covers the band; each value is checked against
    # an oracle that shares no code with gotonum.colon
    @pytest.mark.parametrize(
        "gens, text, tail, want, floor",
        [((3, 13), "x^25+x^26", {1: 1}, 5, 2), ((4, 15), "x^43+x^45", {2: 1}, 5, 3)],
    )
    def test_goto_above_the_conductor(self, gens, text, tail, want, floor):
        b = int(text[2:text.index("+")])
        a, c = map(str, gens)
        assert json.loads(run_cli("goto", a, c, "--ideal", text)[1])["goto_number"] == want
        assert json.loads(run_cli("goto", a, c, "--monomial", str(b))[1])["goto_number"] == floor
        assert oracles.goto_number_literal(gens, b, tail) == want
        assert oracles.goto_number_literal(gens, b, {}) == floor

    def test_goto_over_f2_from_the_definition(self):
        # x^6 + x^7 in <2,7> (f = 5) over F_2: g = 3 against g(x^6) = 1;
        # the colons are listed element by element over F_2
        code, out = run_cli("goto", "2", "7", "--ideal", "x^6+x^7", "--field", "fp:2")
        assert code == 0 and json.loads(out)["goto_number"] == 3
        colons, members = oracles.colon_sets_definition((2, 7), 6, {1: 1}, 2, 4)
        below = sum(e < 6 for e in members)
        drops = [g for g, colon in enumerate(colons) if any(any(r[:below]) for r in colon)]
        assert drops[0] - 1 == 3

    @pytest.mark.parametrize(
        "argv, want",
        [
            (
                ["goto", "60", "61", "--ideal", "x^1740+x^1741+3*x^1743", "--dual"],
                GOTO_JSON % (60, 61, "x^1740 + x^1741 + 3*x^1743", 59, ',\n  "dual_goto": 59'),
            ),
            (
                ["goto", "40", "41", "--ideal", "x^800+x^801+x^805", "--dual"],
                GOTO_JSON % (40, 41, "x^800 + x^801 + x^805", 39, ',\n  "dual_goto": 39'),
            ),
            (
                ["goto", "100", "101", "--ideal", "x^5000+x^5001+x^5003"],
                GOTO_JSON % (100, 101, "x^5000 + x^5001 + x^5003", 99, ""),
            ),
        ],
    )
    def test_wide_ideals_print_the_same_bytes(self, argv, want):
        assert run_cli(*argv) == (0, want)

    @pytest.mark.parametrize(
        "gens, argv, b, tail, want",
        [
            ((3, 7), ["--ideal", "x^9+x^14"], 9, {5: 1}, 3),
            ((3, 7), ["--monomial", "9"], 9, {}, 2),
            (
                (3, 7),
                ["--ideal", "x^9+x^10+x^13+x^14+x^17+x^20"],
                9,
                {1: 1, 4: 1, 5: 1, 8: 1, 11: 1},
                2,
            ),
            ((4, 9), ["--ideal", "x^12+x^18"], 12, {6: 1}, 4),
        ],
    )
    def test_goto_below_the_conductor(self, gens, argv, b, tail, want):
        # below f the full normal tail is not the maximum: x^9 + x^14 in
        # <3,7> (f = 11) gets 3, while x^9 and the tail on every gap i
        # with 9 + i in G get 2; x^12 + x^18 in <4,9> (f = 23) gets 4
        code, out = run_cli("goto", *map(str, gens), *argv)
        assert code == 0 and json.loads(out)["goto_number"] == want
        assert oracles.goto_number_literal(gens, b, tail) == want

    def test_monomial_ideal_with_a_wide_second_generator(self):
        # f = 6,199,996: the m-adic orders come from the labels of the 300
        # residue classes, with no table over [0, f]; the value is the
        # memory pin of tests/test_semigroup.py::TestOrderMemory
        code, out = run_cli("goto", "300", "100001", "200011", "--monomial", "300")
        assert (code, out) == (
            0,
            '{\n  "schema": 1,\n  "generators": [\n    300,\n    100001,\n    200011\n  ],\n'
            '  "ideal": "x^300",\n  "goto_number": 36\n}\n',
        )


class TestVerifyPaper:
    def test_passes_and_prints_lines(self):
        code, out = run_cli("verify-paper")
        assert code == 0
        lines = out.splitlines()
        passes = [l for l in lines if l.startswith("PASS ")]
        assert len(passes) >= 20
        assert not any(l.startswith("FAIL") for l in lines)
        # the corpus size is pinned: a check that drops out fails here
        assert lines[-1] == "68/68 checks passed"

class TestErrors:
    def test_bad_gcd_exits_two(self):
        code, _ = run_cli("info", "4", "6")
        assert code == 2

    def test_gap_exponent_exits_two(self):
        code, _ = run_cli("goto", "3", "5", "--ideal", "x^4")
        assert code == 2

    def test_dual_on_asymmetric_exits_two(self):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli("goto", "4", "5", "11", "--ideal", "x^12", "--dual")
        assert code == 2
        assert out == ""
        assert err.getvalue() == (
            "error: duality requires a symmetric semigroup, (4, 5, 11) is not\n"
        )

    def test_usage_error_exits_two(self):
        code, _ = run_cli("goto", "3", "5")
        assert code == 2

    def test_unknown_subcommand_exits_two(self):
        code, _ = run_cli("frobble")
        assert code == 2

    def test_search_position_outside_range_exits_two(self, capsys):
        # positions outside [1, f] used to be dropped without a word
        for extra in (["--positions", "100"], ["--positions", "0", "--positions", "-3"]):
            code, out = run_cli("search", "4", "6", "7", "--b", "8", *extra)
            assert code == 2 and out == ""
            assert "outside [1, 9]" in capsys.readouterr().err

    def test_malformed_pure_power_names_the_option(self, capsys):
        for value, part in (("2,,3", ""), ("2,x", "x")):
            code, out = run_cli("rlr", "--pure-power", value)
            assert code == 2 and out == ""
            assert capsys.readouterr().err == f"error: invalid --pure-power exponent {part!r}\n"

    def test_exponent_over_the_digit_limit_names_the_exponent(self, capsys):
        # int() refuses decimal strings over sys.get_int_max_str_digits();
        # the message names the exponent and the limit, not that hook
        code, out = run_cli("goto", "3", "5", "--ideal", "x^" + "1" * 5000)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: exponent 1111111111111111... ")
        assert "5000 digits" in err and f"{sys.get_int_max_str_digits()}-digit limit" in err
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize(
        "argv, head, digits",
        [
            (["search", "3", "5", "--b", "5", "--coeffs", "0," + "1" * 5000],
             "error: rational coefficient 1111111111111111... ", 5000),
            (["search", "3", "5", "--b", "5", "--coeffs", "0," + "1" * 5000, "--field", "fp:7"],
             "error: coefficient over F_7 1111111111111111... ", 5000),
            (["search", "3", "5", "--b", "5", "--field", "fp:" + "7" * 5000],
             "error: field prime 7777777777777777... ", 5000),
            (["goto", "3", "5", "--ideal", "1" * 5000 + "*x^5"],
             "error: rational coefficient 1111111111111111... ", 5000),
            # the denominator's digit run counts too, and TSV writes no header
            (["search", "3", "5", "--b", "5", "--coeffs", "0,1/" + "1" * 5000],
             "error: rational coefficient 1/11111111111111... ", 5000),
            (["search", "3", "5", "--b", "5", "--coeffs", "0,1/" + "1" * 5000, "--format", "tsv"],
             "error: rational coefficient 1/11111111111111... ", 5000),
            (["search", "3", "5", "--b", "5", "--coeffs", "0,-" + "1" * 5000, "--field", "fp:7"],
             "error: coefficient over F_7 -111111111111111... ", 5000),
            # integer options: argparse's usage line, then the limit
            (["search", "3", "5", "--b", "1" * 5000],
             "gotonum search: error: argument --b: integer 1111111111111111... ", 5000),
            (["search", "3", "5", "--positions", "1" * 5000],
             "gotonum search: error: argument --positions: integer 1111111111111111... ", 5000),
            (["info", "3", "1" * 5000],
             "gotonum info: error: argument generators: integer 1111111111111111... ", 5000),
            (["table", "3", "5", "--max", "1" * 5000],
             "gotonum table: error: argument --max: integer 1111111111111111... ", 5000),
            (["goto", "3", "5", "--monomial", "1" * 5000],
             "gotonum goto: error: argument --monomial: integer 1111111111111111... ", 5000),
            (["rlr", "--pure-power", "2," + "1" * 5000],
             "error: --pure-power exponent 1111111111111111... ", 5000),
        ],
    )
    def test_number_over_the_digit_limit_is_not_called_invalid(self, capsys, argv, head, digits):
        # a well-formed number past sys.get_int_max_str_digits() gets the
        # limit and a truncated echo, not "invalid" and all its digits
        code, out = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        usage, _, last = err.rpartition("\n")[0].rpartition("\n")
        assert last + "\n" == head + (
            f"has {digits} digits, over the {sys.get_int_max_str_digits()}-digit limit\n"
        )
        assert usage.startswith("usage: gotonum ") if head.startswith("gotonum ") else usage == ""
        assert "1" * 17 not in err and "7" * 17 not in err

    @pytest.mark.parametrize(
        "m, message",
        [
            ("0", "generator of valuation 0 is a unit"),
            ("-5", "valuation -5 is not in the semigroup (3, 5)"),
            ("7", "valuation 7 is not in the semigroup (3, 5)"),
        ],
    )
    def test_invalid_monomial_names_the_valuation(self, capsys, m, message):
        # --monomial m builds the ideal x^m R, whose constructor names m
        code, out = run_cli("goto", "3", "5", "--monomial", m)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"



    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["goto", "3", "5", "--monomial=-" + "2" * 4000],
                "valuation -222222222222222... is not in the semigroup (3, 5)",
            ),
            (["info", "4", "2" * 4000], "gcd of generators [4, 2222222222222222...] is 2, not 1"),
            (
                ["search", "3", "5", "--b", "5", "--positions=-" + "2" * 4000],
                "tail positions [-222222222222222...] outside [1, 7]",
            ),
            (["table", "3", "5", "--max=-" + "2" * 4000], "need e_max >= 3, got -222222222222222..."),
            (
                ["goto", "3", "5", "--ideal", "x^5", "--field", "fp:" + "7" * 4000],
                "prime 7777777777777777... too large (must be < 2^31)",
            ),
            (
                ["goto", "3", str(10**40), str(10**40 + 1), "--monomial", "3", "--dual"],
                "duality requires a symmetric semigroup, "
                "(3, 1000000000000000..., 1000000000000000...) is not",
            ),
        ],
    )
    def test_library_messages_cut_long_numbers(self, argv, message):
        # a number the reader accepts (up to the digit limit) is echoed by
        # the library's own preconditions at most 16 characters long
        proc = run_child(*argv, timeout=10)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: {message}\n"
        assert len(proc.stderr.encode()) <= 200
        assert "2" * 17 not in proc.stderr and "7" * 17 not in proc.stderr


    @pytest.mark.parametrize(
        "argv, frobenius",
        [
            (["goto", "3", "10000000001", "--ideal", "x^3+x^10000000001"], "19999999999"),
            (["goto", "3", str(10**40 + 1), "--ideal", f"x^3+x^{10**40 + 1}"], "1999999999999999..."),
            (["goto", "3", str(10**40 + 1), "--monomial", "3", "--dual"], "1999999999999999..."),
        ],
    )
    def test_colons_past_the_frobenius_limit_exit_two(self, argv, frobenius):
        # the gap bitset of a colon has f + 1 bits; past f = 10^7 it is
        # refused before anything of that size is built, where it used to
        # die with MemoryError or OverflowError, or hang under --dual
        proc = run_child(*argv, timeout=10)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: colons need f <= 10^7, got f = {frobenius}\n"

    def test_search_past_the_frobenius_limit_exits_two(self):
        # the tail positions of a search have f entries: past f = 10^7 the
        # search is refused before any is listed, where it died with
        # MemoryError
        proc = run_child("search", "3", "100000001", "--b", "3", timeout=10)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: searches need f <= 10^7, got f = 199999999\n"


def stderr_is_one_error_line(code, out, err):
    """An exit-2 run prints nothing on stdout and one line on stderr, after
    argparse's usage block where argparse refuses; an exit-0 run prints on
    stdout only."""
    if code == 0:
        return bool(out) and err == ""
    lines = err.splitlines()
    if code != 2 or out or not err.endswith("\n") or "Traceback" in err:
        return False
    if len(lines) == 1:
        return lines[0].startswith("error: ")
    usage = lines[0].startswith("usage: gotonum") and all(
        line.startswith(" ") for line in lines[1:-1]
    )
    return usage and lines[-1].startswith("gotonum ") and ": error: " in lines[-1]


SEARCH_3_5 = ["search", "3", "5", "--b", "5", "--positions", "1", "--format", "tsv"]
GOTO_3_5 = '{\n  "schema": 1,\n  "generators": [\n    3,\n    5\n  ],\n  "ideal": "%s",\n  "goto_number": 3\n}\n'
DECIMAL_4301 = "0,1." + "1" * 4300


class TestNumberGrammar:
    # every number the CLI reads is [+-]?[0-9]+, with /[0-9]+ after a
    # coefficient; an argument that starts with "-" is written --opt=-...

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["search", "3", "5", "--b", "5", "--positions", "1", "--positions", "4",
              "--format", "tsv", "--coeffs=-1,0,1"],
             "b\tcoeffs\tgoto\n5\t1:-1;4:-1\t3\n5\t1:-1\t3\n5\t1:-1;4:1\t3\n5\t4:-1\t3\n"
             "5\t-\t3\n5\t4:1\t3\n5\t1:1;4:-1\t3\n5\t1:1\t3\n5\t1:1;4:1\t3\n"),
            ([*SEARCH_3_5, "--coeffs", "0,1/2,1"], "b\tcoeffs\tgoto\n5\t-\t3\n5\t1:1/2\t3\n5\t1:1\t3\n"),
            ([*SEARCH_3_5, "--coeffs", "0, 1"], "b\tcoeffs\tgoto\n5\t-\t3\n5\t1:1\t3\n"),
            ([*SEARCH_3_5, "--coeffs", "0,+1"], "b\tcoeffs\tgoto\n5\t-\t3\n5\t1:1\t3\n"),
            ([*SEARCH_3_5, "--coeffs", "0,1,3", "--field", "fp:7"],
             "b\tcoeffs\tgoto\n5\t-\t3\n5\t1:1\t3\n5\t1:3\t3\n"),
            (["goto", "3", "5", "--ideal=-x^5+x^6"], GOTO_3_5 % "x^5 - x^6"),
            (["goto", "3", "5", "--ideal", "3/2*x^5 - x^8"], GOTO_3_5 % "x^5 - 2/3*x^8"),
        ],
    )
    def test_accepted_spellings_print_the_same_bytes(self, argv, want):
        assert run_captured(argv) == (0, want, "")

    @pytest.mark.parametrize(
        "argv, last",
        [
            ([*SEARCH_3_5, "--coeffs", "0,1.5"], "error: invalid rational coefficient '1.5'"),
            ([*SEARCH_3_5, "--coeffs", "0,1e2"], "error: invalid rational coefficient '1e2'"),
            ([*SEARCH_3_5, "--coeffs", "0,1_0"], "error: invalid rational coefficient '1_0'"),
            ([*SEARCH_3_5, "--coeffs", "0,.5"], "error: invalid rational coefficient '.5'"),
            ([*SEARCH_3_5, "--coeffs", "0,1/0"], "error: invalid rational coefficient '1/0'"),
            ([*SEARCH_3_5, "--coeffs", "0,1/7", "--field", "fp:7"],
             "error: invalid coefficient over F_7 '1/7': denominator divisible by 7"),
            (["goto", "3", "5", "--ideal", "1.5*x^5"], "error: cannot parse term '1.5*x^5'"),
            (["goto", "3", "5", "--ideal", "x^5", "--field", "fp: 7"], "error: invalid field prime ' 7'"),
            (["search", "3", "5", "--b", "1_0"], "gotonum search: error: argument --b: invalid integer '1_0'"),
            (["info", "3", "٥"], "gotonum info: error: argument generators: invalid integer '٥'"),
            (["rlr", "--pure-power", "2, 5"], "error: invalid --pure-power exponent ' 5'"),
            # a decimal is no number, however long: the echo stops at 16
            # characters, and TSV writes no header
            (["search", "3", "5", "--b", "5", "--coeffs", DECIMAL_4301],
             "error: invalid rational coefficient '1.11111111111111'..."),
            (["search", "3", "5", "--b", "5", "--coeffs", DECIMAL_4301, "--format", "tsv"],
             "error: invalid rational coefficient '1.11111111111111'..."),
            (["search", "3", "5", "--b", "5", "--coeffs", DECIMAL_4301, "--field", "fp:7"],
             "error: invalid coefficient over F_7 '1.11111111111111'..."),
        ],
    )
    def test_spelling_outside_the_grammar_is_refused(self, argv, last):
        code, out, err = run_captured(argv)
        assert stderr_is_one_error_line(code, out, err) and code == 2, err
        assert err.splitlines()[-1] == last
        assert "1" * 17 not in err

    @pytest.mark.parametrize("field", ["q", "fp:7"])
    def test_exponent_notation_is_refused_at_once(self, field):
        # Fraction("1e10000000") would build 10**10**7; the grammar refuses the text first
        proc = run_child("search", "3", "5", "--b", "5", "--coeffs", "0,1e10000000",
                         "--field", field, timeout=10)
        what = "rational coefficient" if field == "q" else "coefficient over F_7"
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: invalid {what} '1e10000000'\n"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_any_argv_exits_zero_or_two_with_one_error_line(self, data):
        # well-formed and malformed numbers in every place the CLI reads
        # one, on small semigroups; each place is malformed one time in
        # four, and every search gets a --b
        def mostly(valid, *bad):
            return st.one_of(valid, valid, valid, st.sampled_from(bad))

        malformed = ("1.5", "1e2", "1_0", ".5", " 3", "3\n", "٣", "", "x", "1/2", "1" * 5000)
        integer = mostly(st.integers(0, 12).map(str) | st.sampled_from(["+3", "-2"]), *malformed)
        coefficient = mostly(
            st.sampled_from(["0", "1", "-1", "+2", "1/2", "-3/4", "1/0"]),
            *malformed, "2/4.0", "1/" + "7" * 5000,
        )
        term = st.builds(
            "{}{}x^{}".format,
            st.sampled_from(["+", "-"]),
            mostly(st.sampled_from(["", "2*", "1/2*", "3"]), "1.5*", "1e1*", "2**", "٣*"),
            mostly(st.integers(0, 30).map(str), "", "1e1", "٣", "+4", "1" * 5000),
        )
        gens = data.draw(mostly(
            st.sampled_from([["3", "5"], ["4", "7", "9"], ["2", "5"], ["3", "4", "5"], ["5", "6"]]),
            ["3", "1.5"], ["4", "6"], ["0", "3"], ["+3", "5"], ["3", "5_0"], ["1" * 5000, "3"],
        ))
        field = data.draw(mostly(st.sampled_from(["q", "fp:7", "fp:+5"]), "fp:4", "fp:1.5", "fp:x", "r"))
        command = data.draw(st.sampled_from(["search", "goto", "monomial", "info", "rlr"]))
        if command == "search":
            coeffs = ["0", *data.draw(st.lists(coefficient, max_size=2))]
            separator = data.draw(st.sampled_from([",", ", "]))
            b = data.draw(mostly(st.integers(3, 12).map(str), *malformed))
            argv = ["search", *gens, f"--b={b}", "--positions=1",
                    f"--coeffs={separator.join(coeffs)}", f"--field={field}", "--format=tsv"]
        elif command == "goto":
            ideal = "".join(data.draw(st.lists(term, min_size=1, max_size=3)))
            ideal = ideal[data.draw(st.sampled_from([0, 1])) * ideal.startswith("+"):]
            argv = ["goto", *gens, f"--ideal={ideal}", f"--field={field}"]
        elif command == "monomial":
            argv = ["goto", *gens, f"--monomial={data.draw(integer)}"]
        elif command == "info":
            argv = ["info", *gens]
        else:
            exponent = mostly(st.integers(1, 7).map(str), *malformed, "0", "-2")
            parts = data.draw(st.lists(exponent, min_size=2, max_size=4))
            argv = ["rlr", f"--pure-power={','.join(parts)}"]
        code, out, err = run_captured(argv)
        assert stderr_is_one_error_line(code, out, err), (argv, code, err)

SUBCOMMANDS = ("info", "goto", "table", "search", "bounds", "rlr", "verify-paper")

# (argv, exit code): help, usage errors (exit 2 from the parser), input
# errors (exit 2 from the library) and one valid op per subcommand
CORPUS = [
    (["--help"], 0),
    *[([cmd, "--help"], 0) for cmd in SUBCOMMANDS],
    ([], 2),
    (["frobble"], 2),
    (["info"], 2),
    (["info", "3", "5", "--format", "xml"], 2),
    # tsv only where the output is tabular (table, search)
    (["info", "3", "5", "--format", "tsv"], 2),
    (["goto", "3", "5", "--monomial", "5", "--format", "tsv"], 2),
    (["bounds", "3", "5", "--format", "tsv"], 2),
    (["rlr", "--pure-power", "2,5,5", "--format", "tsv"], 2),
    (["goto", "3", "5"], 2),
    (["goto", "3", "5", "--ideal", "x^5", "--monomial", "5"], 2),
    (["table", "3", "5"], 2),
    (["rlr"], 2),
    (["verify-paper", "--format", "json"], 2),
    (["info", "4", "6"], 2),
    (["goto", "3", "5", "--ideal", "x^4"], 2),
    (["goto", "3", "5", "--ideal", "x^5", "--field", "fp:4"], 2),
    (["goto", "4", "5", "11", "--ideal", "x^12", "--dual"], 2),
    (["search", "4", "6", "7", "--b", "8", "--positions", "100"], 2),
    # the cap refuses 2^39 forms before the TSV header is written
    (["search", "5", "11", "--b", "40", "--format", "tsv"], 2),
    (["rlr", "--pure-power", "2,x"], 2),
    (["goto", "3", "5", "--monomial", "7"], 2),
    (["info", "3", "5"], 0),
    (["goto", "5", "11", "--ideal", "x^40+1/2*x^44", "--dual"], 0),
    (["goto", "7", "11", "20", "--monomial", "45", "--format", "human"], 0),
    (["table", "3", "5", "--max", "10", "--format", "tsv"], 0),
    (["search", "4", "7", "9", "--b", "7", "--field", "fp:3", "--coeffs", "0,1,2"], 0),
    (["bounds", "4", "7", "9"], 0),
    (["bounds", "4", "7", "9", "--format", "human"], 0),
    (["rlr", "--pure-power", "2,5,5"], 0),
    (["verify-paper"], 0),
]


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestDeterminism:
    def test_corpus_reruns_identical_in_one_process(self):
        # whatever state main keeps between calls in one process (memos, a
        # cached parser) must not change a single byte of a later call
        first = [run_captured(argv) for argv, _ in CORPUS]
        second = [run_captured(argv) for argv, _ in CORPUS]
        for (argv, want), (code, out, err) in zip(CORPUS, first):
            assert code == want, (argv, code, err)
            if code == 2:
                assert out == "" and err, argv
            else:
                assert out and err == "", argv
        assert second == first

    def test_search_byte_identical(self):
        args = ("search", "4", "6", "7", "--format", "tsv")
        _, first = run_cli(*args)
        _, second = run_cli(*args)
        assert first == second

    def test_restricted_search_reruns_identical(self):
        args = ("search", "4", "7", "9", "--b", "7", "--format", "tsv")
        _, first = run_cli(*args)
        _, second = run_cli(*args)
        assert first == second


# the scalars, and the flat lists, tuples and dicts of them, that the
# values of a generated payload are drawn from
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-10**60, 10**60),
    st.text(st.sampled_from('a"\\, :\n\u00e9\u2013\U0001d11e[]{}'), max_size=6),
    st.sampled_from(["", ", ", '"', "\\", ",\n    ", "\u00e9t\u00e9"]),
)
_KEYS = st.text(st.sampled_from('k"\\, \u00e9'), max_size=4)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.lists(_SCALARS, max_size=3).map(tuple),
    st.dictionaries(_KEYS, _SCALARS, max_size=3),
)


class TestJsonWriter:
    # every JSON output is cli._emit's, and equals the indent-2 dump of
    # the payload it was given
    ARGVS = [
        argv for argv, code in CORPUS
        if code == 0 and argv[0] in SUBCOMMANDS[:-1] and "--help" not in argv
        and "--format" not in argv
    ] + [
        ["info", "1"],
        ["info", "3", "5", "7"],
        ["bounds", "2", "3"],
        ["search", "3", "5", "--coeffs=-1,0,1/2"],
        ["table", "3", "5", "--max", "10"],
    ]

    def test_each_json_output_is_the_indent_2_dump_of_its_payload(self, monkeypatch):
        emit, calls = cli._emit, []

        def spy(payload, fmt, out):
            buf = io.StringIO()
            emit(payload, fmt, buf)
            calls.append((payload, fmt, buf.getvalue()))
            out.write(buf.getvalue())

        monkeypatch.setattr(cli, "_emit", spy)
        assert {argv[0] for argv in self.ARGVS} == set(SUBCOMMANDS) - {"verify-paper"}
        for argv in self.ARGVS:
            calls.clear()
            code, out, err = run_captured(argv)
            assert code == 0 and err == "", argv
            # one call writes all of stdout; info's JSON included
            (payload, fmt, text), = calls
            assert fmt == "json" and text == out, argv
            assert text == json.dumps(payload, indent=2) + "\n", argv

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.dictionaries(_KEYS, _VALUES, min_size=1, max_size=5))
    def test_flat_payloads_are_written_as_the_indent_2_dump(self, payload):
        buf = io.StringIO()
        cli._emit(payload, "json", buf)
        assert buf.getvalue() == json.dumps(payload, indent=2) + "\n"


class TestParserReuse:
    # main parses with one cached build_parser() result per process

    def test_main_builds_no_parser_after_the_first_call(self, monkeypatch):
        run_captured(["rlr", "--pure-power", "2,5,5"])
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        for argv in ([["rlr", "--pure-power", "2,5,5"], ["info", "3", "5"], ["frobble"]] * 7)[:20]:
            run_captured(argv)
        assert built == []
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second
        assert len(built) == 2 * (1 + len(SUBCOMMANDS))

    def test_cached_parser_keeps_no_state_between_calls(self, monkeypatch):
        # append lists start empty on every call, and an aborted parse
        # leaves nothing behind; the fresh side builds a parser per call
        sequence = [
            ["search", "4", "7", "9", "--b", "7"],
            ["search", "4", "7", "9", "--b", "9", "--b", "11"],
            ["search", "4", "7", "9", "--b", "7"],
            ["search", "4", "7", "9", "--b", "x"],
            ["search", "4", "7", "9", "--positions", "1"],
        ]
        cached = [run_captured(argv) for argv in sequence]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run_captured(argv) for argv in sequence]
        assert [code for code, _, _ in cached] == [0, 0, 0, 2, 0]
        assert cached == fresh
        assert cached[0] == cached[2] != cached[1]

    def test_help_follows_the_terminal_width_of_each_call(self, monkeypatch):
        # argparse reads COLUMNS when it formats help, not when it builds
        # the parser, so a parser built at one width prints at another
        monkeypatch.setenv("COLUMNS", "140")
        cli._parser.cache_clear()
        run_captured(["info", "3", "5"])
        helps = {}
        for columns in ("50", "140"):
            monkeypatch.setenv("COLUMNS", columns)
            for cmd in SUBCOMMANDS:
                cached = run_captured([cmd, "--help"])
                with monkeypatch.context() as m:
                    m.setattr(cli, "_parser", cli.build_parser)
                    fresh = run_captured([cmd, "--help"])
                assert cached[0] == 0 and cached == fresh, (columns, cmd)
                helps[columns, cmd] = cached[1]
        assert helps["50", "search"] != helps["140", "search"]
