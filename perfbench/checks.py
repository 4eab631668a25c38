"""Correctness checks for one op's output, run outside the timed region.

Each check parses the op's JSON output, keeps the computed values (not
their formatting, and not the printed representatives such as search
witnesses, which a normal-form change may legitimately alter) and tests
the paper's identities that apply to the op:

- search at --b b: the all-zero tail is the monomial x^b, so the least
  Goto number found equals g(x^b), and none exceeds floor(f/a_1) + 1;
- goto: g(x^b) <= g(Q) <= floor(f/a_1) + 1, and dual_goto == goto_number
  on the symmetric semigroups the --dual ops use;
- info and bounds on <a, a+1>: f = a^2 - a - 1, a(a-1)/2 gaps, symmetric,
  stable value a_1 - 1 and the two-generated closed forms;
- table: the keys are exactly the members up to --max, every value lies
  under the global bound, and the values past f + a_1 are one constant
  (the stable value) that no other value undercuts;
- rlr: (d-2)(n-1) + e - 1 for (e, n, ..., n) with n >= e.

g(x^b) comes from ``tests/oracles.goto_monomial_brute``, which shares no
code with the library.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from workloads import Semigroup


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Checker:
    """Checks op outputs; memoizes oracle values across the ops of a run."""

    def __init__(self, oracles):
        self._oracles = oracles
        self._monomial = {}

    def monomial_goto(self, gens, b):
        key = (tuple(gens), b)
        if key not in self._monomial:
            self._monomial[key] = self._oracles.goto_monomial_brute(list(gens), b)
        return self._monomial[key]

    def values(self, op, out):
        """The op's computed values, checked; raises CheckFailed."""
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"output is not JSON: {exc}") from exc
        return getattr(self, "_" + op.kind)(op.meta, payload)

    def _search(self, meta, p):
        gens, f, b = meta["gens"], meta["f"], meta["b"]
        counts = {int(g): n for g, n in p["value_counts"].items()}
        _require(p["count"] == meta["forms"], f"count {p['count']} != {meta['forms']}")
        _require(sum(counts.values()) == p["count"], "value counts do not sum to count")
        _require(min(counts) == p["min_goto"] and max(counts) == p["max_goto"], "min/max")
        gm = self.monomial_goto(gens, b)
        _require(p["min_goto"] == gm, f"min_goto {p['min_goto']} != g(x^{b}) = {gm}")
        _require(p["max_goto"] <= f // gens[0] + 1, "max_goto above floor(f/a_1) + 1")
        return [p["count"], p["min_goto"], p["max_goto"], sorted(counts.items())]

    def _goto(self, meta, p):
        gens, f, b = meta["gens"], meta["f"], meta["b"]
        g = p["goto_number"]
        gm = self.monomial_goto(gens, b)
        _require(gm <= g <= f // gens[0] + 1, f"g = {g} outside [{gm}, {f // gens[0] + 1}]")
        return [g]

    _plain = _goto

    def _dual(self, meta, p):
        values = self._goto(meta, p)
        _require(p["dual_goto"] == p["goto_number"], "dual_goto != goto_number")
        return values + [p["dual_goto"]]

    @staticmethod
    def _two_generated(meta, p):
        a, a2 = meta["gens"]
        _require(a2 == a + 1, "not of the form <a, a+1>")
        f = a * a - a - 1
        _require(p["frobenius"] == f, f"frobenius {p['frobenius']} != {f}")
        _require(p["stable_goto"] == a - 1, f"stable {p['stable_goto']} != a_1 - 1")
        return a, f

    def _info(self, meta, p):
        a, f = self._two_generated(meta, p)
        gaps = p["gaps"]
        _require(len(gaps) == a * (a - 1) // 2, "gap count")
        _require(gaps[-1] == f and all(x < y for x, y in zip(gaps, gaps[1:])), "gaps")
        _require(p["symmetric"] is True, "<a, a+1> is symmetric")
        _require(p["conductor_generators"] == list(range(f + 1, f + a + 1)), "conductor")
        return [f, digest(gaps), p["conductor_generators"][0], p["regular"],
                p["symmetric"], p["stable_goto"], p["conductor_order"]]

    def _bounds(self, meta, p):
        a, f = self._two_generated(meta, p)
        _require(p["two_generated_pair"] == [a - 1, a - 1], "two-generated pair")
        _require(p["monomial_gotos"] == {str(a): a - 1, str(a + 1): a - 1}, "g(x^a_j)")
        _require(p["global_bound"] == f // a + 1, "global bound")
        _require(all(v >= 0 for v in p["slacks"].values()), "negative slack")
        return {k: v for k, v in p.items() if k != "schema"}

    def _table(self, meta, p):
        gens, top = meta["gens"], meta["max"]
        m, f = gens[0], meta["f"]
        S = Semigroup(gens)
        table = {int(e): g for e, g in p["table"].items()}
        _require(
            list(table) == [e for e in range(1, top + 1) if e in S],
            "table keys are not the members up to --max",
        )
        _require(all(0 <= g <= f // m + 1 for g in table.values()), "value above bound")
        tail = {g for e, g in table.items() if e > f + m}
        _require(len(tail) <= 1, "values past f + a_1 are not constant")
        # the stable value is the least Goto number of any parameter ideal
        _require(all(g >= min(tail, default=0) for g in table.values()), "below stable")
        return sorted(table.items())

    def _rlr(self, meta, p):
        exps = sorted(meta["exponents"])
        g = p["goto_number"]
        d, e, n = len(exps), exps[0], exps[-1]
        if all(x == n for x in exps[1:]) and n >= e:
            closed = (d - 2) * (n - 1) + e - 1
            _require(g == closed, f"g = {g} != (d-2)(n-1)+e-1 = {closed}")
        orders = p["orders"]
        _require(orders["ideal"] == e, "ord(Q) != min n_i")
        ratios = [Fraction(r) for r in p["ratios"]]
        want = [Fraction(g, o) if g else Fraction(0) for o in orders.values()]
        _require(ratios == want, "ratios != g / orders")
        return [g, sorted(orders.items()), [str(r) for r in ratios]]
