import random
from fractions import Fraction

import pytest

import oracles
from gotonum import explorer
from gotonum.bounds import stable_goto
from gotonum.colon import goto_monomial, goto_number
from gotonum.errors import BoundViolation, SearchSpaceTooLarge
from gotonum.explorer import (
    SearchConfig,
    SearchRecord,
    monomial_table,
    search,
    search_records,
)
from gotonum.fields import RATIONALS, PrimeField
from gotonum.ring import CanonicalIdeal, canonicalize, parse_element

from conftest import semigroup


def ideal(gens, text):
    return canonicalize(parse_element(text, semigroup(*gens)))


class TestMonomialTable:
    def test_7_11_20(self):
        table = monomial_table(semigroup(7, 11, 20), 45)
        assert table[7] == 4
        assert table[11] == 4
        assert table[20] == 5
        assert table[45] == 3

    def test_3_5(self):
        table = monomial_table(semigroup(3, 5), 10)
        assert table[5] == 3
        assert table[10] == 2

    def test_2_3(self):
        assert monomial_table(semigroup(2, 3), 4) == {2: 1, 3: 1, 4: 1}

    def test_keys_ascending(self):
        table = monomial_table(semigroup(4, 7, 9), 30)
        keys = list(table)
        assert keys == sorted(keys)

    def test_stable_beyond_threshold(self, named_semigroups):
        for S in named_semigroups:
            f, a1 = S.frobenius, S.multiplicity
            table = monomial_table(S, f + 3 * a1)
            window = [g for e, g in table.items() if e >= f + a1 + 1]
            assert len(set(window)) == 1, S.generators
            assert window[0] == stable_goto(S)
            # goto_monomial takes that value as given past f + a_1; the
            # literal scan checks it
            assert window[0] == oracles.goto_monomial_literal(S, f + a1 + 1)

    def test_floors_ask_only_alpha_up_to_multiplicity(self, monkeypatch):
        # g(x^b) is a min of escape orders w(alpha) with 1 <= alpha <= a_1,
        # not of w(b - c) over every c in G below b
        from gotonum.semigroup import NumericalSemigroup

        asked = []
        escape_order = NumericalSemigroup.escape_order
        monkeypatch.setattr(
            NumericalSemigroup,
            "escape_order",
            lambda self, delta: asked.append(delta) or escape_order(self, delta),
        )
        S = NumericalSemigroup([53, 71, 97])
        f, a1 = S.frobenius, S.multiplicity
        table = monomial_table(S, f + 2 * a1)
        assert len(table) > 10 * a1
        assert asked and set(asked) <= set(range(1, a1 + 1)), sorted(set(asked))
        assert table[f + a1 + 1] == S.stable_goto_via_t()

    def test_rejects_small_cap(self):
        with pytest.raises(ValueError):
            monomial_table(semigroup(4, 7, 9), 3)


class TestSearch:
    def test_467_all_goto_two(self):
        result = search(SearchConfig(semigroup=semigroup(4, 6, 7)))
        assert result.min_goto == result.max_goto == 2
        assert result.count > 1000

    def test_479_witness_beats_rho(self):
        S = semigroup(4, 7, 9)
        records = list(search_records(SearchConfig(semigroup=S, b_values=(7,))))
        assert max(rec.goto for rec in records) == 3
        texts = [rec.element_text(S) for rec in records if rec.goto == 3]
        assert "x^7 + x^8 + x^9" in texts

    def test_5_11_tail_position_four(self):
        result = search(
            SearchConfig(semigroup=semigroup(5, 11), b_values=(40,), positions=(4,))
        )
        assert result.count == 2
        assert result.min_goto == 4
        assert result.max_goto == 5
        assert result.witnesses[5].coeffs == ((4, Fraction(1)),)

    def test_floor_computed_once_per_valuation(self, monkeypatch):
        # every ideal of one search --b 7 has the floor g(x^7), the least
        # escape order w(alpha) over 1 <= alpha <= 4 with 7 - alpha in G:
        # only alpha = 3; it is computed once, not once per distinct ideal
        from gotonum.semigroup import NumericalSemigroup

        asked = []
        escape_order = NumericalSemigroup.escape_order
        monkeypatch.setattr(
            NumericalSemigroup,
            "escape_order",
            lambda self, delta: asked.append(delta) or escape_order(self, delta),
        )
        scans = []
        monkeypatch.setattr(
            explorer, "goto_number", lambda Q: scans.append(Q) or goto_number(Q)
        )
        S = NumericalSemigroup([4, 7, 9])
        result = search(SearchConfig(semigroup=S, b_values=(7,)))
        assert len(scans) > 10 and result.count > len(scans)
        assert sorted(asked) == [3]

    def test_deterministic(self):
        cfg = lambda: SearchConfig(semigroup=semigroup(4, 6, 7), b_values=(4, 6, 7))
        assert list(search_records(cfg())) == list(search_records(cfg()))
        assert search(cfg()).to_json() == search(cfg()).to_json()

    def test_prime_field_matches_rationals_on_named_searches(self):
        for gens, kwargs in [
            ((4, 6, 7), {}),
            ((4, 7, 9), {"b_values": (7,)}),
            ((3, 5), {}),
            ((2, 3), {}),
        ]:
            rational = search_records(SearchConfig(semigroup=semigroup(*gens), **kwargs))
            modular = search_records(
                SearchConfig(
                    semigroup=semigroup(*gens),
                    field=PrimeField(2),
                    coefficients=(0, 1),
                    **kwargs,
                )
            )
            assert [(r.b, r.goto) for r in rational] == [
                (r.b, r.goto) for r in modular
            ], gens

    def test_cap_enforced(self):
        # b = 40 alone has 39 admissible positions, 2^39 forms, so the
        # search refuses before it enumerates anything
        config = SearchConfig(semigroup=semigroup(5, 11))
        assert len(config.admissible_positions(40)) == 39
        with pytest.raises(SearchSpaceTooLarge):
            search(config)

    def test_positions_outside_range_rejected(self):
        S = semigroup(4, 6, 7)
        for positions in [(100,), (0, -3), (2, 10)]:
            with pytest.raises(ValueError, match=r"outside \[1, 9\]"):
                SearchConfig(semigroup=S, b_values=(8,), positions=positions)
        assert SearchConfig(semigroup=S, positions=(9, 1)).positions == (1, 9)

    @pytest.mark.parametrize(
        "field, coefficients",
        [(RATIONALS, (0, Fraction(1, 2), Fraction(-1, 3))), (PrimeField(3), (0, 1, 2))],
    )
    def test_memo_never_mixes_up_ideals(self, monkeypatch, field, coefficients):
        # every record's Goto number is that of its own form, computed
        # fresh; the search scans each distinct ideal exactly once, and
        # none at a valuation the conductor lemma decides
        import gotonum.explorer as explorer

        scanned = []
        original = explorer.goto_number

        def counting(Q):
            scanned.append(Q)
            return original(Q)

        monkeypatch.setattr(explorer, "goto_number", counting)
        rng = random.Random(8)
        cases = []
        for gens in [(3, 5, 7), (4, 5, 7), (3, 5), (4, 5, 6), (3, 7, 8)]:
            config = SearchConfig(semigroup(*gens))
            cases += [(gens, b, None) for b in config.b_values[:4]]
        for gens in [(4, 7, 9), (5, 6, 13), (5, 11)]:
            config = SearchConfig(semigroup(*gens))
            for b in rng.sample(config.b_values, 2):
                cases.append((gens, b, rng.sample(config.admissible_positions(b), 5)))
        distinct = decided = 0
        for gens, b, positions in rng.sample(cases, 12):
            S = semigroup(*gens)
            config = SearchConfig(S, field, coefficients, b_values=(b,), positions=positions)
            records = list(search_records(config))
            ideals = set()
            for rec in records:
                Q = rec.ideal(S, field)
                assert rec.goto == goto_number(Q), (gens, rec)
                ideals.add(Q)
            if oracles.conductor_lemma_decides(list(gens), b):
                assert scanned == [], (gens, b)
                decided += 1
            else:
                assert len(scanned) == len(ideals) < len(records), (gens, b)
                distinct += len(ideals)
            scanned.clear()
        assert distinct > 100 and decided > 0, (distinct, decided)

    def test_memory_does_not_grow_with_forms(self):
        # records are streamed, so a search holds the distinct ideals of one
        # valuation, never one record per form: b = 21 over <5,6,13> has
        # 16,384 forms, all decided by the conductor lemma
        import tracemalloc

        S = semigroup(5, 6, 13)
        search(SearchConfig(S, b_values=(20,)))   # builds the semigroup's tables
        tracemalloc.start()
        try:
            result = search(SearchConfig(S, b_values=(21,)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.count == 16_384
        assert peak < 2 * 2**20, peak

    def test_coefficients_must_contain_zero(self):
        with pytest.raises(ValueError):
            SearchConfig(semigroup=semigroup(3, 5), coefficients=(1, 2))

    def test_envelope(self):
        records = search_records(SearchConfig(semigroup=semigroup(4, 6, 7)))
        lo, hi = oracles.check_search_envelope(semigroup(4, 6, 7), records)
        assert (lo, hi) == (2, 3)

    def test_envelope_violation_is_typed(self):
        # a record above the global bound must raise, also under python -O
        S = semigroup(4, 6, 7)
        records = list(search_records(SearchConfig(semigroup=S, b_values=(4,))))
        records.append(SearchRecord(b=4, coeffs=(), goto=4))
        with pytest.raises(BoundViolation, match="escapes"):
            oracles.check_search_envelope(S, records)

    def test_json_shape(self):
        S = semigroup(3, 5)
        result = search(SearchConfig(semigroup=S))
        payload = result.to_json()
        assert payload["schema"] == 1
        assert payload["field"] == "q"
        assert set(payload["value_counts"]) == {str(g) for g in result.value_counts}


class TestProductInequality:
    def test_strict_case_from_3_5(self):
        Q = ideal((3, 5), "x^5")
        g1, g2, g12 = oracles.product_goto_numbers(Q, Q)
        assert (g1, g2, g12) == (3, 3, 2)
        assert g12 < min(g1, g2)

    def test_smallest_case(self):
        S = semigroup(2, 3)
        Q = CanonicalIdeal(S, 2)
        g1, g2, g12 = oracles.product_goto_numbers(Q, Q)
        assert g12 <= min(g1, g2)
        assert g12 == 1

    def test_mixed_pairs(self):
        S = semigroup(4, 7, 9)
        pairs = [
            (ideal((4, 7, 9), "x^7+x^8+x^9"), CanonicalIdeal(S, 4)),
            (ideal((4, 7, 9), "x^7+x^8"), ideal((4, 7, 9), "x^9+x^11")),
        ]
        for Q1, Q2 in pairs:
            g1, g2, g12 = oracles.product_goto_numbers(Q1, Q2)
            assert g12 <= min(g1, g2), (Q1, Q2)


class TestMonomialLowerBound:
    # g(Q) >= g(x^b): the engine's scan starts at that floor, so these
    # records pin the floor's values and its strict witnesses; the
    # independent check is the literal-oracle test in test_colon
    def test_search_records_dominate_monomial_values(self):
        S = semigroup(4, 7, 9)
        records = list(search_records(SearchConfig(semigroup=S, b_values=(7, 9))))
        floors = [goto_monomial(S, rec.b) for rec in records]
        assert all(rec.goto >= gm for rec, gm in zip(records, floors))
        assert any(rec.goto > gm for rec, gm in zip(records, floors))

    def test_equality_on_monomials(self):
        S = semigroup(3, 5)
        records = list(search_records(SearchConfig(semigroup=S, positions=())))
        assert records
        assert all(rec.goto == goto_monomial(S, rec.b) for rec in records)

    def test_5_11_strict_witness(self):
        S = semigroup(5, 11)
        records = search_records(SearchConfig(semigroup=S, b_values=(40,), positions=(4,)))
        strict = [rec for rec in records if rec.goto > goto_monomial(S, rec.b)]
        assert len(strict) == 1
        assert strict[0].goto == 5
        assert goto_monomial(S, strict[0].b) == 4
