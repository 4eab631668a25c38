import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

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
from gotonum.ring import (
    CanonicalIdeal,
    canonicalize,
    integer_scale,
    integer_tail,
    normal_tail,
    parse_element,
    sweep_levels,
)

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
        scan = explorer.goto_scan
        monkeypatch.setattr(
            explorer, "goto_scan", lambda S, b, p, t: scans.append(t) or scan(S, b, p, t)
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
        # fresh; the search scans each distinct ideal but the monomial x^b
        # (the empty key, which takes the floor) exactly once, from its
        # integer normal tail, and none at a valuation the conductor lemma
        # decides
        import gotonum.explorer as explorer

        scanned = []
        original = explorer.goto_scan

        def counting(S, b, p, t):
            scanned.append(tuple(sorted(t.items())))
            return original(S, b, p, t)

        monkeypatch.setattr(explorer, "goto_scan", counting)
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
                assert len(scanned) + 1 == len(ideals) < len(records), (gens, b)
                assert len(set(scanned)) == len(scanned), (gens, b)
                assert all(t[0] == (0, 1) and len(t) > 1 for t in scanned), (gens, b)
                distinct += len(ideals)
            scanned.clear()
        assert distinct > 100 and decided > 0, (distinct, decided)

    def test_closed_form_counts_match_the_enumeration(self):
        # search() counts a decided valuation in closed form, |C|^k forms
        # at the floor with the all-C[0] form as witness, and weights each
        # vector of an undecided one by |C|^|H| for its held positions; on every
        # valuation of the CLI corpus semigroups its counts and witnesses
        # equal a tally of the records, one valuation at a time and over
        # the whole range (where the witness is the first across b)
        rng = random.Random(39)
        sets = [
            (RATIONALS, (0, 1)),
            (RATIONALS, (-1, 0, 1)),
            (RATIONALS, (0, Fraction(1, 2), 1)),
            (RATIONALS, (Fraction(-2, 3), 0, 5)),
            (PrimeField(2), (0, 1)),
            (PrimeField(5), (0, 1, 4)),
        ]

        def tally(config):
            counts, first = {}, {}
            for rec in search_records(config):
                counts[rec.goto] = counts.get(rec.goto, 0) + 1
                first.setdefault(rec.goto, rec)
            return counts, first

        decided = undecided = held = 0
        for gens in [(3, 5), (4, 5, 11), (4, 6, 7), (4, 7, 9), (5, 11), (7, 11, 20)]:
            S = semigroup(*gens)
            for field, coefficients in sets:
                most = max(k for k in range(12) if len(coefficients) ** k <= 256)
                configs = []
                for b in SearchConfig(S).b_values:
                    positions = SearchConfig(S).admissible_positions(b)
                    if len(positions) > most:
                        positions = rng.sample(positions, most)
                    configs.append(SearchConfig(S, field, coefficients, (b,), positions))
                    settled = S.monomial_floor(b)[1]
                    decided += settled
                    undecided += not settled
                    held += not settled and bool(explorer._held_positions(S, positions))
                gaps = rng.sample(S.gaps, min(3, len(S.gaps)))
                configs.append(SearchConfig(S, field, coefficients, positions=gaps))
                for config in configs:
                    result = search(config)
                    counts, first = tally(config)
                    where = (gens, field, coefficients, config.b_values, config.positions)
                    assert result.value_counts == counts, where
                    assert result.witnesses == first, where
        assert decided > 100 and undecided > 100, (decided, undecided)
        # the |C|^|H| weighting of undecided valuations is exercised too
        assert held > 50, held

    def test_decided_valuation_enumerates_nothing(self, monkeypatch):
        # b = 30 > f + a_1 over <6,7,15>: 2^23 forms, all at the floor 3,
        # counted with no normal tail, no scan, no ideal and no model
        import gotonum.colon as colon
        import gotonum.ring as ring

        def forbidden(*args, **kwargs):
            raise AssertionError("a decided valuation built per-form state")

        monkeypatch.setattr(explorer, "clear_step", forbidden)
        monkeypatch.setattr(explorer, "goto_scan", forbidden)
        monkeypatch.setattr(ring.CanonicalIdeal, "__init__", forbidden)
        monkeypatch.setattr(colon, "integer_model", forbidden)
        S = semigroup(6, 7, 15)
        config = SearchConfig(S, b_values=(30,))
        assert len(config.admissible_positions(30)) == 23
        result = search(config)
        assert result.count == 8_388_608 and result.value_counts == {3: 8_388_608}
        assert result.witnesses == {3: SearchRecord(30, (), 3)}

    def test_prefix_keys_are_the_normal_tails(self):
        # the odometer yields every vector once, in product order, with the
        # normal unit 1 + normal tail of its form, against the oracle's
        # full sweep and ring.normal_tail, on every valuation of the CLI
        # corpus semigroups (positions sampled down to at most 256 forms)
        rng = random.Random(40)
        sets = [
            (RATIONALS, (0, 1)),
            (RATIONALS, (-1, 0, 1)),
            (RATIONALS, (Fraction(-2, 3), 0, Fraction(1, 2))),
            (PrimeField(2), (0, 1)),
            (PrimeField(3), (0, 1, 2)),
        ]
        forms = 0
        for gens in [(3, 5), (4, 5, 11), (4, 6, 7), (4, 7, 9), (5, 11), (7, 11, 20)]:
            S = semigroup(*gens)
            for field, coefficients in sets:
                C = SearchConfig(S, field, coefficients).coefficients
                p, D = field.p, integer_scale(field, C)
                most = max(k for k in range(12) if len(C) ** k <= 256)
                for b in SearchConfig(S).b_values:
                    positions = SearchConfig(S).admissible_positions(b)
                    if len(positions) > most:
                        positions = tuple(sorted(rng.sample(positions, most)))
                    images = [integer_tail(dict.fromkeys(positions, c), p, D) for c in C]
                    pairs = list(explorer._normal_keys(S, p, positions, images))
                    vectors = list(product(range(len(C)), repeat=len(positions)))
                    assert [vector for vector, _ in pairs] == vectors, (gens, b)
                    for vector, key in pairs:
                        tail = {i: images[k][i] for i, k in zip(positions, vector) if images[k][i]}
                        want = oracles.normal_tail_sweep(gens, tail, p)
                        assert key[0] == (0, 1), (gens, b, tail)
                        assert key[1:] == want == normal_tail(S, tail, p), (gens, b, tail)
                    forms += len(pairs)
        assert forms > 20_000, forms

    def test_sweep_work_bounds_the_writes(self, monkeypatch):
        # the cap charges _sweep_work before the odometer runs: past its
        # vectors and clear positions, it counts pairs, and each pair is at
        # most one write to W (written up to f) and one to P (up to keep,
        # below f); on the held searches' free positions of every
        # valuation of the CLI corpus semigroups and of two at larger f
        import gotonum.ring as ring

        writes = {"W": 0, "P": 0}
        add_shifted = ring._add_shifted

        def counting(unit, c, i, terms, hi, p):
            terms = list(terms)
            writes["W" if hi == S.frobenius else "P"] += sum(i + j <= hi for j, _ in terms)
            add_shifted(unit, c, i, terms, hi, p)

        monkeypatch.setattr(ring, "_add_shifted", counting)
        rng = random.Random(40)
        cases = tight = 0
        corpus = [(3, 5), (4, 5, 11), (4, 6, 7), (4, 7, 9), (5, 11), (7, 11, 20)]
        larger = [((4, 17), (4,)), ((4, 401), (4,)), ((3, 1001), (3, 6))]
        for gens, valuations in [(g, None) for g in corpus] + larger:
            S = semigroup(*gens)
            for field, C in [(RATIONALS, (0, 1)), (PrimeField(3), (0, 1, 2))]:
                p, m = field.p, len(C)
                for b in valuations or SearchConfig(S).b_values:
                    positions = SearchConfig(S).admissible_positions(b)
                    held = set(explorer._held_positions(S, positions))
                    free = [i for i in positions if i not in held]
                    while m ** len(free) > 256:
                        free.remove(rng.choice(free))
                    free = tuple(free)
                    D = integer_scale(field, C)
                    images = [integer_tail(dict.fromkeys(free, c), p, D) for c in C]
                    writes.update(W=0, P=0)
                    for _ in explorer._normal_keys(S, p, free, images):
                        pass
                    levels = sweep_levels(S, free)
                    visits = m ** len(free) + sum(m**d * len(clear) for d, (_, clear, _) in enumerate(levels, 1))
                    pairs = explorer._sweep_work(S, free, m, 10**18) - visits
                    assert writes["W"] <= pairs and writes["P"] <= pairs, (gens, C, b, writes, pairs)
                    cases += 1
                    tight += 2 * writes["W"] > pairs
        # and it is no loose bound: in some cases W alone takes half of it
        assert cases > 150 and tight >= 10, (cases, tight)

    def test_scan_reads_the_memo_key(self, monkeypatch):
        # an undecided search builds no ideal object and no integer model:
        # each distinct ideal is scanned from its integer normal tail
        import gotonum.colon as colon
        import gotonum.ring as ring

        def forbidden(*args, **kwargs):
            raise AssertionError("search built an ideal or an integer model")

        monkeypatch.setattr(ring.CanonicalIdeal, "__init__", forbidden)
        monkeypatch.setattr(colon, "integer_model", forbidden)
        scans = []
        scan = explorer.goto_scan
        monkeypatch.setattr(
            explorer, "goto_scan", lambda S, b, p, t: scans.append(t) or scan(S, b, p, t)
        )
        for gens, field, coefficients in [
            ((4, 7, 9), RATIONALS, (0, Fraction(1, 2), -1)),
            ((5, 6, 13), PrimeField(3), (0, 1, 2)),
        ]:
            S = semigroup(*gens)
            b_values = [b for b in SearchConfig(S).b_values if not S.monomial_floor(b)[1]]
            scans.clear()
            result = search(SearchConfig(S, field, coefficients, b_values[:3], positions=S.gaps[-4:]))
            assert result.count == sum(3 ** len(result.config.admissible_positions(b)) for b in b_values[:3])
            assert len(scans) > 10, gens

    def test_scan_bound_check_runs_on_both_routes(self, monkeypatch):
        # a planted fault that keeps every colon inside the closure drives
        # the scan past floor(f/a_1) + 1 = 3 on <4,7,9>: goto_number and
        # search, which scans from the memo key, both raise
        import gotonum.colon as colon

        monkeypatch.setattr(colon, "_colon_min_valuation", lambda *args: None)
        with pytest.raises(BoundViolation, match=r"b = 7 over \(4, 7, 9\) integral past bound 3"):
            goto_number(ideal((4, 7, 9), "x^7+x^8+x^9"))
        with pytest.raises(BoundViolation, match=r"b = 7 over \(4, 7, 9\) integral past bound 3"):
            search(SearchConfig(semigroup(4, 7, 9), b_values=(7,)))

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


def search_class():
    """The semigroups of the benchmark's search class: multiplicity 3-5,
    at most four minimal generators, 5 <= f <= 13."""
    found = {}
    for m in range(3, 6):
        for r in (1, 2, 3):
            for extra in combinations(range(m + 1, m + 14), r):
                if gcd(m, *extra) == 1:
                    S = semigroup(m, *extra)
                    if 5 <= S.frobenius <= 13:
                        found[S.generators] = S
    return list(found.values())


class TestHeldPositions:
    # search() enumerates only the positions outside T; a held coefficient
    # must never change the ideal, and the sweep's T must be the one the
    # definition gives, on every valuation of the search class and of the
    # CLI corpus semigroups, each with a seeded --positions subset

    def cases(self):
        rng = random.Random(40)
        corpus = [semigroup(*g) for g in [(3, 5), (4, 5, 11), (4, 6, 7), (4, 7, 9), (5, 11), (7, 11, 20)]]
        for S in search_class() + corpus:
            config = SearchConfig(S)
            for b in config.b_values:
                positions = config.admissible_positions(b)
                yield S, b, positions
                if len(positions) > 2:
                    k = rng.randrange(1, len(positions))
                    yield S, b, tuple(sorted(rng.sample(positions, k)))

    def test_sweep_is_the_definition(self):
        cases = held = 0
        for S, b, positions in self.cases():
            want = oracles.held_positions_brute(S.generators, positions)
            assert explorer._held_positions(S, positions) == want, (S.generators, b, positions)
            cases += 1
            held += bool(want)
        assert cases > 1000 and held > 400, (cases, held)

    @pytest.mark.parametrize(
        "field, values",
        [(RATIONALS, (-1, Fraction(1, 2), 3)), (PrimeField(2), (1,)), (PrimeField(3), (1, 2))],
    )
    def test_held_coefficient_keeps_the_ideal(self, field, values):
        rng = random.Random(str(field.p))
        changed = 0
        for S, b, positions in self.cases():
            held = explorer._held_positions(S, positions)
            if S.monomial_floor(b)[1] or not held:
                continue
            tail = {i: rng.choice((0, *values)) for i in positions}
            Q = CanonicalIdeal(S, b, tail, field)
            for j in rng.sample(held, min(3, len(held))):
                for c in (0, *values):
                    if c != tail[j]:
                        P = CanonicalIdeal(S, b, {**tail, j: c}, field)
                        assert P.normal_form() == Q.normal_form(), (S.generators, b, tail, j, c)
                        assert P == Q
                        changed += 1
        assert changed > 500, changed


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
