import random
import tracemalloc
from itertools import combinations
from math import gcd

import pytest

import oracles
from gotonum import bounds
from gotonum.errors import (
    CoprimalityError,
    EmptyError,
    GcdError,
    NotInSemigroup,
)
from gotonum.semigroup import NumericalSemigroup, frobenius_two_generated

from conftest import full_family, semigroup


def _raw_generator_lists():
    """Generator lists as a user may type them, minimal or not.

    The fixed ones cover duplicates, multiples of a_1 (8 in (4, 8, 5)), a
    sum of two generators (10 = 4 + 6), 13 = 6 + 7 in (5, 6, 7, 13), which
    is also the least member of its class mod 5, and a_1 = 1.  The seeded
    ones add sums, multiples and repeats of random bases, shuffled.
    """
    cases = [
        (2, 3), (3, 5), (4, 7, 9), (7, 9, 20),
        (3, 5, 5, 3), (4, 8, 5), (4, 6, 7, 10), (5, 6, 7, 13), (1, 5),
    ]
    rng = random.Random(20261018)
    while len(cases) < 40:
        base = rng.sample(range(2, 24), rng.randint(2, 4))
        extra = [rng.choice(base) + rng.choice(base), min(base) * rng.randint(2, 4)]
        raw = base + rng.sample(extra + base, rng.randint(1, 3))
        rng.shuffle(raw)
        if gcd(*raw) == 1:
            cases.append(tuple(raw))
    return cases


RAW_GENERATOR_LISTS = _raw_generator_lists()

# classes with several labels: <7,8,17> has three in class 6 mod 7, the
# others two in some class
LABEL_GENERATORS = [(4, 5, 11), (5, 6, 13), (7, 8, 17)]


class TestConstruction:
    def test_paper_semigroup_479(self):
        S = semigroup(4, 7, 9)
        assert S.generators == (4, 7, 9)
        assert S.frobenius == 10

    def test_all_of_n0(self):
        S = semigroup(1, 5)
        assert S.generators == (1,)
        assert S.frobenius == -1
        assert S.is_regular

    def test_non_minimal_input_is_reduced(self):
        # 10 = 4 + 6 is representable, so it is dropped
        assert oracles.representable(10, [4, 6, 7])
        S = semigroup(4, 6, 7, 10)
        assert S.generators == (4, 6, 7)
        assert S.frobenius == 9

    def test_empty_rejected(self):
        with pytest.raises(EmptyError):
            NumericalSemigroup([])

    def test_bad_gcd_rejected(self):
        with pytest.raises(GcdError):
            NumericalSemigroup([4, 6])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            NumericalSemigroup([0, 3])
        with pytest.raises(ValueError):
            NumericalSemigroup([-2, 3])

    def test_gaps_and_conductor_window(self):
        S = semigroup(3, 5)
        assert S.frobenius == 7
        assert S.gaps == (1, 2, 4, 7)
        assert S.conductor_generators == (8, 9, 10)

    @pytest.mark.parametrize("gens", RAW_GENERATOR_LISTS)
    def test_membership_table_matches_brute_force(self, gens):
        S = NumericalSemigroup(list(gens))
        raw = sorted(set(gens))
        assert S.generators == tuple(oracles.minimal_generators(raw))
        f = oracles.frobenius_brute(raw)
        assert S.frobenius == f
        cap = max(f, 0) + 2 * raw[-1]
        expected = set(oracles.members_upto(raw, cap))
        assert S.gaps == tuple(e for e in range(1, f + 1) if e not in expected)
        for e in range(-raw[-1], cap + 1):
            assert S.contains(e) == (e in expected)

    def test_contains_outside_table(self):
        S = semigroup(4, 7, 9)
        assert not S.contains(-3)
        assert S.contains(10**6)

    def test_contains_paper_values(self):
        assert not semigroup(4, 7, 9).contains(10)
        assert semigroup(4, 7, 9).contains(0)
        assert semigroup(4, 7, 9).contains(11)


class TestGapBits:
    def test_matches_member_oracle(self, family):
        # bit k set exactly when k is a gap, on <1>, <2,3> and the family
        for S in [semigroup(1), semigroup(2, 3)] + family:
            f = S.frobenius
            members = set(oracles.members_upto(list(S.generators), max(f, 0)))
            want = sum(1 << k for k in range(1, f + 1) if k not in members)
            assert S.gap_bits() == want, S.generators
            assert S.gap_bits() is S.gap_bits()

    def test_matches_gaps_at_genus_312400(self):
        S = NumericalSemigroup([300, 10001, 20011])
        gaps = S.gaps
        assert len(gaps) == 312400
        text = ["0"] * (S.frobenius + 1)
        for k in gaps:
            text[k] = "1"
        assert format(S.gap_bits(), "b")[::-1] == "".join(text)

    def test_built_only_on_demand(self, monkeypatch):
        # about 10^20 gaps: construction, the stable value and the
        # conductor order never build the table
        def refuse(self):
            raise AssertionError("gap table built")

        monkeypatch.setattr(NumericalSemigroup, "gap_bits", refuse)
        S = NumericalSemigroup([3, 10**20 + 1])
        assert S.frobenius == 2 * 10**20 - 1
        assert bounds.stable_goto(S) == S.conductor_order() == 2


class TestTwoGeneratedFrobenius:
    def test_paper_values(self):
        assert frobenius_two_generated(5, 11) == 39
        assert frobenius_two_generated(9, 19) == 143

    def test_smallest_case(self):
        # brute force: 1 is the only gap of <2,3>
        assert oracles.frobenius_brute([2, 3]) == 1
        assert frobenius_two_generated(2, 3) == 1

    def test_rejects_non_coprime(self):
        with pytest.raises(CoprimalityError):
            frobenius_two_generated(4, 6)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            frobenius_two_generated(11, 5)

    def test_formula_matches_construction_up_to_30(self):
        for a1, a2 in combinations(range(2, 31), 2):
            if gcd(a1, a2) == 1:
                assert (
                    frobenius_two_generated(a1, a2)
                    == semigroup(a1, a2).frobenius
                )


class TestLargestBelow:
    def test_paper_values(self):
        S = semigroup(9, 19, 21)
        assert S.largest_below(21) == 19
        assert S.largest_below(19) == 18

    def test_below_multiplicity_is_zero(self):
        assert semigroup(4, 7, 9).largest_below(4) == 0
        assert semigroup(4, 7, 9).largest_below(1) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            semigroup(3, 5).largest_below(0)

    def test_matches_descending_scan_on_family(self, family):
        for S in family:
            member = set(oracles.members_upto(list(S.generators), S.frobenius + 2 * S.multiplicity))
            for a in range(1, S.frobenius + 2 * S.multiplicity + 1):
                want = max(e for e in member if e < a)
                assert S.largest_below(a) == want, (S.generators, a)


class TestGeneratorSums:
    def test_pairs(self):
        assert semigroup(3, 5).generator_sums(2, 100) == {6, 8, 10}

    def test_empty_sum(self):
        assert semigroup(4, 7, 9).generator_sums(0, 10) == {0}

    def test_triples_of_467(self):
        # oracle: triples of {4,6,7} reaching at most 14 are 12 and 14
        assert oracles.exact_sums([4, 6, 7], 3, 14) == {12, 14}
        assert semigroup(4, 6, 7).generator_sums(3, 14) == {12, 14}

    @pytest.mark.parametrize("gens", [(2, 3), (3, 5), (4, 6, 7), (4, 7, 9)])
    def test_matches_multiset_enumeration(self, gens):
        S = semigroup(*gens)
        for t in range(7):
            assert S.generator_sums(t, 100) == oracles.exact_sums(
                list(gens), t, 100
            )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            semigroup(3, 5).generator_sums(-1, 10)


class TestMadicOrder:
    def test_paper_values(self):
        S = semigroup(7, 9, 20)
        assert S.madic_order(40) == 2
        assert S.madic_order(38) == 3

    def test_generator_has_order_one(self):
        assert semigroup(7, 9, 20).madic_order(7) == 1
        assert semigroup(3, 5).madic_order(5) == 1

    def test_zero_exponent(self):
        assert semigroup(3, 5).madic_order(0) == 0

    def test_rejects_gap(self):
        with pytest.raises(NotInSemigroup):
            semigroup(3, 5).madic_order(4)

    @pytest.mark.parametrize("gens", [(3, 5), (4, 7, 9), (7, 9, 20), *LABEL_GENERATORS])
    def test_matches_partition_enumeration(self, gens):
        S = semigroup(*gens)
        for e in range(1, 61):
            if S.contains(e):
                assert S.madic_order(e) == oracles.madic_order_brute(
                    list(gens), e
                )

    def test_order_at_least_one_from_multiplicity_up(self, named_semigroups):
        for S in named_semigroups:
            for e in S.members(S.multiplicity, S.frobenius + 2 * S.multiplicity):
                assert S.madic_order(e) >= 1


class TestPowerGenerators:
    def test_paper_values(self):
        # the pairs of <4,7,9> are 8, 11, 13, 14, 16 and 18, but
        # 16 = 7 + 9 = 4 + 4 + 4 + 4 and 18 = 9 + 9 = 4 + 7 + 7 lie in m^3
        S = semigroup(4, 7, 9)
        assert S.power_generators(2, 100) == (8, 11, 13, 14)
        assert S.power_generators(2, 13) == (8, 11, 13)
        assert S.power_generators(0, 10) == (0,)
        assert S.power_generators(3, 11) == ()

    def test_matches_minimal_sums_on_family(self, family):
        for S in family:
            gens = list(S.generators)
            for g in range(S.frobenius // S.multiplicity + 3):
                assert S.power_generators(g, g * gens[-1]) == tuple(
                    oracles.power_generators_brute(gens, g)
                ), (gens, g)

    def test_matches_brute_orders(self, named_semigroups):
        # every exponent up to f + 2 a_1 whose order, by partition search,
        # is exactly g, for 0 <= g <= f // a_1 + 2
        rng = random.Random(20261018)
        labelled = [NumericalSemigroup(gens) for gens in LABEL_GENERATORS]
        for S in labelled + named_semigroups + rng.sample(full_family(), 60):
            gens = list(S.generators)
            f, a1 = S.frobenius, S.multiplicity
            cap = f + 2 * a1
            orders = {e: oracles.madic_order_brute(gens, e) for e in S.members(0, cap)}
            for g in range(f // a1 + 3):
                want = tuple(e for e, order in orders.items() if order == g)
                assert S.power_generators(g, cap) == want, (gens, g)
                # a lower cap cuts the memoized exponents of order g
                low = min(cap, g * a1 + a1 // 2)
                assert S.power_generators(g, low) == tuple(e for e in want if e <= low)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            semigroup(3, 5).power_generators(-1, 10)


class TestEscapeOrder:
    def test_matches_brute_on_named_and_family_subset(self, named_semigroups, family):
        # a fresh instance each, so no memo filled by another test answers
        sample = random.Random(13).sample(family, 30)
        batch = [semigroup(*gens) for gens in LABEL_GENERATORS] + named_semigroups + sample
        for S in [NumericalSemigroup(T.generators) for T in batch]:
            for delta in range(1, S.frobenius + 2 * S.multiplicity + 1):
                assert S.escape_order(delta) == oracles.escape_order_brute(
                    S.generators, delta
                ), (S.generators, delta)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            semigroup(3, 5).escape_order(0)


class TestAperyLabels:
    def test_several_labels_in_one_class(self):
        assert semigroup(7, 8, 17)._labels[6] == [(6, 48), (13, 41), (20, 34)]
        assert semigroup(4, 5, 11)._labels[3] == [(3, 15), (7, 11)]

    def test_labels_are_the_undominated_multisets(self, family):
        # D rises and S falls along a class, a label has at most a_1 - 1
        # summands, and the last S of class r is Ap[r]
        for S in [semigroup(*gens) for gens in LABEL_GENERATORS] + family:
            assert S._labels == oracles.apery_labels_brute(S.generators), S.generators
            a1 = S.multiplicity
            member = set(oracles.members_upto(list(S.generators), S.frobenius + a1))
            for r, labels in enumerate(S._labels):
                ds = [d for d, _ in labels]
                ss = [s for _, s in labels]
                assert ds == sorted(set(ds)) and ss == sorted(set(ss), reverse=True), S.generators
                for d, s in labels:
                    assert s % a1 == r and (s - d) % a1 == 0 and 0 <= (s - d) // a1 <= a1 - 1
                assert ss[-1] == min(e for e in member if e % a1 == r), (S.generators, r)

    def test_non_minimal_raw_generators_leave_the_labels(self, named_semigroups):
        for S in [semigroup(*gens) for gens in LABEL_GENERATORS] + named_semigroups:
            gens = list(S.generators)
            a1, ad = gens[0], gens[-1]
            raw = gens + [a1 + ad, 2 * ad, 3 * a1, gens[1] + ad]
            assert NumericalSemigroup(raw)._labels == S._labels, raw
        for raw in RAW_GENERATOR_LISTS:
            minimal = NumericalSemigroup(oracles.minimal_generators(raw))
            assert NumericalSemigroup(raw)._labels == minimal._labels, raw


class TestOrderMemory:
    @pytest.mark.parametrize("a2", [10**4 + 1, 10**5 + 1, 10**6 + 1])
    def test_stable_route_is_flat_in_a2(self, a2):
        # f grows like 62 a_2, but the orders read the labels of the 300
        # residue classes: construction, the stable value and the
        # conductor order stay under 1 MB for every a_2
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            S = NumericalSemigroup([300, a2, 2 * a2 + 9])
            values = (bounds.stable_goto(S), S.conductor_order())
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert values == (36, 36)
        assert peak < 2**20, peak


class TestPowerContainedInShift:
    # m^t lies in x^alpha R exactly when escape_order(alpha) < t
    def test_small_negative_case(self):
        # 3 - 1 = 2 is a gap of <3,5>
        assert not oracles.power_in_shift_brute([3, 5], 1, 1)
        assert not semigroup(3, 5).escape_order(1) < 1

    def test_positive_case_7920(self):
        assert oracles.power_in_shift_brute([7, 9, 20], 4, 7)
        assert semigroup(7, 9, 20).escape_order(7) < 4

    def test_two_generated_escape(self):
        # m^8 escapes every shift in <9,19>
        S = semigroup(9, 19)
        for alpha in range(1, 10):
            assert not oracles.power_in_shift_brute([9, 19], 8, alpha)
            assert not S.escape_order(alpha) < 8

    @pytest.mark.parametrize("gens", [(3, 5), (4, 6, 7), (7, 9, 20)])
    def test_matches_brute_force(self, gens):
        S = semigroup(*gens)
        for t in range(1, 6):
            for alpha in range(1, S.multiplicity + 1):
                assert (S.escape_order(alpha) < t) == (
                    oracles.power_in_shift_brute(list(gens), t, alpha)
                )


class TestStableValue:
    def test_paper_values_via_t(self):
        assert semigroup(7, 9, 20).stable_goto_via_t() == 3
        assert semigroup(9, 19).stable_goto_via_t() == 8

    def test_paper_values_via_t_prime(self):
        assert semigroup(7, 9, 20).stable_goto_via_t_prime() == 3
        assert semigroup(9, 19).stable_goto_via_t_prime() == 8

    def test_escape_witness_7920(self):
        # 38 is in G, 38 - 7 is not, and its order 3 realizes the value
        S = semigroup(7, 9, 20)
        assert S.contains(38)
        assert not S.contains(31)
        assert S.madic_order(38) == 3

    def test_derived_small_cases(self):
        # brute-force Goto numbers at e = f + a_1 + 1
        assert oracles.goto_monomial_brute([2, 3], 4) == 1
        assert semigroup(2, 3).stable_goto_via_t() == 1
        assert oracles.goto_monomial_brute([3, 5], 11) == 2
        assert semigroup(3, 5).stable_goto_via_t_prime() == 2

    def test_regular_flag(self):
        S = semigroup(1)
        assert S.stable_goto_via_t() == 0
        assert S.stable_goto_via_t_prime() == 0

    def test_two_characterizations_agree(self, family):
        for S in family:
            assert S.stable_goto_via_t() == S.stable_goto_via_t_prime(), (
                S.generators
            )


class TestSymmetry:
    def test_two_generated_always_symmetric(self):
        assert semigroup(5, 11).is_symmetric()
        assert semigroup(2, 3).is_symmetric()
        for a1, a2 in combinations(range(2, 16), 2):
            if gcd(a1, a2) == 1:
                assert semigroup(a1, a2).is_symmetric()

    def test_asymmetric_examples(self):
        assert not semigroup(4, 5, 11).is_symmetric()
        assert not semigroup(4, 7, 9).is_symmetric()

    def test_symmetric_three_generated(self):
        assert semigroup(11, 14, 21).is_symmetric()

    def test_genus_count_matches_definition(self):
        # the definition: exactly one of n, f - n is in G for every n in [0, f]
        batch = full_family() + [NumericalSemigroup(list(g)) for g in RAW_GENERATOR_LISTS]
        for S in batch:
            f = S.frobenius
            member = set(oracles.members_upto(list(S.generators), max(f, 0)))
            want = all((n in member) != (f - n in member) for n in range(f + 1))
            assert S.is_symmetric() == want, S.generators
            gaps = tuple(n for n in range(1, f + 1) if n not in member)
            assert S.gaps == gaps and len(S.gaps) == len(gaps), S.generators


class TestConductorOrder:
    def test_paper_value_strictly_below_stable(self):
        S = semigroup(7, 9, 20)
        assert S.conductor_order() == 2
        assert S.conductor_order() < S.stable_goto_via_t()

    def test_small_cases(self):
        # oracle: min m-adic order over the conductor window
        assert semigroup(2, 3).conductor_order() == 1
        assert semigroup(4, 7, 9).conductor_order() == 2

    def test_oracle_window(self):
        got = min(oracles.madic_order_brute([4, 7, 9], e) for e in range(11, 29))
        assert semigroup(4, 7, 9).conductor_order() == got

    def test_matches_brute_orders_over_wide_window(self):
        # minimum over [f+1, f+2*a_d] by partition search; the first four
        # tripped the window assert the old implementation carried
        batch = [(7, 12, 30), (7, 13, 36), (8, 15, 34), (10, 11, 35)]
        rng = random.Random(20261018)
        while len(batch) < 16:
            trip = tuple(sorted(rng.sample(range(3, 30), 3)))
            if gcd(gcd(*trip[:2]), trip[2]) == 1 and semigroup(*trip).generators == trip:
                batch.append(trip)
        for gens in batch:
            S = semigroup(*gens)
            f, ad = S.frobenius, S.generators[-1]
            want = min(
                oracles.madic_order_brute(list(gens), e) for e in range(f + 1, f + 2 * ad + 1)
            )
            assert S.conductor_order() == want, gens

    def test_never_exceeds_stable(self, family):
        for S in family:
            assert S.conductor_order() <= S.stable_goto_via_t_prime(), (
                S.generators
            )
