import itertools
import math
import random
from fractions import Fraction

import pytest

import oracles
from gotonum.colon import (
    TruncatedSubspace,
    colon_by_monomials,
    colon_power,
    conductor_dual_goto,
    contained_in_power_sum,
    dual_goto,
    goto_monomial,
    goto_number,
    ideal_image,
    index_of_nilpotency,
    is_integrally_closed,
)
from gotonum.errors import (
    ClosedIdeal,
    GotoNumberError,
    MixedField,
    MixedSemigroup,
    NotAReduction,
    NotGorenstein,
    NotInConductor,
    NotInSemigroup,
    TruncationTooSmall,
)
from gotonum.explorer import SearchConfig, search_records
from gotonum.fields import RATIONALS, PrimeField
from gotonum.ring import CanonicalIdeal, RingElement, canonicalize, integer_model, parse_element

from conftest import full_family, semigroup


def ideal(gens, text):
    S = semigroup(*gens)
    return canonicalize(parse_element(text, S))


def monomial_ideal(gens, b):
    return CanonicalIdeal(semigroup(*gens), b)


class TestColonPower:
    def test_brute_force_exponent_sets(self):
        # monomial colons are monomial-spanned; compare exponent by exponent
        for gens, b, g in [((3, 5), 5, 3), ((3, 5), 5, 4), ((3, 5), 10, 3)]:
            S = semigroup(*gens)
            Q = monomial_ideal(gens, b)
            V = colon_power(Q, g)
            want = oracles.monomial_colon(list(gens), b, g, V.truncation - 1)
            got = sorted(min(vec) for vec in V.basis)
            assert got == want, (gens, b, g)

    def test_integral_colon_of_x5(self):
        # g(x^5) = 3 in <3,5>: the m^3 colon stays at valuation >= 5,
        # one more power reaches x^3
        Q = monomial_ideal((3, 5), 5)
        assert colon_power(Q, 3).min_valuation() == 5
        assert colon_power(Q, 4).min_valuation() == 3

    def test_x9_in_colon_of_x10(self):
        Q = monomial_ideal((3, 5), 10)
        assert colon_power(Q, 3).min_valuation() == 9

    def test_non_monomial_stays_integral(self):
        Q = ideal((4, 7, 9), "x^7+x^8+x^9")
        assert colon_power(Q, 3).min_valuation() == 7

    def test_g_zero_is_ideal_image(self):
        Q = ideal((5, 11), "x^40 + x^44")
        assert colon_power(Q, 0) == ideal_image(Q)

    def test_empty_multiplier_set_gives_full_space(self):
        # all generator sums of that size exceed b + f
        S = semigroup(3, 5)
        Q = monomial_ideal((3, 5), 3)
        g = (Q.b + S.frobenius) // 3 + 1
        V = colon_power(Q, g)
        assert V.dimension == len(S.members(0, V.truncation - 1))
        assert V.min_valuation() == 0

    def test_chain_property(self):
        for gens, text in [
            ((3, 5), "x^5"),
            ((5, 11), "x^40 + x^44"),
            ((4, 7, 9), "x^7+x^8+x^9"),
        ]:
            Q = ideal(gens, text)
            cap = semigroup(*gens).frobenius // semigroup(*gens).multiplicity
            for g in range(cap + 1):
                lo = colon_power(Q, g)
                hi = colon_power(Q, g + 1)
                assert oracles.contains_subspace(hi, lo), (gens, text, g)

    def test_integrality_monotone(self):
        Q = ideal((5, 11), "x^40 + x^44")
        dropped = False
        for g in range(9):
            mv = colon_power(Q, g).min_valuation()
            if mv < Q.b:
                dropped = True
            if dropped:
                assert mv < Q.b


class TestMinValuation:
    def test_zero_subspace(self):
        S = semigroup(3, 5)
        V = TruncatedSubspace(S, RATIONALS, 10, [])
        assert V.min_valuation() is None

    def test_reads_first_pivot(self):
        S = semigroup(3, 5)
        one = Fraction(1)
        V = TruncatedSubspace.span(
            S, RATIONALS, 14, [{9: one, 10: one}, {12: one}]
        )
        assert V.min_valuation() == 9

    def test_mixed_vector_leads_below_free_coordinates(self):
        # a kernel can reach valuation c without containing x^c itself
        S = semigroup(3, 5)
        one = Fraction(1)
        V = TruncatedSubspace.span(S, RATIONALS, 12, [{3: one, 5: -one}])
        assert V.min_valuation() == 3


class TestGotoNumber:
    def test_example_values(self):
        assert goto_number(ideal((3, 5), "x^5")) == 3
        assert goto_number(ideal((3, 5), "x^10")) == 2
        assert goto_number(ideal((5, 11), "x^40")) == 4
        assert goto_number(ideal((5, 11), "x^40+x^44")) == 5
        assert goto_number(ideal((4, 7, 9), "x^7+x^8+x^9")) == 3

    def test_scaled_generator_same_ideal(self):
        assert goto_number(ideal((5, 11), "3*x^40+3*x^44")) == 5

    def test_regular_ring_is_zero(self):
        S = semigroup(1)
        assert goto_number(CanonicalIdeal(S, 3)) == 0

    def test_prime_field_matches_rationals(self):
        for p in (2, 5, 101):
            fp = PrimeField(p)
            S = semigroup(5, 11)
            Q = canonicalize(parse_element("x^40+x^44", S, fp))
            assert goto_number(Q) == 5, p


def _seeded_tails(rng, gens, count, fields, lo=1, hi=None):
    """count seeded ideals x^b(1 + tail) over <gens>, b in [lo, hi] (hi
    defaults to f + a_1 + 1), with one to three tail terms; the field
    cycles through fields."""
    S = semigroup(*gens)
    bs = S.members(lo, S.frobenius + S.multiplicity + 1 if hi is None else hi)
    out = []
    while len(out) < count:
        fld = fields[len(out) % len(fields)]
        b = rng.choice(bs)
        positions = [i for i in range(1, S.frobenius + 1) if S.contains(b + i)]
        if not positions:
            continue
        tail = {
            i: fld.of(Fraction(rng.choice([1, -1, 2, 3, -5]), rng.choice([1, 1, 5, 7])))
            for i in rng.sample(positions, rng.randint(1, min(3, len(positions))))
        }
        Q = CanonicalIdeal(S, b, tail, fld)
        if Q.unit_coeffs:
            out.append(Q)
    return out


class TestMonomialFloor:
    def _ideals(self):
        # a seeded sample of the 0/1 forms over <4,7,9> at b = 7, 9 (a
        # quarter of all of them lie strictly above the floor), and seeded
        # tails over Q and F_101 on three more semigroups
        rng = random.Random(7049)
        S = semigroup(4, 7, 9)
        records = list(search_records(SearchConfig(semigroup=S, b_values=(7, 9))))
        ideals = [rec.ideal(S) for rec in rng.sample(records, 60) if rec.coeffs]
        ideals.append(ideal((5, 11), "x^40+x^44"))
        fields = [RATIONALS, RATIONALS, PrimeField(101)]
        for gens in [(5, 11), (9, 19, 21), (4, 6, 7)]:
            ideals += _seeded_tails(rng, gens, 10, fields)
        return ideals

    def test_matches_literal_oracle_above_the_floor(self):
        # the scan starts at g(x^b) + 1; the literal oracle scans from
        # g = 1 and shares no code with gotonum.colon
        above = 0
        for Q in self._ideals():
            gens, p = Q.semigroup.generators, Q.field.p
            g = goto_number(Q)
            assert g == oracles.goto_number_literal(gens, Q.b, Q.unit_coeffs, p), Q
            above += g > goto_monomial(Q.semigroup, Q.b)
        assert above >= 10

    def test_scan_starts_at_the_floor(self, monkeypatch):
        # the scan runs the levels g(x^b) + 1, ..., g(Q) + 1, unless the
        # conductor lemma decides Q.  It does exactly when x^b R : m^(g+1),
        # g = g(x^b), holds some x^c with f < c < b; that predicate is
        # computed here from the oracles alone
        import gotonum.colon as colon

        seen = []
        original = colon._colon_min_valuation

        def recording(S, b, p, t, g):
            seen.append(g)
            return original(S, b, p, t, g)

        monkeypatch.setattr(colon, "_colon_min_valuation", recording)
        decided = scanned = 0
        for Q in self._ideals():
            gens, b = list(Q.semigroup.generators), Q.b
            floor = oracles.goto_monomial_brute(gens, b)
            seen.clear()
            g = goto_number(Q)
            if oracles.conductor_lemma_decides(gens, b):
                assert g == floor and seen == [], (Q, seen)
                decided += 1
            else:
                assert seen == list(range(floor + 1, g + 2)), (Q, seen)
                scanned += 1
        assert decided >= 5 and scanned >= 50, (decided, scanned)


class TestConductorLemma:
    def test_matches_literal_oracle_past_the_conductor(self):
        # seeded tails with f < b <= f + 2 a_1, where the lemma decides
        # some ideals and the scan the rest; the ones above g(x^b) come
        # from the band f + 1 <= b <= f + a_1 of <5,6,13>
        rng = random.Random(4411)
        fields = [RATIONALS, PrimeField(2), PrimeField(3), PrimeField(101)]
        above = 0
        for gens in [(3, 5), (4, 7, 9), (5, 6, 13), (4, 6, 7), (5, 7, 9), (6, 7, 15), (5, 11)]:
            S = semigroup(*gens)
            f, a1 = S.frobenius, S.multiplicity
            for Q in _seeded_tails(rng, gens, 12, fields, f + 1, f + 2 * a1):
                p = Q.field.p
                g = goto_number(Q)
                assert g == oracles.goto_number_literal(gens, Q.b, Q.unit_coeffs, p), Q
                above += g > goto_monomial(S, Q.b)
        assert above >= 2

    def test_band_census_over_f2(self):
        # over F_2 the ideals of valuation b are the 2^|N(b)| tails on the
        # gaps i with b + i in G.  On <5,6,13> (f = 14) b = 15, 16 and 17
        # each give 128 ideals with g = 2 = g(x^b) and 128 with g = 3, so
        # b > f alone does not fix g(Q); a seeded sample of each value is
        # checked against the literal oracle
        S = semigroup(5, 6, 13)
        F2 = PrimeField(2)
        rng = random.Random(1513)
        for b in (15, 16, 17):
            positions = [i for i in S.gaps if S.contains(b + i)]
            by_value = {}
            for bits in itertools.product((0, 1), repeat=len(positions)):
                tail = {i: F2.one for i, bit in zip(positions, bits) if bit}
                Q = CanonicalIdeal(S, b, tail, F2)
                by_value.setdefault(goto_number(Q), []).append(Q)
            assert {g: len(qs) for g, qs in by_value.items()} == {2: 128, 3: 128}, b
            assert goto_monomial(S, b) == 2
            for g, qs in by_value.items():
                for Q in rng.sample(qs, 3):
                    assert oracles.goto_number_literal(
                        S.generators, b, Q.unit_coeffs, 2
                    ) == g, Q

    def test_deep_valuations_need_no_elimination(self, monkeypatch):
        # at b = 10^6 no elimination runs, and the floor reads at most
        # a_1 escape orders, not one per member below b
        import gotonum.colon as colon
        from gotonum.semigroup import NumericalSemigroup

        def forbidden(S, b, p, t, g):
            raise AssertionError(f"elimination ran at b = {b} with unit {t}")

        monkeypatch.setattr(colon, "_colon_min_valuation", forbidden)
        asked = []
        escape_order = NumericalSemigroup.escape_order
        monkeypatch.setattr(
            NumericalSemigroup,
            "escape_order",
            lambda self, delta: asked.append(delta) or escape_order(self, delta),
        )
        b = 10**6
        cases = [((3, 5), RATIONALS), ((5, 6, 13), PrimeField(2)), ((4, 7, 9), PrimeField(101))]
        for gens, field in cases:
            S = NumericalSemigroup(gens)
            stable = S.stable_goto_via_t()
            asked.clear()
            assert goto_monomial(S, b) == stable
            assert set(asked) <= set(range(1, S.multiplicity + 1)), asked
            for text in ("x^1000000+x^1000001", "x^1000000-3*x^1000001+x^1000003"):
                assert goto_number(canonicalize(parse_element(text, S, field))) == stable


class TestGotoMonomial:
    def test_paper_tables(self):
        S = semigroup(7, 11, 20)
        assert [goto_monomial(S, e) for e in (7, 11, 20, 45)] == [4, 4, 5, 3]
        T = semigroup(11, 14, 21)
        assert [goto_monomial(T, e) for e in (11, 14, 21, 85)] == [6, 6, 7, 5]
        U = semigroup(9, 19, 21)
        assert [goto_monomial(U, e) for e in (19, 21, 9)] == [8, 6, 4]

    def test_brute_force_small(self):
        for gens in [(2, 3), (3, 5), (4, 6, 7), (4, 7, 9)]:
            S = semigroup(*gens)
            # past f + a_1, goto_monomial reads the stable value
            for b in S.members(1, 2 * S.frobenius + 3 * S.multiplicity + 1):
                assert goto_monomial(S, b) == oracles.goto_monomial_brute(
                    list(gens), b
                ), (gens, b)

    def test_matches_literal_formula(self):
        for gens in [(3, 5), (4, 6, 7), (7, 9, 20), (9, 19, 21), (5, 6, 13)]:
            S = semigroup(*gens)
            for b in S.members(1, S.frobenius + 2 * S.multiplicity):
                assert goto_monomial(S, b) == oracles.goto_monomial_literal(
                    S, b
                ), (gens, b)

    def test_rejects_gap(self):
        with pytest.raises(NotInSemigroup):
            goto_monomial(semigroup(3, 5), 4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            goto_monomial(semigroup(3, 5), 0)

    def test_agrees_with_linear_algebra(self, named_semigroups):
        # goto_number sends monomials to escape orders; the rank-only scan
        # it runs on every other ideal must agree on monomials too
        from gotonum.colon import _colon_min_valuation

        for S in named_semigroups:
            for b in S.members(1, S.frobenius + 2 * S.multiplicity):
                Q = CanonicalIdeal(S, b)
                t = integer_model(Q)[0]
                drops = [
                    g
                    for g in range(1, S.frobenius // S.multiplicity + 3)
                    if _colon_min_valuation(S, b, Q.field.p, t, g) < b
                ]
                assert drops[0] - 1 == goto_monomial(S, b), (S.generators, b)

    def test_fast_paths_match_generic_kernel(self):
        # the rank-only scan and the full kernel basis see the same minimal
        # valuations, on monomials and on seeded non-monomial tails; the
        # basis read off the descending elimination is already reduced.
        # Tails with denominators 2, 7 and 12 take the scan through the
        # x -> Dx rescaling, and F_p tails through its mod-p branch.
        from gotonum.colon import _colon_min_valuation

        rng = random.Random(20261018)
        cases = []
        for gens in [(3, 5), (4, 6, 7), (7, 9, 20)]:
            S = semigroup(*gens)
            cases += [
                (S, b, {}, RATIONALS) for b in S.members(1, S.frobenius + S.multiplicity + 1)
            ]

        def seeded_tails(coefficient, count):
            for gens in [(4, 7, 9), (9, 19, 21)]:
                S = semigroup(*gens)
                bs = S.members(1, S.frobenius + S.multiplicity + 1)
                for _ in range(count):
                    b = rng.choice(bs)
                    positions = [i for i in range(1, S.frobenius + 1) if S.contains(b + i)]
                    tail = {
                        i: coefficient()
                        for i in rng.sample(positions, rng.randint(1, min(3, len(positions))))
                    }
                    yield S, b, tail

        for S, b, tail in seeded_tails(lambda: Fraction(rng.choice([1, -1, 2, 3])), 12):
            cases.append((S, b, tail, RATIONALS))
        for den in (2, 7, 12):
            coefficient = lambda: Fraction(rng.choice([1, -1, 5, -7, 11]), den)
            for S, b, tail in seeded_tails(coefficient, 3):
                cases.append((S, b, tail, RATIONALS))
        for p in (2, 3, 2147483647):
            fp = PrimeField(p)
            for S, b, tail in seeded_tails(lambda: rng.randrange(1, p), 3):
                cases.append((S, b, tail, fp))
        for S, b, tail, fld in cases:
            Q = CanonicalIdeal(S, b, tail, fld)
            # the gap equations' integer unit is u itself over F_p, and over Q
            # its rescaling u(Dx), D the lcm of the tail denominators
            t, model_D = integer_model(Q)
            D = 1 if fld.p else math.lcm(*(v.denominator for v in tail.values()))
            assert model_D == D, (tail, fld)
            assert t == {0: 1, **{i: D**i * v for i, v in tail.items()}}, (tail, fld)
            assert all(type(v) is int for v in t.values()), (tail, fld)
            for g in range(S.frobenius // S.multiplicity + 2):
                V = colon_power(Q, g)
                assert _colon_min_valuation(S, b, Q.field.p, t, g) == V.min_valuation(), (
                    S.generators, b, tail, fld, g
                )
                assert TruncatedSubspace.span(
                    S, fld, V.truncation, V.basis
                ) == V, (S.generators, b, tail, fld, g)

    def test_rank_scan_matches_literal_system(self):
        # the gap-equation scan and the kernel basis against the literal
        # one-row-per-(s, j) system of oracles, over Q and F_101
        from gotonum.colon import _colon_min_valuation

        rng = random.Random(5011)
        for gens in [(4, 7, 9), (9, 19, 21), (5, 11)]:
            S = semigroup(*gens)
            bs = S.members(1, S.frobenius + S.multiplicity + 1)
            for p in (0, 0, 0, 101):
                fld = PrimeField(p) if p else RATIONALS
                b = rng.choice(bs)
                positions = [i for i in range(1, S.frobenius + 1) if S.contains(b + i)]
                tail = {
                    i: fld.of(Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 2, 7, 12])))
                    for i in rng.sample(positions, rng.randint(1, min(3, len(positions))))
                }
                Q = CanonicalIdeal(S, b, tail, fld)
                t = integer_model(Q)[0]
                for g in range(S.frobenius // S.multiplicity + 3):
                    free = oracles.colon_free_columns_literal(gens, b, Q.unit_coeffs, g, p)
                    where = (gens, b, tail, p, g)
                    assert [min(v) for v in colon_power(Q, g).basis] == free, where
                    assert _colon_min_valuation(S, b, Q.field.p, t, g) == (free[0] if free else None), where

    def test_integer_pivots_match_fraction_elimination(self):
        # low-rank integer systems force non-unit leads and cancellations,
        # which generic gap equations rarely show
        from gotonum.colon import _pivot_columns

        rng = random.Random(461)
        cols = range(9)
        for p in (0, 0, 2, 3, 101):
            for _ in range(40):
                basis = [
                    {c: v for c in cols if (v := rng.randint(-4, 4))}
                    for _ in range(rng.randint(1, 6))
                ]
                rows = []
                for _ in range(rng.randint(1, 10)):
                    row = {}
                    for vec in basis:
                        k = rng.randint(-3, 3)
                        for c, v in vec.items():
                            row[c] = row.get(c, 0) + k * v
                    row = {c: v % p if p else v for c, v in row.items()}
                    rows.append({c: v for c, v in row.items() if v})
                free = oracles.free_columns_descending(rows, cols, p)
                pivots = _pivot_columns([dict(r) for r in rows if r], p)
                assert sorted(pivots) == [c for c in cols if c not in free], (p, rows)

    def test_scan_runs_without_field_arithmetic(self, monkeypatch):
        # every routine of gotonum.colon eliminates on Python ints: no
        # operation of either field descriptor may run once the ideals,
        # the subspaces and the expected values are built
        from gotonum.fields import Rationals

        Q = ideal((9, 19, 21), "x^30 + 1/2*x^36 - 7/12*x^38 + 5/3*x^49")
        expected = oracles.goto_number_literal((9, 19, 21), Q.b, Q.unit_coeffs)
        F = PrimeField(101)
        Qp = canonicalize(parse_element("x^30 + 3*x^36 - 7*x^38", Q.semigroup, F))
        expected_p = oracles.goto_number_literal((9, 19, 21), Qp.b, Qp.unit_coeffs, 101)
        D = ideal((5, 11), "x^40 + 1/2*x^44 - 3/7*x^46")
        N = ideal((5, 11), "x^5 - 2/3*x^11")
        T = D.truncation
        V = colon_power(D, 1)
        vectors = [{e: Fraction(e, 3) for e in (5, 10, 11)}, {10: Fraction(-1, 2), 15: Fraction(1)}]
        want = {
            "colon_power": oracles.colon_power_generic(D, 2),
            "colon_by_monomials": oracles.colon_generic(D, [5, 11], T),
            "ideal_image": oracles.ideal_image_generic(D, T),
            "span": oracles.span_generic(D.semigroup, RATIONALS, T, vectors),
            "contained_in_power_sum": oracles.contained_in_power_sum_spans(V, 2, D),
            "dual_goto": oracles.dual_goto_spans(D),
            "conductor_dual_goto": oracles.conductor_dual_goto_spans(D),
            "index_of_nilpotency": goto_number(N),
        }

        def forbidden(*args):
            raise AssertionError("field arithmetic in gotonum.colon")

        for cls in (Rationals, PrimeField):
            for name in ("add", "sub", "mul", "neg", "inv", "of", "parse"):
                monkeypatch.setattr(cls, name, forbidden)
        assert goto_number(Q) == expected
        assert goto_number(Qp) == expected_p
        got = {
            "colon_power": colon_power(D, 2),
            "colon_by_monomials": colon_by_monomials(D, [5, 11]),
            "ideal_image": ideal_image(D),
            "span": TruncatedSubspace.span(D.semigroup, RATIONALS, T, vectors),
            "contained_in_power_sum": contained_in_power_sum(V, 2, D),
            "dual_goto": dual_goto(D),
            "conductor_dual_goto": conductor_dual_goto(D),
            "index_of_nilpotency": index_of_nilpotency(N),
        }
        assert got == want


def _widened(V, T):
    """V + x^t R inside R / x^T R, t the truncation of V: in reduced
    echelon form the basis of V, then the monomials x^e with t <= e < T."""
    one = V.field.one
    wide = [{e: one} for e in V.semigroup.members(V.truncation, T - 1)]
    return TruncatedSubspace(V.semigroup, V.field, T, V.basis + wide)


class TestFieldGenericOracle:
    def test_bases_equal_the_generic_elimination(self):
        # the integer echelon against the field-generic elimination of
        # oracles, basis for basis: colons and ideal images, which the
        # oracle builds at truncations up to b + f + 2*a_1 + 1 (a wider
        # truncation adds only monomials, all of them in Q), and spans of
        # seeded vectors
        rng = random.Random(7121)
        fields = [RATIONALS, PrimeField(2), PrimeField(3), PrimeField(101)]
        cases = 0
        for gens in [(3, 5), (4, 7, 9), (5, 11), (4, 6, 7), (9, 10), (4, 5, 6)]:
            S = semigroup(*gens)
            a1, f = S.multiplicity, S.frobenius
            ideals = _seeded_tails(rng, gens, 8, fields)
            ideals += [CanonicalIdeal(S, b, None, fields[b % 4]) for b in S.members(1, f)[:4]]
            for Q in ideals:
                T = Q.truncation + rng.choice([0, a1, 2 * a1])
                g = rng.randint(0, f // a1 + 2)
                where = (Q, Q.field, g, T)
                assert _widened(colon_power(Q, g), T) == oracles.colon_power_generic(Q, g, T), where
                exps = rng.sample(S.members(0, Q.truncation + a1), 3)
                assert _widened(colon_by_monomials(Q, exps), T) == oracles.colon_generic(
                    Q, exps, T
                ), where
                assert _widened(ideal_image(Q), T) == oracles.ideal_image_generic(Q, T), where
                fld = Q.field
                cols = S.members(0, T - 1)
                vectors = [
                    {c: fld.of(Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 5, 7]))) for c in rng.sample(cols, 4)}
                    for _ in range(rng.randint(1, 6))
                ]
                vectors = [{c: v for c, v in vec.items() if v != fld.zero} for vec in vectors]
                assert TruncatedSubspace.span(S, fld, T, vectors) == oracles.span_generic(
                    S, fld, T, vectors
                ), where
                cases += 4
        assert cases >= 150


class TestDefinitionOracle:
    def test_colons_and_goto_numbers_from_the_definition(self):
        # every r in R/x^T over F_2 and F_3, with T = b + f + 1, tried
        # against Q mod x^T listed element by element: no unit inverse and
        # no checked exponents.  The colon is the span of colon_power's
        # basis exactly when every basis vector lies in it and it has
        # p^dim elements; goto_number is the last g before it reaches
        # below valuation b.  Cases are kept to at most 3^9 elements.
        rng = random.Random(3)
        count = 0
        for gens in [(3, 4, 5), (3, 5, 7), (4, 5, 7), (3, 5), (4, 5, 6)]:
            S = semigroup(*gens)
            f, a1 = S.frobenius, S.multiplicity
            for p in (2, 3):
                for b in S.members(1, f + a1):
                    if p ** len(S.members(0, b + f)) > 3**9:
                        continue
                    positions = [i for i in range(1, f + 1) if S.contains(b + i)]
                    tails = [{}] + [
                        {i: rng.randrange(1, p) for i in rng.sample(positions, rng.randint(1, len(positions)))}
                        for _ in range(2 if positions else 0)
                    ]
                    for tail in tails:
                        Q = CanonicalIdeal(S, b, tail, PrimeField(p))
                        colons, members = oracles.colon_sets_definition(gens, b, tail, p, f // a1 + 2)
                        for g, colon in enumerate(colons):
                            V = colon_power(Q, g)
                            vectors = [tuple(vec.get(e, 0) for e in members) for vec in V.basis]
                            where = (gens, b, tail, p, g)
                            # the projection onto members hides gap support
                            assert all(S.contains(e) for vec in V.basis for e in vec), where
                            assert all(v in colon for v in vectors), where
                            assert len(colon) == p**V.dimension, where
                        below = [e for e in members if e < b]
                        drops = [g for g, colon in enumerate(colons) if any(any(r[: len(below)]) for r in colon)]
                        assert goto_number(Q) == drops[0] - 1, (gens, b, tail, p)
                        count += 1
        assert count >= 100


class TestColonByMonomials:
    def test_multiplier_zero_gives_ideal_image(self):
        Q = ideal((3, 5), "x^5")
        assert colon_by_monomials(Q, {0}) == ideal_image(Q)

    def test_colon_by_own_valuation_is_everything(self):
        S = semigroup(3, 5)
        Q = monomial_ideal((3, 5), 3)
        V = colon_by_monomials(Q, {3})
        assert V.dimension == len(S.members(0, V.truncation - 1))

    def test_rejects_gap_multiplier(self):
        with pytest.raises(NotInSemigroup):
            colon_by_monomials(ideal((3, 5), "x^5"), {4})

    def test_matches_colon_power_on_sum_set(self):
        # colon_power multiplies by m^g's minimal generators only; every
        # other sum of g generators is one of them times a monomial, so
        # the full sum set gives the same colon
        cases = [
            ((4, 7, 9), "x^7+x^8", RATIONALS),
            ((4, 7, 9), "x^9+2*x^11+x^13", PrimeField(3)),
            ((5, 6, 13), "x^15+x^17+x^18", PrimeField(2)),
            ((4, 6, 7), "x^6+x^7+x^10", PrimeField(101)),
            ((5, 11), "x^40+x^44", RATIONALS),
            ((7, 9, 20), "x^20+x^23-x^25", RATIONALS),
        ]
        for gens, text, field in cases:
            S = semigroup(*gens)
            Q = canonicalize(parse_element(text, S, field))
            for g in range(S.frobenius // S.multiplicity + 2):
                sums = S.generator_sums(g, Q.b + S.frobenius)
                assert colon_by_monomials(Q, sums) == colon_power(Q, g), (gens, text, g)


class TestContainedInPowerSum:
    def test_i_zero_always_true(self):
        Q = ideal((3, 5), "x^5")
        V = ideal_image(Q)
        assert contained_in_power_sum(V, 0, Q)

    def test_ideal_inside_its_own_sum(self):
        # Q <= m^i + Q for every i, decided at Q's own truncation b + f + 1,
        # far below i*a_1 + f + 1 (x^3 R over <3,5> at i = 4 among them)
        for gens, text in [((5, 11), "x^40 + x^44"), ((3, 5), "x^3")]:
            Q = ideal(gens, text)
            V = ideal_image(Q)
            for i in range(1, 10):
                assert contained_in_power_sum(V, i, Q), (gens, text, i)

    def test_conductor_vs_x12_in_4_5_11(self):
        S = semigroup(4, 5, 11)
        Q = monomial_ideal((4, 5, 11), 12)
        one = Fraction(1)
        V = TruncatedSubspace.span(
            S, RATIONALS, Q.truncation, [{e: one} for e in S.conductor_generators]
        )
        for i, want in [(1, True), (2, False)]:
            assert contained_in_power_sum(V, i, Q) == want

    def test_rejects_small_truncation(self):
        # V built for an ideal of smaller valuation stops below Q's
        # working truncation, so V + x^T R need not lie in m^i + Q
        V = ideal_image(monomial_ideal((3, 5), 3))   # truncation 3 + 7 + 1 = 11
        Q = monomial_ideal((3, 5), 5)                 # truncation 13
        for i in (0, 1):
            with pytest.raises(TruncationTooSmall):
                contained_in_power_sum(V, i, Q)

    def test_rejects_mixed_operands(self):
        # V over <4,7,9> against Q over <5,11>, and either field against
        # the other; each is refused before any containment is computed
        Q = ideal((5, 11), "x^40 + x^44")
        V = colon_power(ideal((4, 7, 9), "x^7+x^8"), 1)
        with pytest.raises(MixedSemigroup):
            contained_in_power_sum(V, 1, Q)
        F3 = PrimeField(3)
        Q3 = canonicalize(parse_element("x^40 + x^44", Q.semigroup, F3))
        with pytest.raises(MixedField):
            contained_in_power_sum(ideal_image(Q3), 1, Q)
        with pytest.raises(MixedField):
            contained_in_power_sum(ideal_image(Q), 1, Q3)


class TestDuality:
    def test_example_values(self):
        assert dual_goto(ideal((3, 5), "x^5")) == 3
        assert dual_goto(ideal((5, 11), "x^40")) == 4
        assert dual_goto(ideal((5, 11), "x^40+x^44")) == 5

    def test_agrees_with_direct_computation(self):
        for gens, text in [
            ((3, 5), "x^10"),
            ((3, 5), "x^5 + x^6"),
            ((9, 19), "x^9"),
            ((11, 14, 21), "x^21"),
        ]:
            Q = ideal(gens, text)
            assert dual_goto(Q) == goto_number(Q), (gens, text)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotGorenstein):
            dual_goto(ideal((4, 5, 11), "x^12"))

    def test_rejects_closed_ideal(self):
        # in the discrete valuation ring every principal ideal is closed
        S = semigroup(1)
        with pytest.raises(ClosedIdeal):
            dual_goto(CanonicalIdeal(S, 3))

    def test_one_elimination_per_call(self, monkeypatch):
        # the gap equations of Q : closure are eliminated once: their rows
        # give both the closed check (a row led by column 0) and the value
        import gotonum.colon as colon

        calls = []
        original = colon._gap_echelon

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(colon, "_gap_echelon", spy)
        for Q, want in [
            (ideal((3, 5), "x^5"), 3),
            (ideal((5, 11), "x^40"), 4),
            (ideal((5, 11), "x^40+x^44"), 5),
            (CanonicalIdeal(semigroup(5, 11), 40, {4: 1}, PrimeField(3)), 5),
        ]:
            calls.clear()
            assert dual_goto(Q) == want, Q
            assert len(calls) == 1, Q
        calls.clear()
        with pytest.raises(ClosedIdeal):
            dual_goto(CanonicalIdeal(semigroup(1), 3))
        assert len(calls) == 1

    def test_closed_detector(self):
        assert not is_integrally_closed(ideal((3, 5), "x^5"))
        assert not is_integrally_closed(ideal((5, 11), "x^40+x^44"))
        assert is_integrally_closed(CanonicalIdeal(semigroup(1), 2))

    def test_matches_span_route_oracle(self):
        # one echelon in R/Q against the per-i route of oracles (a colon
        # at the truncation T_i, the span of m^i + Q over the field and a
        # reduction of every basis vector), on values and on errors, for
        # dual_goto, conductor_dual_goto and contained_in_power_sum
        def outcome(fn, *args):
            try:
                return fn(*args)
            except GotoNumberError as exc:
                return type(exc).__name__, str(exc)

        rng = random.Random(6151)
        fields = [RATIONALS, PrimeField(2), PrimeField(3), PrimeField(101)]
        ideals = [CanonicalIdeal(semigroup(1), b, None, fld) for b in (1, 4) for fld in fields]
        for gens in [(3, 5), (5, 7), (4, 5, 6), (5, 11), (3, 7), (7, 9), (4, 7, 9), (4, 5, 11)]:
            S = semigroup(*gens)
            ideals += [CanonicalIdeal(S, b, None, fields[b % 4]) for b in S.members(1, 2 * S.frobenius)[::3]]
            ideals += _seeded_tails(rng, gens, 8, fields)
        kinds = set()
        for Q in ideals:
            got = outcome(dual_goto, Q)
            assert got == outcome(oracles.dual_goto_spans, Q), Q
            kinds.add(got if isinstance(got, tuple) else "value")
            assert outcome(conductor_dual_goto, Q) == outcome(
                oracles.conductor_dual_goto_spans, Q
            ), Q
            S = Q.semigroup
            V = colon_power(Q, 1)
            for i in range(1, S.frobenius // S.multiplicity + 4):
                assert contained_in_power_sum(V, i, Q) == oracles.contained_in_power_sum_spans(
                    V, i, Q
                ), (Q, i)
        assert {kind[0] for kind in kinds if kind != "value"} == {"ClosedIdeal", "NotGorenstein"}
        assert "value" in kinds


    def test_rows_of_q_shifts_leave_the_level_unchanged(self):
        # dual_goto leaves out the rows of J = Q : closure at free columns
        # c >= b with c - b in G: each is x^c t, in Q.  The level of J is
        # the same with and without them, and equals the span oracle's
        # value; the rows left out lie in Q (level None) and column 0
        # always keeps its row
        import gotonum.colon as colon

        rng = random.Random(3917)
        fields = [RATIONALS, PrimeField(2), PrimeField(3), PrimeField(101)]
        ideals = [ideal((3, 5), "x^5"), ideal((5, 11), "x^40+x^44")]
        for gens in [(3, 5), (5, 7), (4, 5, 6), (5, 11), (3, 7), (7, 9)]:
            ideals += _seeded_tails(rng, gens, 6, fields)
        skipped_total = 0
        for Q in ideals:
            S, b, hi = Q.semigroup, Q.b, Q.truncation - 1
            t = integer_model(Q)[0]
            exponents = colon._closure_generator_exponents(Q)
            whole = colon._colon_rows(Q, t, exponents)
            kept = colon._colon_rows(Q, t, exponents, modulo_q=True)
            shifts = [r for r in whole if min(r) >= b and S.contains(min(r) - b)]
            assert kept == [r for r in whole if r not in shifts], Q
            for r in shifts:
                c = min(r)
                assert r == {c + i: v for i, v in t.items() if c + i <= hi}, (Q, c)
            assert colon._level(Q, t, shifts) is None, Q
            assert any(0 in r for r in kept) == any(0 in r for r in whole), Q
            level = colon._level(Q, t, whole)
            assert colon._level(Q, t, kept) == level == dual_goto(Q), Q
            assert level == oracles.dual_goto_spans(Q), Q
            skipped_total += len(shifts)
        assert skipped_total > 100, skipped_total


class TestClosureGenerators:
    def test_generate_every_member_above_b(self):
        # the members b <= c <= b + f + 1 generate every member e >= b,
        # checked up to b + 2f + 2 on membership from oracles, for every b
        # up to f + 2*a_1 over the whole family; a bitmask of the members
        # shifted by each c gives the sums c + G at once
        from gotonum.colon import _closure_generator_exponents

        for S in full_family():
            f, a1 = S.frobenius, S.multiplicity
            members = oracles.members_upto(list(S.generators), 3 * f + 2 * a1 + 2)
            mask = sum(1 << e for e in members)
            low = mask & ((1 << (2 * f + 3)) - 1)
            for b in members:
                if not 1 <= b <= f + 2 * a1:
                    continue
                reach = 0
                for c in _closure_generator_exponents(CanonicalIdeal(S, b)):
                    reach |= low << c
                window = mask >> b << b & ((1 << (b + 2 * f + 3)) - 1)
                assert window & ~reach == 0, (S.generators, b)


class TestConductorDuality:
    def test_example_values(self):
        assert conductor_dual_goto(ideal((5, 11), "x^40")) == 4
        assert conductor_dual_goto(ideal((4, 5, 11), "x^12")) == 1

    def test_differs_from_goto_when_asymmetric(self):
        Q = ideal((4, 5, 11), "x^12")
        assert goto_number(Q) == 2
        assert conductor_dual_goto(Q) == 1

    def test_agrees_with_goto_when_symmetric(self):
        # derived: stable value of <2,3> is 1, x^4 sits in the conductor
        Q = monomial_ideal((2, 3), 4)
        assert conductor_dual_goto(Q) == 1
        assert goto_number(Q) == 1
        Q2 = ideal((5, 11), "x^40 + x^44")
        assert conductor_dual_goto(Q2) == goto_number(Q2) == 5

    def test_rejects_ideal_outside_conductor(self):
        with pytest.raises(NotInConductor):
            conductor_dual_goto(ideal((3, 5), "x^5"))


class TestIndexOfNilpotency:
    def test_derived_values(self):
        assert oracles.index_of_nilpotency_brute([9, 19], 9) == 8
        assert index_of_nilpotency(monomial_ideal((9, 19), 9)) == 8
        assert oracles.index_of_nilpotency_brute([3, 5], 3) == 2
        assert index_of_nilpotency(monomial_ideal((3, 5), 3)) == 2
        assert index_of_nilpotency(monomial_ideal((2, 3), 2)) == 1

    def test_equals_goto_number(self, named_semigroups):
        for S in named_semigroups:
            Q = CanonicalIdeal(S, S.multiplicity)
            assert index_of_nilpotency(Q) == goto_number(Q), S.generators

    def test_non_monomial_reduction(self):
        Q = ideal((3, 5), "x^3 + x^5")
        assert index_of_nilpotency(Q) == goto_number(Q)

    def test_rejects_higher_valuation(self):
        with pytest.raises(NotAReduction):
            index_of_nilpotency(monomial_ideal((3, 5), 5))

    def test_matches_membership_of_the_powers(self):
        # the least i with every generator x^s of m^(i+1), s <= b + f, in
        # Q by CanonicalIdeal.contains, on seeded reductions over Q and F_3
        rng = random.Random(907)
        for gens in [(3, 5), (4, 7, 9), (5, 6, 13), (7, 9, 20)]:
            S = semigroup(*gens)
            f, a1 = S.frobenius, S.multiplicity
            positions = [i for i in range(1, f + 1) if S.contains(a1 + i)]
            for fld in (RATIONALS, PrimeField(3)):
                for _ in range(4):
                    tail = {i: fld.of(rng.choice([1, -1, 2])) for i in rng.sample(positions, 2)}
                    Q = CanonicalIdeal(S, a1, tail, fld)
                    i = 0
                    while not all(
                        Q.contains(RingElement(S, {s: fld.one}, fld))
                        for s in oracles.exact_sums(gens, i + 1, a1 + f)
                    ):
                        i += 1
                    assert index_of_nilpotency(Q) == i, (gens, tail, fld)


class TestOneModelPerCall:
    def test_each_entry_point_builds_the_model_once(self, monkeypatch):
        # each public routine builds Q's integer model (t, D) at most once
        # and hands t to the helpers; goto_number builds none when the
        # floor decides, and one for a scan over several levels.  The
        # tails x^b(1 + x^i/3) have D = 3 over Q
        import gotonum.colon as colon

        builds = []
        build = colon.integer_model
        monkeypatch.setattr(colon, "integer_model", lambda Q: builds.append(Q) or build(Q))

        def count(fn, *args):
            builds.clear()
            fn(*args)
            return len(builds)

        # (gens, [(b, i)] scanned or decided by the floor, (a_1, i), (b > f, i))
        cases = [
            ((3, 5), [(5, 1), (8, 1), (11, 1)], (3, 2), (8, 1)),
            ((5, 11), [(10, 1), (40, 4), (45, 1)], (5, 6), (40, 4)),
            ((4, 7, 9), [(7, 1), (9, 2), (15, 1)], (4, 3), (11, 1)),
        ]
        decided = levels = 0
        for gens, pairs, reduction, in_conductor in cases:
            S = semigroup(*gens)
            for fld in (RATIONALS, PrimeField(2), PrimeField(101)):

                def tailed(b, i):
                    return CanonicalIdeal(S, b, {i: fld.of(Fraction(1, 3))}, fld)

                for b, i in pairs:
                    where = (gens, b, i, fld.label)
                    Q = tailed(b, i)
                    assert integer_model(Q)[1] == (1 if fld.p else 3), where
                    if oracles.conductor_lemma_decides(list(gens), b):
                        assert count(goto_number, Q) == 0, where
                        decided += 1
                    else:
                        assert count(goto_number, Q) == 1, where
                        levels = max(levels, goto_number(Q) - goto_monomial(S, b) + 1)
                    assert count(goto_number, CanonicalIdeal(S, b, None, fld)) == 0, where
                    if S.is_symmetric():
                        assert count(dual_goto, Q) == 1, where
                    assert count(colon_power, Q, 2) == 1, where
                    assert count(colon_by_monomials, Q, [S.multiplicity, b]) == 1, where
                    assert count(ideal_image, Q) == 1, where
                    assert count(is_integrally_closed, Q) == 1, where
                    V = ideal_image(Q)
                    for level in (1, 2):
                        assert count(contained_in_power_sum, V, level, Q) == 1, where
                assert count(index_of_nilpotency, tailed(*reduction)) == 1, (gens, fld.label)
                assert count(conductor_dual_goto, tailed(*in_conductor)) == 1, (gens, fld.label)
        assert decided == 9 and levels == 5, (decided, levels)


class TestRandomizedNonMonomial:
    def test_sampled_canonical_forms(self):
        # randomized ideals: dual route, monomial lower bound, global cap
        rng = random.Random(20260810)
        for gens in [(3, 5), (5, 11), (4, 7, 9), (7, 9, 20)]:
            S = semigroup(*gens)
            f, a1 = S.frobenius, S.multiplicity
            bs = S.members(1, f + a1 + 1)
            for _ in range(6):
                b = rng.choice(bs)
                positions = [i for i in range(1, f + 1) if S.contains(b + i)]
                tail = {
                    i: Fraction(rng.choice([1, 2, -1]))
                    for i in rng.sample(positions, min(2, len(positions)))
                    if rng.random() < 0.8
                }
                Q = CanonicalIdeal(S, b, tail)
                g = goto_number(Q)
                assert g >= goto_monomial(S, b)
                assert g <= f // a1 + 1
                if S.is_symmetric():
                    assert dual_goto(Q) == g, (gens, b, tail)


class TestNoUnitInverse:
    def test_engine_never_inverts_the_unit(self, monkeypatch):
        # every colon, membership and duality answer runs on the gap
        # equations and the unit itself: with the division by u made to
        # raise when asked for the series of 1/u, each routine still
        # matches an oracle that inverts u its own way
        # (oracles.invert_unit_generic) or not at all
        import gotonum.ring as ring

        quotient = ring._quotient

        def no_inverse(r, *args):
            if r == {0: 1}:
                raise AssertionError("u^(-1) series computed")
            return quotient(r, *args)

        monkeypatch.setattr(ring, "_quotient", no_inverse)
        rng = random.Random(2027)
        fields = [RATIONALS, PrimeField(2), PrimeField(3), PrimeField(101)]

        def outcome(fn, *args):
            try:
                return fn(*args)
            except GotoNumberError as exc:
                return type(exc), str(exc)

        checked = 0
        for gens in [(3, 5), (4, 5), (5, 7), (4, 7, 9), (5, 6, 13), (3, 4, 5)]:
            S = semigroup(*gens)
            f, a1 = S.frobenius, S.multiplicity
            ideals = _seeded_tails(rng, gens, 6, fields)
            ideals += _seeded_tails(rng, gens, 2, fields, a1, a1)
            for Q in ideals:
                fld, b, T = Q.field, Q.b, Q.truncation
                p = fld.p
                where = (gens, Q, fld.label)
                assert goto_number(Q) == oracles.goto_number_literal(
                    gens, b, Q.unit_coeffs, p
                ), where
                assert outcome(dual_goto, Q) == outcome(oracles.dual_goto_spans, Q), where
                assert outcome(conductor_dual_goto, Q) == outcome(
                    oracles.conductor_dual_goto_spans, Q
                ), where
                image = oracles.ideal_image_generic(Q)
                assert ideal_image(Q) == image, where
                closure = oracles.span_generic(
                    S, fld, T, [{e: fld.one} for e in S.members(b, T - 1)]
                )
                assert is_integrally_closed(Q) == (image == closure), where
                g = rng.randint(0, f // a1 + 2)
                V = colon_power(Q, g)
                assert V == oracles.colon_power_generic(Q, g), where
                for i in range(1, 4):
                    assert contained_in_power_sum(V, i, Q) == (
                        oracles.contained_in_power_sum_spans(V, i, Q)
                    ), (where, g, i)
                exps = rng.sample(S.members(0, T + a1), 3)
                assert colon_by_monomials(Q, exps) == oracles.colon_generic(Q, exps), where
                outside = [
                    e for e in S.members(0, T - 1)
                    if oracles.reduce_vector(image.basis, {e: fld.one}, fld)
                ]
                if b == a1:
                    assert index_of_nilpotency(Q) == max(map(S.madic_order, outside)), where
                for _ in range(4):
                    w = {
                        e: fld.of(rng.choice([1, -1, 2]))
                        for e in rng.sample(S.members(b - 1, T), 2)
                    }
                    w = {e: v for e, v in w.items() if v != fld.zero}
                    for r in (w, {e: v for e, v in w.items() if e >= b}):
                        element = RingElement(S, r, fld)
                        inside = not oracles.reduce_vector(
                            image.basis, {e: v for e, v in r.items() if e < T}, fld
                        )
                        assert Q.contains(element) == inside, (where, r)
                    product = oracles.element_product(element, Q.generator())
                    assert Q.contains(product), (where, r)
                checked += 1
        assert checked == 48
