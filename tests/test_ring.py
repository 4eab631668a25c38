import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gotonum.colon import goto_number
from gotonum.errors import (
    NotInSemigroup,
    NotParameter,
    ParseError,
    ZeroElement,
)
from gotonum.fields import PrimeField, RATIONALS
from gotonum.ring import (
    CanonicalIdeal,
    RingElement,
    canonicalize,
    parse_element,
)

import oracles
from conftest import semigroup


def elem(gens, text, field=RATIONALS):
    return parse_element(text, semigroup(*gens), field)


class TestRingElement:
    # the library never multiplies two elements; the products here are the
    # oracle's, which the membership and normal-form tests build their
    # inputs with
    def test_monomial_shift(self):
        got = oracles.element_product(elem((3, 5), "x^3"), elem((3, 5), "x^5"))
        assert got == elem((3, 5), "x^8")

    def test_distributes_over_sum(self):
        a = elem((3, 5), "x^3")
        b = elem((3, 5), "x^3 + x^5")
        assert oracles.element_product(a, b) == elem((3, 5), "x^6 + x^8")

    def test_shift_of_three_terms(self):
        got = oracles.element_product(elem((4, 7, 9), "x^7+x^8+x^9"), elem((4, 7, 9), "x^4"))
        assert got == elem((4, 7, 9), "x^11+x^12+x^13")

    def test_rejects_gap_exponent(self):
        with pytest.raises(NotInSemigroup):
            RingElement(semigroup(3, 5), {4: Fraction(1)})

    def test_valuation_of_zero_undefined(self):
        with pytest.raises(ZeroElement):
            RingElement(semigroup(3, 5), {}).valuation()

    def test_cancellation_to_zero(self):
        assert elem((3, 5), "x^3 - x^3").is_zero()
        assert oracles.element_sum(elem((3, 5), "x^3"), elem((3, 5), "-x^3")).is_zero()
        # a coefficient is reduced before the zero test: 7 is 0 over F_7
        assert RingElement(semigroup(4, 7), {7: 7}, PrimeField(7)).is_zero()

    @given(
        coeffs=st.lists(
            st.tuples(
                st.sampled_from([0, 3, 5, 6, 8, 9, 10, 11]),
                st.integers(-4, 4),
            ),
            max_size=5,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_multiplication_commutes_and_associates(self, coeffs):
        S = semigroup(3, 5)
        acc = {}
        for e, c in coeffs:
            acc[e] = acc.get(e, 0) + c
        a = RingElement(S, {e: Fraction(c) for e, c in acc.items()})
        b = elem((3, 5), "x^3 + 2*x^5")
        c = elem((3, 5), "1/2*x^6 + x^9")
        mul = oracles.element_product
        assert mul(a, b) == mul(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


class TestParser:
    def test_monomial_with_coefficient(self):
        got = elem((3, 5), "3/2*x^5")
        assert got.coeffs == {5: Fraction(3, 2)}

    def test_spaces_and_signs(self):
        got = elem((3, 5), "x^3 - 2*x^6 + x^8")
        assert got.coeffs == {3: Fraction(1), 6: Fraction(-2), 8: Fraction(1)}

    def test_bare_x_means_exponent_one(self):
        got = parse_element("x", semigroup(1))
        assert got.coeffs == {1: Fraction(1)}

    def test_constant_term(self):
        got = elem((3, 5), "2 + x^3")
        assert got.coeffs == {0: Fraction(2), 3: Fraction(1)}

    def test_rejects_gap_exponent(self):
        with pytest.raises(ParseError):
            elem((3, 5), "x^4")

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            elem((3, 5), "x^^3")
        with pytest.raises(ParseError):
            elem((3, 5), "")

    def test_round_trip_through_str(self):
        for text in ("x^3", "x^5 + x^8", "x^3 - 1/2*x^6", "x^40 + x^44"):
            gens = (3, 5) if "40" not in text else (5, 11)
            e = elem(gens, text)
            assert parse_element(str(e), semigroup(*gens)) == e


def unit_ideal(tail, field=RATIONALS):
    # b = 18 > f = 17 on <4,7>: every tail position in [1, 17] is admissible
    return CanonicalIdeal(semigroup(4, 7), 18, tail, field)


class TestInvertUnit:
    def test_identity(self):
        assert unit_ideal({}).unit_inverse(10) == {0: Fraction(1)}

    def test_geometric_series(self):
        got = unit_ideal({4: Fraction(1)}).unit_inverse(9)
        assert got == {0: Fraction(1), 4: Fraction(-1), 8: Fraction(1)}

    def test_dense_unit(self):
        # derived by multiplying back: (1+x+x^2)(1-x+x^3-x^4) = 1 - x^6
        got = unit_ideal({1: Fraction(1), 2: Fraction(1)}).unit_inverse(5)
        assert got == {
            0: Fraction(1),
            1: Fraction(-1),
            3: Fraction(1),
            4: Fraction(-1),
        }

    @given(
        tail=st.dictionaries(
            st.integers(1, 6), st.fractions(min_value=-3, max_value=3), max_size=4
        ),
        T=st.integers(1, 25),
    )
    @settings(max_examples=80, deadline=None)
    def test_product_with_inverse_is_one(self, tail, T):
        unit = {0: Fraction(1)}
        unit.update({e: Fraction(v) for e, v in tail.items() if v})
        inv = unit_ideal(tail).unit_inverse(T)
        prod = {}
        for e1, v1 in unit.items():
            for e2, v2 in inv.items():
                if e1 + e2 < T:
                    prod[e1 + e2] = prod.get(e1 + e2, Fraction(0)) + v1 * v2
        prod = {e: v for e, v in prod.items() if v}
        assert prod == {0: Fraction(1)}

    def test_prime_field(self):
        fp = PrimeField(7)
        got = unit_ideal({1: 3}, fp).unit_inverse(4)
        # (1 + 3x)(1 + 4x + 2x^2 + ...) = 1 mod 7, x^4
        prod = {}
        for e1, v1 in {0: 1, 1: 3}.items():
            for e2, v2 in got.items():
                if e1 + e2 < 4:
                    prod[e1 + e2] = fp.add(prod.get(e1 + e2, 0), fp.mul(v1, v2))
        assert {e: v for e, v in prod.items() if v} == {0: 1}


    def test_matches_field_generic_recurrence(self):
        # the model's integer recurrence against the oracle's copy of the
        # recurrence through the field descriptor, for every T up to 30:
        # over Q with tail denominators 2, 7 and 12 (and all three at once),
        # over F_p with reduced, unreduced and negative tail values.  At
        # T = 0 the inverse stays {0: 1}.
        rng = random.Random(20261018)
        cases = [({}, RATIONALS)]
        for dens in ([2], [7], [12], [2, 7, 12]):
            for _ in range(4):
                tail = {
                    e: Fraction(rng.choice([1, -1, 5, -7, 11]), rng.choice(dens))
                    for e in rng.sample(range(1, 13), rng.randint(1, 4))
                }
                cases.append((tail, RATIONALS))
        for p in (2, 5, 101):
            for _ in range(4):
                tail = {
                    e: rng.choice([rng.randrange(1, p), p + 1, -1])
                    for e in rng.sample(range(1, 13), rng.randint(1, 4))
                }
                cases.append((tail, PrimeField(p)))
        for tail, fld in cases:
            Q = unit_ideal(tail, fld)
            unit = {0: fld.one, **tail}
            assert Q.unit_inverse(0) == {0: fld.one}
            for T in range(31):
                got = Q.unit_inverse(T)
                assert got == oracles.invert_unit_generic(unit, T, fld), (unit, fld, T)


class TestPrimality:
    def test_matches_trial_division(self):
        from gotonum.fields import _is_prime

        assert [n for n in range(-3, 20000) if _is_prime(n)] == [
            n for n in range(-3, 20000) if oracles.is_prime_trial(n)
        ]

    def test_rejects_strong_pseudoprimes(self):
        # 2047 fools base 2, 1373653 bases 2 and 3, 25326001 bases 2, 3, 5
        from gotonum.fields import _is_prime

        for n in (2047, 1373653, 25326001):
            assert not _is_prime(n)
            with pytest.raises(ValueError):
                PrimeField(n)

    def test_near_the_cap(self):
        assert PrimeField(2**31 - 1).p == 2147483647
        # 46327 * 46337: no factor below 46327, so trial division by the
        # small witnesses alone would not reject it
        with pytest.raises(ValueError):
            PrimeField(46327 * 46337)
        with pytest.raises(ValueError):
            PrimeField(2**31 + 11)


class TestCanonicalize:
    def test_high_tail_absorbed(self):
        # 1 + x^97 is a unit of R since 97 > f = 7
        Q = canonicalize(elem((3, 5), "x^3 + x^100"))
        assert Q.b == 3
        assert Q.unit_coeffs == {}
        # the boundary: x^(b+f+1) = x^11 is absorbed, x^(b+f) = x^10 is not
        # (f is a gap, so no R-unit clears it) and changes the ideal
        Q = canonicalize(elem((3, 5), "x^3 + x^10 + x^11"))
        assert Q.unit_coeffs == {7: Fraction(1)}
        assert Q != CanonicalIdeal(semigroup(3, 5), 3)

    def test_paper_form_5_11(self):
        Q = canonicalize(elem((5, 11), "x^40 + x^44"))
        assert Q.b == 40
        assert Q.unit_coeffs == {4: Fraction(1)}

    def test_paper_form_479(self):
        Q = canonicalize(elem((4, 7, 9), "x^7+x^8+x^9"))
        assert Q.b == 7
        assert Q.unit_coeffs == {1: Fraction(1), 2: Fraction(1)}

    def test_leading_coefficient_scaled(self):
        Q = canonicalize(elem((3, 5), "2*x^3 + x^5"))
        assert Q.b == 3
        assert Q.unit_coeffs == {2: Fraction(1, 2)}

    def test_idempotent(self):
        Q = canonicalize(elem((5, 11), "x^40 + x^44"))
        again = canonicalize(Q.generator())
        assert again == Q
        assert again.unit_coeffs == Q.unit_coeffs

    def test_zero_rejected(self):
        with pytest.raises(ZeroElement):
            canonicalize(RingElement(semigroup(3, 5), {}))

    def test_unit_rejected(self):
        with pytest.raises(NotParameter):
            canonicalize(elem((3, 5), "1 + x^3"))


class TestMembership:
    def test_monomial_cases(self):
        Q = canonicalize(elem((3, 5), "x^5"))
        assert Q.contains(elem((3, 5), "x^8"))
        Q10 = canonicalize(elem((3, 5), "x^10"))
        assert not Q10.contains(elem((3, 5), "x^9"))

    def test_shifted_generator(self):
        Q = canonicalize(elem((4, 7, 9), "x^7+x^8+x^9"))
        assert Q.contains(elem((4, 7, 9), "x^11+x^12+x^13"))

    def test_zero_always_member(self):
        Q = canonicalize(elem((3, 5), "x^5"))
        assert Q.contains(RingElement(semigroup(3, 5), {}))

    def test_generator_in_own_ideal_both_ways(self):
        w = elem((5, 11), "x^40 + x^44")
        Q = canonicalize(w)
        assert Q.contains(w)
        assert Q.contains(Q.generator())

    def test_low_valuation_excluded(self):
        Q = canonicalize(elem((3, 5), "x^10"))
        assert not Q.contains(elem((3, 5), "x^9 + x^11"))

    def test_monomial_ideal_membership_is_semigroup_shift(self):
        # for Q = x^b R, monomial membership reduces to e - b in G
        for gens, b in [((3, 5), 5), ((4, 7, 9), 7), ((7, 9, 20), 20)]:
            S = semigroup(*gens)
            Q = CanonicalIdeal(S, b)
            for e in S.members(0, b + S.frobenius):
                got = Q.contains(RingElement(S, {e: 1}))
                assert got == S.contains(e - b), (gens, b, e)

    def test_membership_insensitive_to_absorbed_tail(self):
        Q = canonicalize(elem((3, 5), "x^5 + x^6"))
        w = elem((3, 5), "x^8 + 2*x^9")
        with_tail = oracles.element_sum(w, elem((3, 5), "x^14"))   # beyond b + f = 12
        assert Q.contains(w) == Q.contains(with_tail)


    def test_matches_ideal_image_oracle(self):
        # w = q * r is in Q; one more monomial of valuation >= b may take
        # it out.  Either way contains(w) must say whether w's coefficients
        # below b + f + 1 reduce to zero against the field-generic span of
        # the shifts of q, which shares no code with the integer model
        rng = random.Random(907)
        fields = [
            (RATIONALS, lambda: Fraction(rng.choice([1, -1, 3, -5]), rng.choice([1, 2, 7, 12]))),
            (PrimeField(5), lambda: rng.randrange(1, 5)),
            (PrimeField(101), lambda: rng.randrange(1, 101)),
        ]
        seen = {True: 0, False: 0}
        for gens in [(3, 5), (5, 11), (4, 6, 7), (4, 7, 9), (5, 6, 13), (7, 9, 20)]:
            S = semigroup(*gens)
            f, a1 = S.frobenius, S.multiplicity
            for fld, coefficient in fields:
                for _ in range(3):
                    b = rng.choice(S.members(1, f + a1 + 1))
                    positions = [i for i in range(1, f + 1) if S.contains(b + i)]
                    tail = {
                        i: coefficient()
                        for i in rng.sample(positions, rng.randint(0, min(3, len(positions))))
                    }
                    Q = CanonicalIdeal(S, b, tail, fld)
                    T = Q.truncation
                    basis = oracles.ideal_image_generic(Q).basis
                    for _ in range(4):
                        support = rng.sample(S.members(0, f + 1), 3)
                        r = RingElement(S, {c: coefficient() for c in support}, fld)
                        w = oracles.element_product(Q.generator(), r)
                        e = rng.choice(S.members(b, b + f))
                        bumped = oracles.element_sum(w, RingElement(S, {e: coefficient()}, fld))
                        for v in (w, bumped):
                            below = {c: x for c, x in v.coeffs.items() if c < T}
                            expected = not oracles.reduce_vector(basis, below, fld)
                            assert Q.contains(v) == expected, (gens, fld, b, tail, v)
                            seen[expected] += 1
        assert seen[True] >= 200 and seen[False] >= 100, seen

    def test_every_element_against_the_definition(self):
        # every element of R/x^T over F_2 and F_3, T = b + f + 1, against Q
        # mod x^T listed element by element (the g = 0 colon of the
        # definition oracle); every other element also carries x^T, which
        # lies in Q and must not change the answer
        rng = random.Random(5)
        count = 0
        for gens in [(3, 4, 5), (3, 5), (4, 5, 7)]:
            S = semigroup(*gens)
            f, a1 = S.frobenius, S.multiplicity
            for p in (2, 3):
                fld = PrimeField(p)
                for b in S.members(1, f + a1):
                    if p ** len(S.members(0, b + f)) > 3**7:
                        continue
                    positions = [i for i in range(1, f + 1) if S.contains(b + i)]
                    tails = [{}] + [
                        {i: rng.randrange(1, p) for i in rng.sample(positions, rng.randint(1, len(positions)))}
                        for _ in range(2 if positions else 0)
                    ]
                    for tail in tails:
                        Q = CanonicalIdeal(S, b, tail, fld)
                        (ideal,), members = oracles.colon_sets_definition(gens, b, tail, p, 0)
                        for k, r in enumerate(product(range(p), repeat=len(members))):
                            high = {Q.truncation: fld.one} if k % 2 else {}
                            w = RingElement(S, {**dict(zip(members, r)), **high}, fld)
                            assert Q.contains(w) == (r in ideal), (gens, b, tail, p, r)
                        count += 1
        assert count >= 30, count


class TestClosure:
    def test_paper_case(self):
        Q = canonicalize(elem((3, 5), "x^10"))
        assert not Q.closure_contains(elem((3, 5), "x^9"))

    def test_generator_in_closure(self):
        Q = canonicalize(elem((5, 11), "x^40 + x^44"))
        assert Q.closure_contains(Q.generator())

    def test_higher_valuation_in_closure(self):
        Q = canonicalize(elem((5, 11), "x^40 + x^44"))
        assert Q.closure_contains(elem((5, 11), "x^41"))

    def test_membership_implies_closure(self):
        S = semigroup(4, 7, 9)
        Q = canonicalize(elem((4, 7, 9), "x^7+x^8"))
        for e in S.members(0, 17):
            w = RingElement(S, {e: 1})
            if Q.contains(w):
                assert Q.closure_contains(w)


class TestCanonicalIdealValidation:
    def test_gap_valuation_rejected(self):
        with pytest.raises(NotInSemigroup):
            CanonicalIdeal(semigroup(3, 5), 4)

    def test_unit_ideal_rejected(self):
        with pytest.raises(NotParameter):
            CanonicalIdeal(semigroup(3, 5), 0)

    def test_bad_tail_position_rejected(self):
        # 3 + 1 = 4 is a gap of <3,5>
        with pytest.raises(NotInSemigroup):
            CanonicalIdeal(semigroup(3, 5), 3, {1: Fraction(1)})
        with pytest.raises(ValueError):
            CanonicalIdeal(semigroup(3, 5), 3, {9: Fraction(1)})


def _image_key(Q):
    """The reduced basis of Q's image in R / x^T R, from the oracle."""
    basis = oracles.ideal_image_generic(Q).basis
    return tuple(tuple(sorted(vec.items())) for vec in basis)


class TestNormalForm:
    def test_unit_multiple_is_the_same_ideal(self):
        # 1 + x^8 is an R-unit of <4,6,7>, so x^8 and x^8 + x^16 generate
        # the same ideal although their canonical tails differ
        S = semigroup(4, 6, 7)
        Q = CanonicalIdeal(S, 8)
        P = canonicalize(elem((4, 6, 7), "x^8 + x^16"))
        assert P.unit_coeffs == {8: Fraction(1)}
        assert P == Q
        assert hash(P) == hash(Q)
        assert P.normal_form() == ()
        assert canonicalize(elem((4, 6, 7), "x^8 + x^10")) != Q

    def test_prime_field_tails_reduced_on_construction(self):
        # over F_7 a tail value is reduced before anything reads it: 7 is no
        # tail at all, and 8, -6 and 1/2 are 1, 1 and 4, with the same
        # hash, text and Goto number as the reduced tail
        S, F = semigroup(4, 7), PrimeField(7)
        cases = [({1: 7}, {}), ({1: 8}, {1: 1}), ({1: -6}, {1: 1}), ({1: Fraction(1, 2)}, {1: 4})]
        for raw, reduced in cases:
            P, Q = CanonicalIdeal(S, 18, raw, F), CanonicalIdeal(S, 18, reduced, F)
            assert P == Q and hash(P) == hash(Q), raw
            assert str(P) == str(Q) and P.unit_coeffs == reduced, raw
            assert goto_number(P) == goto_number(Q), raw

    def test_fields_and_valuations_stay_apart(self):
        S = semigroup(4, 6, 7)
        assert CanonicalIdeal(S, 8) != CanonicalIdeal(S, 8, field=PrimeField(3))
        assert CanonicalIdeal(S, 8) != CanonicalIdeal(S, 12)

    def test_normal_tail_lies_on_gaps_above_b(self):
        S = semigroup(4, 7, 9)
        Q = canonicalize(elem((4, 7, 9), "x^7 + x^8 + 1/2*x^9 - 3*x^11 + x^14"))
        for i, v in Q.normal_form():
            assert not S.contains(i) and S.contains(Q.b + i), i
        assert Q == CanonicalIdeal(S, Q.b, dict(Q.normal_form()))

    @pytest.mark.parametrize(
        "gens, p",
        [(gens, p) for gens in [(3, 4, 5), (3, 5), (4, 5, 7), (4, 6, 7)] for p in (2, 3)]
        + [((5, 6, 9), 2)],
    )
    def test_classes_are_the_ideal_images(self, gens, p):
        # every tail on the admissible positions, at every valuation up to
        # f + a_1 with at most 3^7 tails: two tails share a normal form
        # exactly when the oracle's elimination gives the same image, and
        # there are p^|N(b)| classes
        S = semigroup(*gens)
        F = PrimeField(p)
        f = S.frobenius
        checked = 0
        for b in S.members(1, f + S.multiplicity):
            positions = [i for i in range(1, f + 1) if S.contains(b + i)]
            if p ** len(positions) > 3**7:
                continue
            checked += 1
            pairs = set()
            for vector in product(range(p), repeat=len(positions)):
                tail = {i: v for i, v in zip(positions, vector) if v}
                Q = CanonicalIdeal(S, b, tail, F)
                pairs.add((Q.normal_form(), _image_key(Q)))
            normal = {n for n, _ in pairs}
            images = {k for _, k in pairs}
            gaps = [i for i in positions if not S.contains(i)]
            assert len(normal) == len(images) == len(pairs) == p ** len(gaps), (gens, b)
        assert checked

    @given(
        case=st.sampled_from(
            [((4, 6, 7), 8), ((4, 7, 9), 7), ((3, 5), 6), ((5, 6, 13), 11), ((5, 11), 15)]
        ),
        tail=st.dictionaries(st.integers(1, 25), st.integers(-3, 3), max_size=4),
        unit=st.dictionaries(st.integers(1, 30), st.integers(-3, 3), min_size=1, max_size=4),
        p=st.sampled_from([0, 2, 3, 101]),
        dens=st.tuples(st.sampled_from([1, 2, 3, 10]), st.sampled_from([1, 3, 7])),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_unit_invariance(self, case, tail, unit, p, dens):
        # Q times an R-unit 1 + sum r_i x^i (i in G), canonicalized, is Q;
        # over Q the tail and the unit carry denominators
        gens, b = case
        S = semigroup(*gens)
        F = PrimeField(p) if p else RATIONALS
        d_tail, d_unit = (1, 1) if p else dens
        tail = {
            i: F.of(Fraction(v, d_tail))
            for i, v in tail.items()
            if i <= S.frobenius and S.contains(b + i)
        }
        Q = CanonicalIdeal(S, b, tail, F)
        r_tail = {i: F.of(Fraction(v, d_unit)) for i, v in unit.items() if S.contains(i)}
        r = RingElement(S, {0: F.one, **r_tail}, F)
        P = canonicalize(oracles.element_product(Q.generator(), r))
        assert P == Q and hash(P) == hash(Q)
        g = goto_number(Q)
        assert goto_number(P) == g
        assert oracles.goto_number_literal(gens, b, P.unit_coeffs, p) == g


class TestIntegerModel:
    def test_asks_the_semigroup_nothing(self, monkeypatch):
        # (t, D) is the ideal's own: t = {0: 1, i: D^i u_i}, D the lcm of
        # the tail denominators over Q and 1 over F_p, built with no
        # membership test; the gap table is the semigroup's
        from gotonum.ring import integer_model
        from gotonum.semigroup import NumericalSemigroup

        cases = [
            (canonicalize(elem((4, 7, 9), "x^7 + x^8 + 1/2*x^9 - 3*x^11 + x^14")), 2),
            (canonicalize(elem((5, 11), "x^40 + 2/3*x^44")), 3),
            (canonicalize(elem((5, 11), "x^40 + 3*x^44", PrimeField(7))), 1),
            (CanonicalIdeal(semigroup(3, 5), 6), 1),
        ]
        calls = []
        original = NumericalSemigroup.contains

        def spy(self, e):
            calls.append(e)
            return original(self, e)

        monkeypatch.setattr(NumericalSemigroup, "contains", spy)
        for Q, D in cases:
            assert integer_model(Q) == (
                {0: 1, **{i: D**i * v for i, v in Q.unit_coeffs.items()}}, D
            ), Q
        assert calls == []
