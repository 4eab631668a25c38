import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod

import pytest

import oracles
from gotonum.regular import (
    MonomialIdeal,
    pure_power_goto,
    pure_power_report,
)


def ideal(d, gens):
    return MonomialIdeal(d, gens)


def power_ideal(d, n):
    """The ideal m^n: all monomials of total degree n."""
    def degree_monomials(dim, total):
        if dim == 1:
            return [(total,)]
        out = []
        for first in range(total + 1):
            for rest in degree_monomials(dim - 1, total - first):
                out.append((first,) + rest)
        return out
    return MonomialIdeal(d, degree_monomials(d, n))


class TestMonomialIdeal:
    def test_minimal_generators_enforced(self):
        I = ideal(2, [(1, 0), (1, 1), (0, 2)])
        assert I.generators == ((0, 2), (1, 0))

    def test_colon_of_variables_is_unit_ideal(self):
        I = ideal(2, [(1, 0), (0, 1)])
        assert I.colon_maximal() == ideal(2, [(0, 0)])

    def test_hand_computed_colon(self):
        # (x^2, y^2) : x = (x, y^2), : y = (x^2, y); intersection (x^2, xy, y^2)
        I = ideal(2, [(2, 0), (0, 2)])
        assert I.colon_variable(0) == ideal(2, [(1, 0), (0, 2)])
        assert I.colon_variable(1) == ideal(2, [(2, 0), (0, 1)])
        assert I.colon_maximal() == ideal(2, [(2, 0), (1, 1), (0, 2)])

    def test_colon_power_zero_is_identity(self):
        I = ideal(3, [(2, 0, 0), (0, 3, 0), (0, 0, 3)])
        assert I.colon_power_maximal(0) == I

    def test_example_display(self):
        # (x1^2, x2^3, x3^3) : m^3 = (x1^2) + m^3
        Q = MonomialIdeal.pure_powers((2, 3, 3))
        want = ideal(3, [(2, 0, 0)]).generators + power_ideal(3, 3).generators
        assert Q.colon_power_maximal(3) == MonomialIdeal(3, want)

    def test_staircase_route_matches_iterated_generators(self):
        # the staircase oracle against colon_power_maximal, the colon by m
        # iterated on minimal generators, at every g up to the unit ideal:
        # pure powers, then seeded m-primary ideals with mixed generators,
        # one pure power per variable plus up to three more generators
        inputs = [
            MonomialIdeal.pure_powers((e,) + (n,) * (d - 1))
            for d in (2, 3)
            for n in range(1, 5)
            for e in range(1, n + 1)
        ]
        rng = random.Random(2008)
        for d, top, count in ((2, 5, 120), (3, 4, 120)):
            for _ in range(count):
                gens = [
                    tuple(rng.randint(1, top) if k == i else 0 for k in range(d))
                    for i in range(d)
                ]
                gens += [
                    tuple(rng.randint(0, top) for _ in range(d))
                    for _ in range(rng.randint(0, 3))
                ]
                inputs.append(MonomialIdeal(d, gens))
        for Q in inputs:
            unit = MonomialIdeal(Q.dimension, [(0,) * Q.dimension])
            g, colon = 0, Q
            while colon != unit:
                g += 1
                colon = Q.colon_power_maximal(g)
                assert oracles.staircase_colon(Q, g) == colon, (Q, g)

    def test_colon_output_minimal(self):
        I = MonomialIdeal.pure_powers((3, 4, 5))
        J = I.colon_power_maximal(4)
        for g in J.generators:
            for h in J.generators:
                if g != h:
                    assert not all(a <= b for a, b in zip(g, h))

    def test_order(self):
        assert oracles.monomial_order(MonomialIdeal.pure_powers((2, 5, 5))) == 2
        assert oracles.monomial_order(power_ideal(3, 4)) == 4
        assert oracles.monomial_order(ideal(2, [(0, 0)])) == 0


class TestPurePowerIntegral:
    def test_generators_are_integral(self):
        assert oracles.pure_power_integral((2, 5, 5), (2, 0, 0))
        assert oracles.pure_power_integral((2, 5, 5), (0, 5, 0))

    def test_interior_point(self):
        assert oracles.pure_power_integral((2, 3, 3), (1, 1, 1))

    def test_below_facet(self):
        # x2^2 is not integral over (x1^2, x2^3, x3^3)
        assert not oracles.pure_power_integral((2, 3, 3), (0, 2, 0))
        assert not oracles.pure_power_integral((7, 7), (3, 3))

    def test_rational_boundary(self):
        assert oracles.pure_power_integral((2, 4), (1, 2))
        assert not oracles.pure_power_integral((2, 4), (1, 1))


class TestPurePowerGoto:
    def test_example_values(self):
        assert pure_power_goto((2, 5, 5)) == 5
        assert pure_power_goto((3, 3)) == 2
        assert pure_power_goto((1, 7)) == 0

    def test_dimension_two_is_order_minus_one(self):
        for e in range(1, 7):
            for n in range(e, 7):
                assert pure_power_goto((e, n)) == e - 1, (e, n)

    def test_grid_formula(self):
        # the d = 5, n = 6 column is exercised by the acceptance suite
        for d in range(2, 5):
            for n in range(1, 6):
                for e in range(1, n + 1):
                    got = pure_power_goto((e,) + (n,) * (d - 1))
                    assert got == (d - 2) * (n - 1) + e - 1, (d, e, n)

    def test_growth_in_n_unbounded_for_d3(self):
        values = [pure_power_goto((2, n, n)) for n in range(2, 7)]
        assert values == sorted(values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError):
            pure_power_goto((4,))

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            pure_power_goto((0, 3))


class TestRatios:
    def test_example(self):
        assert pure_power_report((2, 5, 5))["ratios"] == ["5/2", "5/2", "5/2"]

    def test_dimension_two_square(self):
        for e in range(2, 6):
            rep = pure_power_report((e, e))
            assert rep["orders"] == {"ideal": e, "colon_m": e, "colon_m_goto": e}
            assert Fraction(rep["ratios"][0]) == Fraction(e - 1, e)

    def test_maximal_ideal_case(self):
        rep = pure_power_report((1, 1, 1))
        assert rep["goto_number"] == 0
        assert rep["orders"] == {"ideal": 1, "colon_m": 0, "colon_m_goto": 1}
        assert rep["ratios"] == ["0", "0", "0"]

    def test_orders_equal_smallest_exponent_on_grid(self):
        for d in range(2, 5):
            for n in range(2, 6):
                for e in range(1, n + 1):
                    rep = pure_power_report((e,) + (n,) * (d - 1))
                    assert list(rep["orders"].values()) == [e, e, e], (d, e, n)


class TestClosedFormAgainstStaircase:
    def test_report_matches_staircase_routes(self):
        """Every exponent multiset over [1, 6] with 2 <= d <= 5 and box
        volume at most 200, each in a seeded unsorted order: e > n and
        the all-ones vectors are among them.  The volume cap keeps the
        staircase oracle to a few seconds."""
        rng = random.Random(3)
        checked = 0
        for d in range(2, 6):
            for vec in combinations_with_replacement(range(1, 7), d):
                if prod(vec) > 200:
                    continue
                exps = list(vec)
                rng.shuffle(exps)
                exps = tuple(exps)
                rep = pure_power_report(exps)
                g = oracles.pure_power_goto_staircase(exps)
                Q = MonomialIdeal.pure_powers(exps)
                orders = [
                    oracles.monomial_order(oracles.staircase_colon(Q, k)) for k in (0, 1, g)
                ]
                if g == 0:
                    ratios = [Fraction(0)] * 3
                else:
                    ratios = [Fraction(g, o) for o in orders]
                assert rep["goto_number"] == g, exps
                assert list(rep["orders"].values()) == orders, exps
                assert list(map(Fraction, rep["ratios"])) == ratios, exps
                checked += 1
        assert checked == 274
