"""Goto numbers of pure-power monomial parameter ideals in a regular
local ring of dimension d (polynomial model).

For Q = (x_1^{n_1}, ..., x_d^{n_d}) everything is closed form.  A
monomial x^p of the box 0 <= p_i < n_i stays outside Q : m^g exactly
when some degree-g step keeps it inside the box, that is when
g <= sum(n_i - 1 - p_i); so with T = sum(n_i - 1),
Q : m^g = Q + m^(T - g + 1).  Integrality over Q is the single facet
condition sum p_i / n_i >= 1 of its Newton polyhedron, so g(Q) is T
minus the largest sum p_i over the non-integral points, and that
largest sum is max n_i - 1:

    g(Q) = sum n_i - max n_i - (d - 1).

``MonomialIdeal`` keeps one general colon route, on minimal generators:
I : x_i decrements one variable at a time, I : m intersects those by
pairwise componentwise maxima, and I : m^g is I : m taken g times.  The
tests check the closed forms against it and against a staircase oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .errors import BoundViolation


def _minimal_generators(gens):
    """Drop every exponent vector that another one divides."""
    gens = sorted(set(map(tuple, gens)), key=lambda g: (sum(g), g))
    kept = []
    for g in gens:
        if not any(all(h <= c for h, c in zip(k, g)) for k in kept):
            kept.append(g)
    return tuple(sorted(kept))


class MonomialIdeal:
    """A monomial ideal in d variables, stored by minimal generators."""

    __slots__ = ("dimension", "generators")

    def __init__(self, dimension, generators):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        gens = []
        for g in generators:
            g = tuple(g)
            if len(g) != dimension:
                raise ValueError(f"generator {g} has wrong length")
            if any(not isinstance(e, int) or e < 0 for e in g):
                raise ValueError(f"generator {g} has invalid exponents")
            gens.append(g)
        if not gens:
            raise ValueError("monomial ideal needs at least one generator")
        self.dimension = dimension
        self.generators = _minimal_generators(gens)

    @classmethod
    def pure_powers(cls, exponents):
        exponents = tuple(exponents)
        d = len(exponents)
        gens = [
            tuple(n if k == i else 0 for k in range(d))
            for i, n in enumerate(exponents)
        ]
        return cls(d, gens)

    def colon_variable(self, i: int) -> "MonomialIdeal":
        """I : x_i, by decrementing the i-th exponent of each generator."""
        gens = [
            tuple(max(e - 1, 0) if k == i else e for k, e in enumerate(g))
            for g in self.generators
        ]
        return MonomialIdeal(self.dimension, gens)

    def intersection(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Intersection, generated by pairwise componentwise maxima."""
        gens = {
            tuple(max(a, b) for a, b in zip(g, h))
            for g in self.generators
            for h in other.generators
        }
        return MonomialIdeal(self.dimension, gens)

    def colon_maximal(self) -> "MonomialIdeal":
        """I : (x_1, ..., x_d), the intersection of the I : x_i."""
        parts = [self.colon_variable(i) for i in range(self.dimension)]
        out = reduce(lambda a, b: a.intersection(b), parts)
        # colon never pushes an exponent above the original per-coordinate max
        for k in range(self.dimension):
            if max(g[k] for g in out.generators) > max(g[k] for g in self.generators):
                raise BoundViolation(f"colon of {self.generators} grew exponent {k}")
        return out

    def colon_power_maximal(self, g: int) -> "MonomialIdeal":
        """I : m^g, the colon by m taken g times."""
        if g < 0:
            raise ValueError(f"need g >= 0, got {g}")
        out = self
        for _ in range(g):
            out = out.colon_maximal()
        return out

    def __eq__(self, other):
        return (
            isinstance(other, MonomialIdeal)
            and self.dimension == other.dimension
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.dimension, self.generators))

    def __repr__(self):
        return f"MonomialIdeal({self.dimension}, {list(self.generators)})"


def pure_power_goto(exponents) -> int:
    """Goto number of the pure-power parameter ideal:
    g(Q) = sum n_i - max n_i - (d - 1).

    x^p with 0 <= p_i < n_i leaves Q : m^g once g > sum(n_i - 1 - p_i),
    so g(Q) = sum(n_i - 1) - max{sum p_i : sum p_i / n_i < 1}.  Every
    unit of p adds 1 to the sum and at least 1/max n_i to the weight, so
    max n_i units reach weight 1, while max n_i - 1 units on the largest
    exponent weigh (max n_i - 1)/max n_i < 1: the maximum is max n_i - 1.
    """
    exponents = tuple(exponents)
    if len(exponents) < 2:
        raise ValueError("need dimension >= 2")
    if any(not isinstance(n, int) or n < 1 for n in exponents):
        raise ValueError("pure-power exponents must be integers >= 1")
    return sum(exponents) - max(exponents) - (len(exponents) - 1)


def pure_power_report(exponents) -> dict:
    """The payload ``rlr`` prints: the Goto number, the three ideal orders
    and the ratios g(Q) / order as exact fraction strings ("0" when
    g(Q) = 0).

    Q : m^k = Q + m^(T - k + 1) with T = sum(n_i - 1), so its order is
    min(min n_i, T - k + 1); at k = g(Q) that is min n_i."""
    exponents = tuple(exponents)
    g = pure_power_goto(exponents)
    top = sum(exponents) - len(exponents)
    ord_q = min(exponents)
    orders = {
        "ideal": ord_q,
        "colon_m": min(ord_q, top),
        "colon_m_goto": min(ord_q, top - g + 1),
    }
    return {
        "schema": 1,
        "exponents": list(exponents),
        "goto_number": g,
        "orders": orders,
        "ratios": [str(Fraction(g, o)) if g else "0" for o in orders.values()],
    }
