"""Numerical semigroup combinatorics.

A numerical semigroup G is the set of non-negative integer combinations of
generators a_1 < ... < a_d with gcd 1; its complement in the positive
integers is finite.  G is held as the undominated labels (D, S) of each
residue class mod a_1 (``_apery_labels``); the last S of class r is Ap[r],
the least member of G in that class.  Membership, the Frobenius number
(largest integer outside G), the gaps, the genus and the minimal
generators are read off Ap, and the m-adic orders off the labels: the
minimal monomial generators of each power m^g, at most one per class, and
the escape orders, read at the a_1 class tops Ap[u] - a_1 + delta.  The
monomial Goto numbers and the stable Goto number are minima of escape
orders w(alpha), 1 <= alpha <= a_1.
"""

from __future__ import annotations

import heapq
from math import gcd

from .errors import (
    BoundViolation,
    CoprimalityError,
    EmptyError,
    GcdError,
    NotInSemigroup,
)
from .fields import quote_int, quote_ints


def _apery_labels(a1, gens):
    """The undominated labels (D, S) of each residue class mod a1, indexed
    by residue, with D ascending and S descending; ``gens`` are the raw
    generators other than a1.

    Every e in G is k a_1 plus the sum S of a multiset A of the other
    generators, with S <= e and S = e mod a_1.  Its summand count k + |A|
    is (e - D)/a_1 with D = S - |A| a_1, the sum of a - a_1 over A.  So
    ord(e), the largest summand count, is (e - D)/a_1 for the least D
    among the labels (D, S) of class e mod a_1 with S <= e.  A label
    dominates another of its class when neither coordinate is larger, so
    only the undominated labels matter.

    One pass finds them (a bicriteria label-setting shortest path,
    Martins 1984): the edge r -> (r + a) mod a_1 costs (a - a_1, a),
    labels leave the heap in lexicographic order, and a popped label is
    kept only if its S is below the last kept S of its class.
      - Kept labels do not dominate each other: a later one has D no
        smaller and S smaller, and with equal D the smaller S would have
        left the heap first.  So D rises and S falls along each class.
      - Every label is dominated by a kept one, by induction on |A|.  The
        empty multiset gives the first label, (0, 0) in class 0.  Else
        drop one summand a: the rest is dominated by a kept label, whose
        extension by a was pushed and dominates (D, S); once popped, it
        is kept or dominated by a kept label.  A push is skipped only
        when its class already keeps an S no larger, and kept S only
        falls, so the pop would skip it.
    So the kept labels are exactly the undominated ones, and the last S
    of class r is its least S, Ap[r]: the least member of its class has
    no summand a_1, or it would not be the least.

    A label never has a_1 or more summands: among the partial sums of
    a_1 of them two agree mod a_1, so a nonempty sub-multiset B has sum
    0 mod a_1, and A - B is a label of the same class with smaller D and
    S.  So S - D = |A| a_1 < a_1^2, and as it falls strictly along a
    class, each class has at most a_1 labels.

    Non-minimal raw generators add only dominated labels.  Such a c is
    k' a_1 + sum(C) with k' + |C| >= 2 minimal generators, C avoiding
    a_1.  Putting C in place of c keeps the class, does not raise S and
    lowers D by (k' + |C| - 1) a_1 >= a_1.  So the labels are those of
    the minimal generators, and the pass can run before they are known.
    A raw a > a_1 is minimal exactly when its class ends in (a - a_1, a):
    a sum of two nonzero members has a - a_1 in G, so a smaller S ends the
    class, or sums other generators to a, so a smaller D pops first.
    """
    labels = [[] for _ in range(a1)]
    heap = [(0, 0, 0)]
    while heap:
        d, s, r = heapq.heappop(heap)
        kept = labels[r]
        if kept and kept[-1][1] <= s:
            continue
        kept.append((d, s))
        for a in gens:
            t, v = (r + a) % a1, s + a
            if not labels[t] or labels[t][-1][1] > v:
                heapq.heappush(heap, (d + a - a1, v, t))
    return labels


def frobenius_two_generated(a1: int, a2: int) -> int:
    """Closed form a1*a2 - a1 - a2 for the Frobenius number of <a1, a2>."""
    if not (1 < a1 < a2):
        raise ValueError(f"need 1 < a1 < a2, got a1={quote_int(a1)}, a2={quote_int(a2)}")
    if gcd(a1, a2) != 1:
        raise CoprimalityError(f"gcd({quote_int(a1)}, {quote_int(a2)}) = {gcd(a1, a2)} != 1")
    return a1 * a2 - a1 - a2


class NumericalSemigroup:
    """A numerical semigroup given by its minimal generators.

    G is stored as the labels of its residue classes mod a_1
    (``_labels[r]``, see ``_apery_labels``) and the Apery set they end in
    (``_ap[r]`` is the least member of G congruent to r mod a_1), so e is
    in G iff e >= ``_ap[e % a_1]``, f = max(``_ap``) - a_1, m-adic orders
    are read off the labels of one class, and escape orders at the a_1
    class tops.  Instances are immutable after construction; the private
    memos (power generators, escape orders, monomial floors, gap bits)
    fill lazily and only grow, read by no other module.
    """

    def __init__(self, raw_generators):
        raw = list(raw_generators)
        if not raw:
            raise EmptyError("generator list is empty")
        for a in raw:
            if not isinstance(a, int) or a <= 0:
                raise ValueError(f"generator {quote_int(a)} is not a positive integer")
        g = 0
        for a in raw:
            g = gcd(g, a)
        if g != 1:
            listed = ", ".join(map(quote_int, sorted(set(raw))))
            raise GcdError(f"gcd of generators [{listed}] is {quote_int(g)}, not 1")
        raw = sorted(set(raw))
        a1 = raw[0]
        self._a1 = a1
        self._labels = labels = _apery_labels(a1, raw[1:])
        self._ap = ap = [kept[-1][1] for kept in labels]
        self.generators = (a1,) + tuple(a for a in raw[1:] if labels[a % a1][-1] == (a - a1, a))
        self.frobenius = max(ap) - a1
        # R-module generators of the conductor x^(f+1)V
        self.conductor_generators = tuple(
            range(self.frobenius + 1, self.frobenius + self.generators[0] + 1)
        )
        self._tops = sorted(ap, reverse=True)
        self._powers = {}           # g -> exponents of order exactly g
        self._escape = {}           # delta -> escape_order(delta)
        self._floors = {}           # min(b, f + a_1 + 1) -> monomial_floor(b)
        self._gap_bits = None       # gap_bits()

    # -- basic queries ---------------------------------------------------

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    @property
    def embedding_dim(self) -> int:
        return len(self.generators)

    @property
    def gaps(self) -> tuple:
        """The integers in [1, f] outside G, ascending: class r mod a_1
        holds the gaps r, r + a_1, ..., Ap[r] - a_1."""
        gaps = []
        for r, w in enumerate(self._ap):
            gaps.extend(range(r, w, self._a1))
        gaps.sort()
        return tuple(gaps)

    def gap_bits(self) -> int:
        """The gaps as a bitset, bit k set exactly when k is a gap, built
        once from the classes as ``gaps`` reads them and memoized."""
        if self._gap_bits is None:
            bits = bytearray(b"0") * (self.frobenius + 2)  # f + 1 stays 0; <1> reads 0
            for r, w in enumerate(self._ap):
                bits[r:w:self._a1] = b"1" * (w // self._a1)
            self._gap_bits = int(bits[::-1], 2)
        return self._gap_bits

    @property
    def is_regular(self) -> bool:
        """True when G is all of N_0, i.e. the semigroup ring is a DVR."""
        return self.generators[0] == 1

    def __eq__(self, other):
        return (
            isinstance(other, NumericalSemigroup)
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return f"NumericalSemigroup{self.generators}"

    def contains(self, e: int) -> bool:
        # every Apery element is >= 0, so negative e is never a member
        return e >= self._ap[e % self._a1]

    def members(self, lo: int, hi: int):
        """Ascending list of semigroup elements in [lo, hi]."""
        return [e for e in range(max(lo, 0), hi + 1) if self.contains(e)]

    def largest_below(self, a: int) -> int:
        """Largest semigroup element strictly smaller than a (0 if none):
        the largest e in [a - a_1, a - 1] with e >= Ap[e mod a_1], one per
        class, since G is closed under adding a_1 and 0 is in G."""
        if a < 1:
            raise ValueError(f"need a >= 1, got {quote_int(a)}")
        return next(e for e in range(a - 1, a - self._a1 - 1, -1) if self.contains(e))

    # -- generator sums ----------------------------------------------------

    def generator_sums(self, t: int, cap: int) -> set:
        """Sums of exactly t generators (with repetition), capped at ``cap``."""
        if t < 0:
            raise ValueError(f"need t >= 0, got {quote_int(t)}")
        if cap < 0:
            raise ValueError(f"need cap >= 0, got {quote_int(cap)}")
        sums = {0}
        for _ in range(t):
            sums = {v for s in sums for a in self.generators if (v := s + a) <= cap}
        return sums

    # -- m-adic orders ------------------------------------------------------

    def _order(self, e: int):
        """m-adic order of e, None when e is outside G: (e - D)/a_1 for the
        first label (D, S) of class e mod a_1 with S <= e."""
        for d, s in self._labels[e % self._a1]:
            if s <= e:
                return (e - d) // self._a1
        return None

    def madic_order(self, e: int) -> int:
        """Largest t with x^e in m^t.  Order of x^0 is 0 by convention."""
        order = self._order(e)
        if order is None:
            raise NotInSemigroup(
                f"{quote_int(e)} is not in the semigroup {quote_ints(self.generators)}"
            )
        return order

    def power_generators(self, g: int, cap: int) -> tuple:
        """Ascending exponents e <= cap of m-adic order exactly g: the
        minimal monomial generators of m^g.

        Every member of m^g is one of them plus an element of G: one of
        order t > g is a sum of t generators, the first g of which give a
        smaller member of m^g that it exceeds by an element of G, and the
        descent ends at order g.  The members of class r in m^n start at
        Ap(nM)[r], the least max(S, D + n a_1) over the labels (D, S) of
        the class, as S and D + n a_1 are both r mod a_1.  Adding a_1
        raises the order, so each class holds at most one exponent of
        order g: Ap(gM)[r] when it is below Ap((g+1)M)[r].  Memoized per g.
        """
        if g < 0:
            raise ValueError(f"need g >= 0, got {quote_int(g)}")
        exponents = self._powers.get(g)
        if exponents is None:
            lo, hi = g * self._a1, (g + 1) * self._a1
            exponents = self._powers[g] = sorted(
                e
                for labels in self._labels
                if (e := min(max(s, d + lo) for d, s in labels))
                < min(max(s, d + hi) for d, s in labels)
            )
        return tuple(e for e in exponents if e <= cap)

    def escape_order(self, delta: int) -> int:
        """Largest m-adic order among x^e with e in G, e <= f + delta, and
        e - delta outside G.

        e = 0 qualifies, so the value is >= 0.  With u = (e - delta) mod
        a_1, e - delta is outside G iff e <= Ap[u] - a_1 + delta, the top
        of class u; G and the order only grow along e -> e + a_1 (replace a
        summand s by s + a_1), so the value is the largest order at a top
        in G.  Tops go by descending Ap[u] while top // a_1, a bound on the
        order, can beat the best.

        m^t lies in x^delta R exactly when the value is below t: an x^e of
        order >= t with e - delta outside G is a witness, and none has
        e > f + delta.
        """
        if delta < 1:
            raise ValueError(f"need delta >= 1, got {quote_int(delta)}")
        cached = self._escape.get(delta)
        if cached is not None:
            return cached
        a1 = self._a1
        best = 0
        for w in self._tops:
            top = w - a1 + delta
            if top // a1 <= best:
                break
            order = self._order(top)
            if order is not None and order > best:
                best = order
        self._escape[delta] = best
        return best

    # -- stable Goto number characterizations -------------------------------

    def stable_goto_via_t(self) -> int:
        """Largest t with m^t escaping x^alpha R for every alpha in [1, a_1].

        m^t lies in x^alpha R exactly when s - alpha is in G for every sum
        s of t generators; sums with s - alpha > f pass automatically, so
        the sums are kept up to f + a_1, one level per t.
        """
        a1, gens, cap = self.multiplicity, self.generators, self.frobenius + self.multiplicity
        level = {0}
        for t in range(1, self.frobenius // a1 + 3):
            level = {v for s in level for a in gens if (v := s + a) <= cap}
            if any(all(self.contains(s - alpha) for s in level) for alpha in range(1, a1 + 1)):
                return t - 1
        raise BoundViolation("stable value escaped its proven bound")

    def stable_goto_via_t_prime(self) -> int:
        """Minimum over alpha in [1, a_1] of the largest m-adic order among
        exponents whose shift by alpha leaves the semigroup: g(x^(f+a_1+1))."""
        return self.monomial_floor(self.frobenius + self.multiplicity + 1)[0]

    def monomial_floor(self, b: int):
        """The pair (g(x^b), U(b) == g(x^b)) for b >= 1 in G, with U(b) the
        least escape order w(alpha) over 1 <= alpha <= min(b - f - 1, a_1):
        the Goto number of x^b R (``colon.goto_monomial``) and whether the
        conductor lemma decides every ideal of valuation b
        (``colon.goto_number``).  Memoized per b up to f + a_1 + 1, past
        which the pair no longer depends on b.  g(x^b) is the least w(alpha)
        over 1 <= alpha <= a_1 with b - alpha in G (``colon.goto_monomial``).
        """
        f, a1 = self.frobenius, self.multiplicity
        key = min(b, f + a1 + 1)
        known = self._floors.get(key)
        if known is not None:
            return known
        alphas = (alpha for alpha in range(1, a1 + 1) if self.contains(b - alpha))
        value = min(map(self.escape_order, alphas))
        if value > f // a1 + 1:
            raise BoundViolation(
                f"g(x^{quote_int(b)}) = {value} escapes the proven bound {f // a1 + 1}"
            )
        upper = min(
            (self.escape_order(a) for a in range(1, min(b - f - 1, a1) + 1)),
            default=None,
        )
        known = self._floors[key] = (value, value == upper)
        return known

    # -- symmetry and conductor ---------------------------------------------

    def is_symmetric(self) -> bool:
        """True iff for every n in [0, f] exactly one of n, f - n is in G.

        n in G puts f - n outside G, since G is closed under addition and
        f is not in G.  So at least half of [0, f] are gaps, and exactly one
        of each pair is in G iff the gaps number (f + 1)/2.  Class r mod a_1
        holds the Ap[r] // a_1 gaps r, r + a_1, ..., Ap[r] - a_1, so the
        genus is their sum (Selmer's formula).
        """
        genus = sum(w // self._a1 for w in self._ap)
        return 2 * genus == self.frobenius + 1

    def conductor_order(self) -> int:
        """m-adic order of the conductor ideal x^(f+1)V.

        The minimum order over the monomials x^e with e >= f + 1 is
        attained on the R-module generators, e in [f+1, f+a_1]: for larger
        e, x^(e-a_1) lies in the conductor and x^e = x^(a_1) x^(e-a_1) has
        order at least one more.
        """
        return min(self.madic_order(e) for e in self.conductor_generators)
