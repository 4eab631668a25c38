"""Exact scalar arithmetic: the rationals and prime fields F_p.

A field descriptor carries the operations; scalars themselves are plain
values (Fraction for the rationals, int in [0, p) for F_p).  No floating
point anywhere.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError


_WITNESSES = (2, 3, 5, 7)


def check_digit_limit(what: str, text: str, value: Fraction | None = None) -> None:
    """Raise a ParseError if a number in ``text`` -- or, given the parsed
    ``value``, its numerator or denominator (``Fraction`` reads 1.<4300 ones>)
    -- has more digits than Python's limit (``sys.get_int_max_str_digits()``)."""
    limit = sys.get_int_max_str_digits()
    if value is None:
        digits = max(map(len, re.findall(r"\d+", text.replace("_", ""))), default=0)
    else:
        digits = max(_decimal_digits(value.numerator), _decimal_digits(value.denominator))
    if limit and digits > limit:
        raise ParseError(
            f"{what} {text[:16]}... has {digits} digits, over the {limit}-digit limit"
        )


def _decimal_digits(n: int) -> int:
    """Decimal digits of |n| without str(), which refuses integers over the
    limit; the first guess is short by about bits / 10^5 (0.30102 < log10 2)."""
    n = abs(n)
    d = max(1, (n.bit_length() - 1) * 30102 // 100000)
    power = 10**d
    while power <= n:
        power *= 10
        d += 1
    return d


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases 2, 3, 5, 7.

    Exact for every n < 3,215,031,751 (the least strong pseudoprime to
    all four bases), which covers the 2^31 cap on ``PrimeField``.
    """
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Rationals:
    """Descriptor for exact rational scalars (fractions in lowest terms)."""

    zero = Fraction(0)
    one = Fraction(1)

    @property
    def label(self) -> str:
        return "q"

    def of(self, value):
        return Fraction(value)

    def parse(self, text: str):
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            check_digit_limit("rational coefficient", text)
            raise ParseError(f"invalid rational coefficient {text!r}") from exc
        check_digit_limit("rational coefficient", text, value)
        return value

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1, a)


@dataclass(frozen=True)
class PrimeField:
    """Descriptor for the prime field F_p, scalars stored as ints in [0, p)."""

    p: int

    zero = 0
    one = 1

    def __post_init__(self):
        if self.p >= 2**31:
            raise ValueError(f"prime {self.p} too large (must be < 2^31)")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def label(self) -> str:
        return f"fp:{self.p}"

    def of(self, value):
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        return int(value) % self.p

    def parse(self, text: str):
        what = f"coefficient over F_{self.p}"
        try:
            value = Fraction(text)
            check_digit_limit(what, text, value)
            return self.of(value)
        except (ValueError, ZeroDivisionError) as exc:
            check_digit_limit(what, text)
            raise ParseError(f"invalid coefficient {text!r} over F_{self.p}") from exc

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)


RATIONALS = Rationals()


def field_from_label(label: str):
    """Parse a field flag: ``q`` for the rationals, ``fp:P`` for F_P."""
    if label == "q":
        return RATIONALS
    if label.startswith("fp:"):
        try:
            p = int(label[3:])
        except ValueError as exc:
            check_digit_limit("field label", label)
            raise ParseError(f"invalid field label {label!r}") from exc
        try:
            return PrimeField(p)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"invalid field label {label!r} (expected 'q' or 'fp:P')")
