"""Exact scalar arithmetic: the rationals and prime fields F_p.

A field descriptor carries the operations; scalars themselves are plain
values (Fraction for the rationals, int in [0, p) for F_p).  No floating
point anywhere.  Every number the CLI reads goes through ``read_number``:
an optional sign and ASCII digits, ``[+-]?[0-9]+``, and for a coefficient
an optional ``/[0-9]+``.  Decimals, exponent notation, ``_`` separators,
whitespace and non-ASCII digits are refused.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError


_WITNESSES = (2, 3, 5, 7)

# an unsigned coefficient; ``ring._TERM_RE`` reads a term's sign apart
COEFFICIENT = r"[0-9]+(?:/[0-9]+)?"
_NUMBER = re.compile(r"[+-]?" + COEFFICIENT)


def quote(text: str) -> str:
    """``text`` quoted for an error message, cut to its first 16 characters."""
    return repr(text[:16]) + ("..." if len(text) > 16 else "")


def quote_int(n: int) -> str:
    """An int (its repr) for an error message, cut as ``quote`` cuts text:
    its first 16 characters, then ``...``; a number needs no quotes."""
    text = repr(n)
    return text if len(text) <= 16 else text[:16] + "..."


def quote_ints(values) -> str:
    """A tuple of ints for an error message, each cut by ``quote_int``:
    ``(3, 5)``, ``(1,)``."""
    texts = [quote_int(v) for v in values]
    return f"({', '.join(texts)}{',' if len(texts) == 1 else ''})"


def read_number(text: str, what: str, fraction: bool = False):
    """The int ``text`` spells, or with ``fraction`` the Fraction.  ``int``
    runs only on text in the grammar with no digit run over Python's
    integer-string limit; otherwise a ParseError names ``what`` and echoes
    at most 16 characters of the text."""
    if not (text.isdigit() and text.isascii()) and (
        _NUMBER.fullmatch(text) is None or ("/" in text and not fraction)
    ):
        raise ParseError(f"invalid {what} {quote(text)}")
    limit = sys.get_int_max_str_digits()
    if limit and len(text) > limit:
        digits = max(map(len, re.findall("[0-9]+", text)))
        if digits > limit:
            raise ParseError(
                f"{what} {text[:16]}... has {digits} digits, over the {limit}-digit limit"
            )
    if not fraction:
        return int(text)
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise ParseError(f"invalid {what} {quote(text)}") from None


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

    p = 0  # no modulus: integer arithmetic over Q stays in Z
    zero = Fraction(0)
    one = Fraction(1)

    @property
    def label(self) -> str:
        return "q"

    def of(self, value):
        return value if type(value) is Fraction else Fraction(value)

    def parse(self, text: str):
        return read_number(text, "rational coefficient", fraction=True)

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
            raise ValueError(f"prime {quote_int(self.p)} too large (must be < 2^31)")
        if not _is_prime(self.p):
            raise ValueError(f"{quote_int(self.p)} is not prime")

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
            return self.of(read_number(text, what, fraction=True))
        except ZeroDivisionError as exc:
            raise ParseError(f"invalid {what} {quote(text)}: {exc}") from None

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
            return PrimeField(read_number(label[3:], "field prime"))
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"invalid field label {quote(label)} (expected 'q' or 'fp:P')")
