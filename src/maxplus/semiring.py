"""Exact scalar arithmetic over the max-plus semiring (Q and -inf, max, +).

The additive zero is -inf (written ``BOTTOM``), the multiplicative unit is
the rational 0.  All finite values are exact rationals kept in
lowest terms, so structural equality coincides with semantic equality and
no tolerance parameter exists anywhere downstream.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import total_ordering
from typing import Union

RationalLike = Union[int, Fraction, str]


@total_ordering
class MaxPlusScalar:
    """A max-plus scalar: an exact rational, or the semiring zero -inf.

    Instances are immutable values: hashable, totally ordered (with -inf
    strictly below every rational) and safe to share across workers.
    """

    __slots__ = ("value",)

    def __init__(self, value: RationalLike | Fraction | None = None):
        if value is not None and not isinstance(value, Fraction):
            if isinstance(value, float):
                raise TypeError(f"refusing inexact float entry {value!r}; use Fraction")
            value = Fraction(value)
        self.value: Fraction | None = value

    @property
    def is_bottom(self) -> bool:
        return self.value is None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaxPlusScalar):
            return NotImplemented
        return self.value == other.value

    def __lt__(self, other: "MaxPlusScalar") -> bool:
        if self.value is None:
            return other.value is not None
        if other.value is None:
            return False
        return self.value < other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"MaxPlusScalar({str(self)!r})"

    def __str__(self) -> str:
        return "-inf" if self.value is None else str(self.value)


BOTTOM = MaxPlusScalar(None)
_DIGITS = sys.int_info.default_max_str_digits
_PRINTABLE = 10**_DIGITS  # the least int of more than _DIGITS digits


def as_scalar(x) -> MaxPlusScalar:
    """Coerce ints, Fractions, token strings, None or -inf floats to a scalar."""
    if isinstance(x, MaxPlusScalar):
        return x
    if x is None or (isinstance(x, float) and x == float("-inf")):
        return BOTTOM
    if isinstance(x, str):
        return parse_scalar(x)
    return MaxPlusScalar(x)


def parse_scalar(token: str) -> MaxPlusScalar:
    """Parse a scalar token: 'p/q', 'p', or '-inf' / '*' for the zero.

    Any form Fraction(str) reads is accepted, but only a value that prints
    back: its numerator and denominator in lowest terms have at most
    int's default digit limit (4300) of digits each.  A decimal exponent
    larger in magnitude than that limit is refused before any arithmetic,
    as Fraction's time and memory grow with the exponent; int() refuses a
    longer mantissa, and the value's own digits are counted last.
    """
    token = token.strip()
    if token in ("-inf", "*"):
        return BOTTOM
    try:
        _, e, exponent = token.lower().partition("e")
        if e and abs(int(exponent)) > _DIGITS:
            raise ValueError("exponent out of range")
        value = Fraction(token)
        if abs(value.numerator) >= _PRINTABLE or value.denominator >= _PRINTABLE:
            raise ValueError("too many digits to print")
        return MaxPlusScalar(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad scalar token {token!r}") from exc


def scalar_power(a: MaxPlusScalar, t: int) -> MaxPlusScalar:
    """t-fold product of a with itself, i.e. t*a; the empty product is 0."""
    _check_exponent("scalar_power", t)
    if t < 0:
        raise ValueError(f"scalar_power needs t >= 0, got {t}")
    if t == 0:
        return MaxPlusScalar(0)
    if a.value is None:
        return BOTTOM
    return MaxPlusScalar(a.value * t)


def _check_exponent(name: str, t) -> None:
    """Raise TypeError unless the exponent t is an int other than a bool."""
    if isinstance(t, float):
        raise TypeError(f"refusing inexact float exponent {t!r}; {name} needs an int t")
    if isinstance(t, bool) or not isinstance(t, int):
        raise TypeError(f"{name} needs an int t, got {t!r}")


def negate(a: MaxPlusScalar) -> MaxPlusScalar:
    """Multiplicative inverse -a of a finite scalar."""
    if a.value is None:
        raise ValueError("the semiring zero -inf has no multiplicative inverse")
    return MaxPlusScalar(-a.value)
