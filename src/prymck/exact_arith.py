"""Exact integer and rational arithmetic helpers.

Every quantity in this package is an arbitrary-precision int or a
fractions.Fraction; no floating point is used anywhere. Three conventions
that the rest of the code relies on live here:

* binomial coefficients are defined for an arbitrary integer top index by
  the falling-factorial product, so binom_gen(-2, 3) == -4;
* the alternating prefactor sums appearing in the Euler characteristic
  formula diverge term by term and are evaluated in Abel-summed form,
  as the T^v coefficient of (1 + T)^s / (2 + T); one recurrence gives
  them scaled to ints, as a whole row (abel_row) or the last alone
  (abel_last);
* a computed value that fails a check, a chi that is not an integer
  among them, raises CheckFailure.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial, prod

__all__ = [
    "abel_coefficient",
    "abel_last",
    "abel_row",
    "binom_gen",
    "format_rational",
    "parse_rational",
]


class CheckFailure(ArithmeticError):
    """A check on a computed value failed: a chi that is not an integer,
    two chi routes that disagree, or an entry kernel cell that is nonzero
    below its base degree. The command line exits 3 on it. Not exported:
    it is in no __all__."""


def binom_gen(s: int, t: int) -> int:
    """Generalized binomial coefficient "s over t".

    Computed as s(s-1)...(s-t+1) / t!, defined for any integer s (negative
    included). For s >= 0 it agrees with the ordinary binomial; in
    particular it is 0 when 0 <= s < t.
    """
    if t < 0:
        raise ValueError(f"binom_gen: t must be nonnegative, got {t}")
    # product of t consecutive integers, so division by t! is exact
    return prod(range(s - t + 1, s + 1)) // factorial(t)


def _abel_ints(s: int, n: int):
    """Yields a_v = 2^(v+1) * [T^v] (1 + T)^s / (2 + T) for v = 0..n.

    Multiplying the series by 2 + T gives 2 c_v + c_(v-1) = binom(s, v),
    so a_v = 2^v binom(s, v) - a_(v-1) with a_(-1) = 0, and each binom(s, v)
    is binom(s, v-1) * (s - v + 1) / v, an exact division for any integer s.
    The whole walk costs O(n) big-int steps and holds two values at a time.
    """
    if n < 0:
        raise ValueError(f"Abel row: n must be nonnegative, got {n}")
    binom, prev = 1, 0
    for v in range(n + 1):
        if v:
            binom = binom * (s - v + 1) // v
        prev = (binom << v) - prev
        yield prev


def abel_row(s: int, n: int) -> list:
    """The ints a_0..a_n of _abel_ints, as a list."""
    return list(_abel_ints(s, n))


def abel_last(s: int, n: int) -> int:
    """a_n of _abel_ints alone, without holding the row before it."""
    for last in _abel_ints(s, n):
        pass
    return last


def abel_coefficient(s: int, v: int) -> Fraction:
    """T^v coefficient of the series (1 + T)^s / (2 + T).

    This is the regularized value of the divergent alternating sum
    sum_{u>=0} (-1)^u binom(u+s, v), read off abel_last(s, v).
    """
    if v < 0:
        raise ValueError(f"abel_coefficient: v must be nonnegative, got {v}")
    return Fraction(abel_last(s, v), 2 ** (v + 1))


def format_rational(x) -> str:
    """Render an int or a Fraction as "p/q", with "/q" omitted when q == 1.

    Raises TypeError for anything else, a bool, float, Decimal or str
    included: the value is printed as it is, never converted first.
    """
    if type(x) is bool or not isinstance(x, (int, Fraction)):
        raise TypeError(f"format_rational: {x!r} is not an int or a Fraction")
    return str(x)


def parse_rational(text: str) -> Fraction:
    """Inverse of format_rational: reads a string p or p/q, q nonzero.

    Raises ValueError on anything else, including what Fraction() alone
    would take: whitespace, a leading +, non-ASCII digits, decimals,
    exponents and underscores.
    """
    # format_rational's output: p, or p/q with q nonzero; re compiles the
    # pattern on the first call, not when the package is imported
    if not (isinstance(text, str) and re.fullmatch("-?[0-9]+(/[0-9]*[1-9][0-9]*)?", text)):
        raise ValueError(f"parse_rational: {text!r} is not a string p or p/q of ASCII digits")
    return Fraction(text)
