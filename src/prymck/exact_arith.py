"""Exact integer and rational arithmetic helpers.

Every quantity in this package is an arbitrary-precision int or a
fractions.Fraction; no floating point is used anywhere. Two conventions
that the rest of the code relies on live here:

* binomial coefficients are defined for an arbitrary integer top index by
  the falling-factorial product, so binom_gen(-2, 3) == -4;
* the alternating prefactor sums appearing in the Euler characteristic
  formula diverge term by term and are evaluated in Abel-summed form,
  as the T^v coefficient of (1 + T)^s / (2 + T).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial as _math_factorial, prod

__all__ = [
    "abel_coefficient",
    "binom_gen",
    "factorial",
    "format_rational",
    "parse_rational",
]


def factorial(n: int) -> int:
    """n! for n >= 0."""
    if n < 0:
        raise ValueError(f"factorial: n must be nonnegative, got {n}")
    return _math_factorial(n)


def binom_gen(s: int, t: int) -> int:
    """Generalized binomial coefficient "s over t".

    Computed as s(s-1)...(s-t+1) / t!, defined for any integer s (negative
    included). For s >= 0 it agrees with the ordinary binomial; in
    particular it is 0 when 0 <= s < t.
    """
    if t < 0:
        raise ValueError(f"binom_gen: t must be nonnegative, got {t}")
    # product of t consecutive integers, so division by t! is exact
    return prod(range(s - t + 1, s + 1)) // _math_factorial(t)


def abel_coefficient(s: int, v: int) -> Fraction:
    """T^v coefficient of the series (1 + T)^s / (2 + T).

    This is the regularized value of the divergent alternating sum
    sum_{u>=0} (-1)^u binom(u+s, v). Expanding 1/(2+T) as a geometric
    series in T/2 gives the finite form evaluated here:

        sum_{k=0}^{v} (-1)^k binom_gen(s, v-k) / 2^(k+1)
    """
    if v < 0:
        raise ValueError(f"abel_coefficient: v must be nonnegative, got {v}")
    total = Fraction(0)
    for k in range(v + 1):
        term = Fraction(binom_gen(s, v - k), 2 ** (k + 1))
        total += -term if k % 2 else term
    return total


def format_rational(x) -> str:
    """Render an exact rational as "p/q", with "/q" omitted when q == 1."""
    return str(Fraction(x))


# format_rational's output: p, or p/q with q nonzero
_RATIONAL = re.compile("-?[0-9]+(/[0-9]*[1-9][0-9]*)?")


def parse_rational(text: str) -> Fraction:
    """Inverse of format_rational: reads a string p or p/q, q nonzero.

    Raises ValueError on anything else, including what Fraction() alone
    would take: whitespace, a leading +, non-ASCII digits, decimals,
    exponents and underscores.
    """
    if not (isinstance(text, str) and _RATIONAL.fullmatch(text)):
        raise ValueError(f"parse_rational: {text!r} is not a string p or p/q of ASCII digits")
    return Fraction(text)
