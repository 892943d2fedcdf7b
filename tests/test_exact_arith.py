from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from prymck.exact_arith import (
    abel_coefficient,
    binom_gen,
    factorial,
    format_rational,
    parse_rational,
)


def test_factorial_values():
    assert factorial(0) == 1
    assert factorial(5) == 120
    assert factorial(10) == 3628800


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_binom_gen_ordinary():
    assert binom_gen(5, 2) == 10
    for s in range(0, 12):
        for t in range(0, 15):
            assert binom_gen(s, t) == comb(s, t) if t <= s else binom_gen(s, t) == 0


def test_binom_gen_empty_product():
    for s in (-7, -1, 0, 3, 40):
        assert binom_gen(s, 0) == 1


def test_binom_gen_negative_top():
    # oracle: the direct falling-factorial product (-2)(-3)(-4)/3!
    assert binom_gen(-2, 3) == (-2) * (-3) * (-4) // 6 == -4


def test_binom_gen_rejects_negative_t():
    with pytest.raises(ValueError):
        binom_gen(3, -1)


@given(st.integers(min_value=-20, max_value=20), st.integers(min_value=1, max_value=12))
def test_pascal_rule_any_top(s, t):
    assert binom_gen(s, t) == binom_gen(s - 1, t - 1) + binom_gen(s - 1, t)


def test_alternating_binomial_tail_identity():
    # sum_{u=1}^{lj} (-1)^u C(li+lj, li+u) == -C(li+lj-1, li), checked
    # against math.comb on both sides
    for lj in range(2, 13):
        for li in range(1, lj):
            lhs = sum((-1) ** u * comb(li + lj, li + u) for u in range(1, lj + 1))
            assert lhs == -comb(li + lj - 1, li)
            assert lhs == sum(
                (-1) ** u * binom_gen(li + lj, li + u) for u in range(1, lj + 1)
            )


def test_abel_examples():
    # frozen from the convolution oracle:
    # (1+T)^0/(2+T) = 1/2 - T/4 + ..., (1+T)/(2+T) = 1/2 + T/4 - ...
    assert abel_coefficient(0, 0) == Fraction(1, 2)
    assert abel_coefficient(0, 1) == Fraction(-1, 4)
    assert abel_coefficient(1, 1) == Fraction(1, 4)


def test_abel_rejects_negative_v():
    with pytest.raises(ValueError):
        abel_coefficient(0, -1)


@given(st.fractions(max_denominator=10**6))
def test_rational_string_roundtrip(x):
    assert parse_rational(format_rational(x)) == x


@pytest.mark.parametrize(
    "text", [" 3 ", "\u0661/2", "1e3", "1.5", "1_0", "+1", "1/0", "1/-2", "3/ 4", "", 7, None], ids=repr
)
def test_parse_rational_rejects_what_format_rational_never_writes(text):
    # Fraction() alone reads the first four, and "1_0" on Python >= 3.11 only
    with pytest.raises(ValueError):
        parse_rational(text)


def test_parse_rational_reads_p_and_p_over_q():
    assert parse_rational("-3") == -3
    assert parse_rational("0") == 0
    assert parse_rational("-6/4") == Fraction(-3, 2)
    assert type(parse_rational("5")) is Fraction


def test_rational_format():
    assert format_rational(Fraction(3, 1)) == "3"
    assert format_rational(Fraction(-1, 8)) == "-1/8"
    assert format_rational(0) == "0"
