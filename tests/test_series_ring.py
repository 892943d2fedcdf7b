from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from prymck.exact_arith import factorial
from prymck.series_ring import BetaPoly, ThetaPoly, d_value


def exp_series(cap, sign=1):
    return ThetaPoly(cap, [Fraction(sign**d, factorial(d)) for d in range(cap + 1)])


@st.composite
def theta_polys(draw, cap=None, count=1):
    if cap is None:
        cap = draw(st.integers(min_value=0, max_value=12))
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    polys = tuple(
        ThetaPoly(cap, draw(st.lists(coeff, min_size=cap + 1, max_size=cap + 1)))
        for _ in range(count)
    )
    return polys if count > 1 else polys[0]


def test_truncation_kills_top_product():
    cap = 5
    t = ThetaPoly.monomial(cap, 1, Fraction(1))
    top = ThetaPoly.monomial(cap, cap, Fraction(1))
    assert not (t * top)


def test_one_is_identity():
    x = ThetaPoly(3, [Fraction(1, 3), Fraction(-2), Fraction(0), Fraction(7, 5)])
    assert ThetaPoly.one(3) * x == x


def test_exp_coefficient():
    assert exp_series(4).coeff(3) == Fraction(1, 6)


def test_coeff_outside_cap_is_zero():
    x = ThetaPoly(2, [1, 2, 3])
    assert x.coeff(3) == 0
    assert x.coeff(-1) == 0


def test_cap_mismatch_rejected():
    with pytest.raises(ValueError):
        ThetaPoly.one(2) + ThetaPoly.one(3)
    with pytest.raises(ValueError):
        ThetaPoly.one(2) * ThetaPoly.one(3)


@given(theta_polys(count=3))
def test_ring_laws(polys):
    a, b, c = polys
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_series_vanishing():
    # degree-j coefficient of e^{-x} * e^{x}: sum_k (-1)^k / (k! (j-k)!) == 0
    for j in range(1, 21):
        prod = exp_series(j, sign=-1) * exp_series(j, sign=1)
        assert prod.coeff(j) == 0
        assert prod == ThetaPoly.one(j)


def test_d_value_examples():
    assert d_value(0, 4) == ThetaPoly.one(4)
    assert not d_value(-2, 4)
    assert d_value(3, 4) == ThetaPoly.monomial(4, 3, Fraction(1, 6))
    assert not d_value(5, 4)


def test_theta_json_roundtrip():
    x = ThetaPoly(2, [Fraction(0), Fraction(1, 2), Fraction(-1, 8)])
    d = x.to_json_dict()
    assert d == {"cap": 2, "coeffs": ["0", "1/2", "-1/8"]}
    assert ThetaPoly.from_json_dict(d) == x


def test_theta_json_roundtrip_beta_coeffs():
    x = ThetaPoly(2, [0, BetaPoly({0: Fraction(1, 2)}), BetaPoly({1: Fraction(1, 8)})])
    assert ThetaPoly.from_json_dict(x.to_json_dict()) == x


@pytest.mark.parametrize(
    "d",
    [
        {"cap": 2.9, "coeffs": ["1", "2", "3"]},
        {"cap": 2.0, "coeffs": ["1", "2", "3"]},
        {"cap": True, "coeffs": ["1", "2"]},
        {"cap": True, "coeffs": ["1", "2", "3"]},
        {"cap": "2", "coeffs": ["1", "2", "3"]},
        {"cap": 2, "coeffs": ["1", "2"]},
        {"cap": 2, "coeffs": ["1", "2", "3", "4"]},
        {"cap": 2, "coeffs": "123"},
        {"cap": -1, "coeffs": []},
        {"coeffs": ["1"]},
        {"cap": 0},
        [],
    ],
    ids=[
        "float-cap",
        "integral-float-cap",
        "bool-cap",
        "bool-cap-extra-coeff",
        "string-cap",
        "short-coeffs",
        "long-coeffs",
        "string-coeffs",
        "negative-cap",
        "no-cap",
        "no-coeffs",
        "not-an-object",
    ],
)
def test_theta_json_rejects_bad_cap_or_length(d):
    with pytest.raises(ValueError):
        ThetaPoly.from_json_dict(d)


@pytest.mark.parametrize("key", [" 1_0", "1_0", "-1", "+1", "1.5", "", " 1", "1\n", "\u0661", 1])
def test_beta_json_rejects_non_digit_exponent_keys(key):
    with pytest.raises(ValueError):
        BetaPoly.from_json_obj({key: "2"})
    with pytest.raises(ValueError):
        ThetaPoly.from_json_dict({"cap": 0, "coeffs": [{key: "2"}]})


def test_beta_json_rejects_non_object():
    with pytest.raises(ValueError):
        BetaPoly.from_json_obj(["1"])


@pytest.mark.parametrize("exp", [1.7, 1.0, "1", Fraction(1)], ids=repr)
def test_beta_poly_rejects_non_integer_exponents(exp):
    with pytest.raises(ValueError):
        BetaPoly({exp: 3})


@pytest.mark.parametrize(
    "coeff", [" 3 ", "1_0", "\u0661/2", "1.5", "+1", "1e3", "1/0", "1/-2", "", 0.1, 7, None]
)
def test_json_rejects_coefficients_not_written_by_format_rational(coeff):
    with pytest.raises(ValueError):
        ThetaPoly.from_json_dict({"cap": 0, "coeffs": [coeff]})
    with pytest.raises(ValueError):
        BetaPoly.from_json_obj({"1": coeff})


def test_beta_json_reads_digit_exponent_keys():
    assert BetaPoly.from_json_obj({"0": "1/2", "10": "-3", "2": "-4/10"}) == BetaPoly(
        {0: Fraction(1, 2), 10: -3, 2: Fraction(-2, 5)}
    )


def test_beta_poly_arithmetic():
    b = BetaPoly({1: Fraction(1)})
    two_b = b + b
    assert two_b == BetaPoly({1: 2})
    assert b * b == BetaPoly({2: 1})
    assert (1 + b) * (1 + b) == BetaPoly({0: 1, 1: 2, 2: 1})


def test_beta_poly_constant_equals_fraction():
    assert BetaPoly({0: Fraction(1, 2)}) == Fraction(1, 2)
    assert BetaPoly() == 0
    assert BetaPoly({1: 1}) != Fraction(1)


def test_beta_poly_str():
    assert str(BetaPoly()) == "0"
    assert str(BetaPoly({0: Fraction(1, 2), 1: Fraction(-1, 4)})) == "1/2 - 1/4*b"
    assert str(BetaPoly({2: Fraction(3)})) == "3*b^2"
