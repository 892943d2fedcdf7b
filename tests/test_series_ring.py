from decimal import Decimal
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from prymck.exact_arith import ValidationError
from prymck.series_ring import BetaPoly, ThetaPoly


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


# (x, y, x * y): the product loop's one slot-type contract. A slot no
# nonzero pair reaches is int 0, whatever the type of the zeros; one reached
# by int x int pairs alone is an int; any other is the exact sum in the
# coefficients' ring.
_PRODUCT_CASES = {
    "mixed": (
        [2, Fraction(0), Fraction(1, 3), 0],
        [3, 0, Fraction(0), Fraction(1, 2)],
        [6, 0, Fraction(1), Fraction(1)],
    ),
    "int-zero-operand": ([0, 0, 0, 0], [Fraction(1, 3), 2, Fraction(-1, 2), 5], [0, 0, 0, 0]),
    "fraction-zero-operand": ([Fraction(0)] * 4, [Fraction(1, 3), 2, Fraction(-1, 2), 5], [0, 0, 0, 0]),
    "all-int": ([1, -2, 0, 4], [3, 0, 5, -1], [3, -6, 5, 1]),
    "beta": (
        [0, BetaPoly({0: 2}), 0, BetaPoly({1: Fraction(1, 2)})],
        [0, BetaPoly({1: -1}), BetaPoly({2: 3}), 0],
        [0, 0, BetaPoly({1: -2}), BetaPoly({2: 6})],
    ),
}


def test_product_keeps_int_zero_and_int_slots():
    # every case in one test, each in both orders: slot by slot, type and value
    for name, (x, y, want) in _PRODUCT_CASES.items():
        for a, b in ((x, y), (y, x)):
            got = (ThetaPoly(3, a) * ThetaPoly(3, b)).coeffs
            assert [(type(c), c) for c in got] == [(type(c), c) for c in want], name


def test_theta_poly_takes_exactly_cap_plus_one_values():
    # a series holds what its caller builds: cap values are not padded with
    # an int 0, cap + 2 lose no slot off the top, and no values is no series
    for count in (3, 5, 0):
        with pytest.raises(ValueError, match=f"cap 3 needs 4 coefficients, got {count}"):
            ThetaPoly(3, range(count))
    with pytest.raises(TypeError):
        ThetaPoly(3)
    assert ThetaPoly(3, range(4)).coeffs == (0, 1, 2, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: ThetaPoly(True, [1, 2]),
        lambda: ThetaPoly(2.0, [1, 2, 3]),
        lambda: ThetaPoly.monomial(3, True, 5),
        lambda: BetaPoly({True: 3}),
    ],
    ids=["bool cap", "float cap", "bool degree", "bool exponent"],
)
def test_integer_slots_refuse_bools_and_floats(build):
    # a cap, a degree and an exponent are genuine integers, by
    # exact_arith._strict_int: a bool is not read as 1, nor 2.0 as 2
    with pytest.raises(ValidationError):
        build()


def test_theta_poly_zero_and_monomial_hold_int_zeros():
    assert ThetaPoly.zero(3).coeffs == (0, 0, 0, 0)
    assert ThetaPoly.monomial(3, 4, Fraction(1, 2)).coeffs == (0, 0, 0, 0)
    assert [type(c) for c in ThetaPoly.monomial(3, 2, Fraction(1, 2)).coeffs] == [int, int, Fraction, int]


@pytest.mark.parametrize("bad", ["1/2", 0.5, True, Decimal("0.5")], ids=["str", "float", "bool", "Decimal"])
def test_beta_poly_refuses_coefficients_that_are_not_int_or_fraction(bad):
    # Fraction() would take each of them; BetaPoly converts nothing
    with pytest.raises(TypeError, match="is not an int or a Fraction"):
        BetaPoly({1: bad})


def test_beta_poly_stores_coefficients_as_given():
    half = Fraction(1, 2)
    assert [c for _, c in BetaPoly({0: half, 1: 3, 2: 0}).items()] == [half, 3]
    assert BetaPoly({0: half}).items()[0][1] is half
    assert type(BetaPoly({1: 3}).items()[0][1]) is int


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


@pytest.mark.parametrize(
    "key", [" 1_0", "1_0", "-1", "+1", "1.5", "", " 1", "1\n", "\u0661", 1, "01", "00"]
)
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
