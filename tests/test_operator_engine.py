from fractions import Fraction

import pytest

from prymck.exact_arith import abel_coefficient, factorial
from prymck.operator_engine import (
    SYMBOLIC,
    ShiftMonomial,
    ShiftOperatorPoly,
    apply_pair_operator,
    interaction_expansion,
    prefactor_expansion,
)
from prymck.series_ring import BetaPoly, ThetaPoly


IDENTITY_OP = ShiftOperatorPoly((ShiftMonomial(Fraction(1), 0, 0),))
TRIVIAL_PRE = (Fraction(1),)
MODES = (0, -1, SYMBOLIC)


def reference_apply(op, base, prefactors_i, prefactors_j, cap):
    """Direct O(cap^4) sum over (v_i, v_j, operator term): the reference
    that apply_pair_operator's two-stage integer kernel must reproduce."""
    li, lj = base
    out = [0] * (cap + 1)
    for vi, pi in enumerate(prefactors_i):
        if vi > cap or not pi:
            continue
        for vj, pj in enumerate(prefactors_j):
            if vj > cap or not pj:
                continue
            pij = pi * pj
            for t in op.terms:
                ii = li + vi + t.raise_i
                jj = lj + vj - t.lower_j
                if jj < 0:
                    continue
                d = ii + jj
                if d > cap:
                    continue
                out[d] = out[d] + pij * t.coeff * Fraction(1, factorial(ii) * factorial(jj))
    return ThetaPoly(cap, out)


def test_prefactor_examples():
    assert prefactor_expansion(0, 4, -1)[0] == Fraction(1, 2)
    assert prefactor_expansion(1, 4, -1)[1] == Fraction(1, 4)
    for s in (-3, 0, 2, 5):
        assert prefactor_expansion(s, 4, 0) == (Fraction(1, 2),) + (Fraction(0),) * 4


def test_prefactor_beta_minus_one_is_abel():
    for s in range(-6, 7):
        pre = prefactor_expansion(s, 8, -1)
        for v in range(9):
            assert pre[v] == abel_coefficient(s, v)


def test_prefactor_symbolic_specializes():
    for s in range(-6, 7):
        sym = prefactor_expansion(s, 10, SYMBOLIC)
        for beta in (0, -1):
            direct = prefactor_expansion(s, 10, beta)
            for v in range(11):
                assert sym[v].specialize(beta) == direct[v]


def test_interaction_examples():
    op = interaction_expansion(6, -1)
    assert op.coefficient(1, 1) == Fraction(-2)
    assert op.coefficient(0, 0) == Fraction(1)
    assert op.coefficient(2, 0) == Fraction(1)
    assert op.coefficient(2, 1) == Fraction(3)
    op0 = interaction_expansion(6, 0)
    assert op0.coefficient(0, 0) == Fraction(1)
    assert op0.coefficient(1, 1) == Fraction(-2)
    assert op0.coefficient(2, 2) == Fraction(2)
    assert op0.coefficient(1, 0) == 0
    assert op0.coefficient(2, 0) == 0


def test_interaction_symbolic_specializes():
    sym = interaction_expansion(10, SYMBOLIC)
    for beta in (0, -1):
        direct = interaction_expansion(10, beta)
        for a in range(11):
            for b in range(a + 1):
                got = sym.coefficient(a, b)
                got = got.specialize(beta) if got else Fraction(0)
                want = direct.coefficient(a, b)
                assert got == (want if want else Fraction(0)), (a, b, beta)


def test_interaction_reconstructs_numerator():
    # multiplying the expansion by (1 + R + T_i) must give back 1 - R:
    # coefficient 1 at (0, 0), -1 at (1, 1), 0 at every other retained slot
    cap = 10
    op = interaction_expansion(cap, -1)
    got = {}
    for t in op.terms:
        for da, db in ((0, 0), (1, 1), (1, 0)):  # id, R, T_i
            key = (t.raise_i + da, t.lower_j + db)
            got[key] = got.get(key, Fraction(0)) + t.coeff
    for (a, b), c in got.items():
        if a > cap:  # beyond the truncation boundary, not reconstructed
            continue
        expected = Fraction(1) if (a, b) == (0, 0) else Fraction(-1) if (a, b) == (1, 1) else Fraction(0)
        assert c == expected, (a, b, c)


def test_no_duplicate_terms():
    with pytest.raises(ValueError):
        ShiftOperatorPoly(
            (ShiftMonomial(Fraction(1), 1, 0), ShiftMonomial(Fraction(2), 1, 0))
        )


def test_apply_full_entry_coefficient():
    # base (2, 1) at beta = -1: the degree-3 coefficient of the full entry
    # is (1/2)^2 * (1/2 - 1/3) = 1/24, frozen from the hand expansion
    cap = 4
    pre = prefactor_expansion(0, cap, -1)
    op = interaction_expansion(cap, -1)
    entry = apply_pair_operator(op, (2, 1), pre, pre, cap)
    assert entry.coeff(3) == Fraction(1, 24)


def test_apply_cap_below_base_degree_gives_zero():
    pre = prefactor_expansion(0, 2, -1)
    op = interaction_expansion(2, -1)
    assert not apply_pair_operator(op, (2, 1), pre, pre, 2)


def test_apply_identity_operator():
    out = apply_pair_operator(IDENTITY_OP, (1, 0), TRIVIAL_PRE, TRIVIAL_PRE, 3)
    assert out == ThetaPoly.monomial(3, 1, Fraction(1))


def test_lowered_index_truncation():
    # a pure lowering below zero contributes exactly nothing
    drop = ShiftOperatorPoly((ShiftMonomial(Fraction(1), 0, 2),))
    out = apply_pair_operator(drop, (3, 1), TRIVIAL_PRE, TRIVIAL_PRE, 8)
    assert not out


def test_symbolic_entry_specializes_to_direct():
    cap = 5
    for li, lj in ((1, 0), (2, 1), (3, 2)):
        sym = apply_pair_operator(
            interaction_expansion(cap, SYMBOLIC),
            (li, lj),
            prefactor_expansion(0, cap, SYMBOLIC),
            prefactor_expansion(-1, cap, SYMBOLIC),
            cap,
        )
        for beta in (0, -1):
            direct = apply_pair_operator(
                interaction_expansion(cap, beta),
                (li, lj),
                prefactor_expansion(0, cap, beta),
                prefactor_expansion(-1, cap, beta),
                cap,
            )
            assert sym.specialize_beta(beta) == direct


def test_bad_beta_mode_rejected():
    with pytest.raises(ValueError):
        prefactor_expansion(0, 3, 1)
    with pytest.raises(ValueError):
        interaction_expansion(3, "beta")


def test_expansions_are_cached():
    assert prefactor_expansion(2, 6, -1) is prefactor_expansion(2, 6, -1)
    assert interaction_expansion(6, 0) is interaction_expansion(6, 0)


@pytest.mark.parametrize("cap", range(16))
@pytest.mark.parametrize("mode", MODES)
def test_kernel_matches_reference(mode, cap):
    # every base pair up to cap + 1 on each side, so entries with nothing
    # in range are covered; the prefactor shifts run through -8..3
    op = interaction_expansion(cap, mode)
    for li in range(cap + 2):
        for lj in range(cap + 2):
            si = -8 + (li + 3 * lj + cap) % 12
            sj = -8 + (5 * li + lj + 7) % 12
            args = (op, (li, lj), prefactor_expansion(si, cap, mode), prefactor_expansion(sj, cap, mode), cap)
            got, want = apply_pair_operator(*args), reference_apply(*args)
            assert got == want, (li, lj, si, sj)
            # a reached degree whose terms cancel is a Fraction or BetaPoly,
            # an unreached one int 0; JSON tells BetaPoly() apart from 0
            assert got.to_json_dict() == want.to_json_dict(), (li, lj, si, sj)
            assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def test_kernel_matches_reference_on_hand_built_operators():
    # lowerings past the base, off-triangle terms and zero coefficients
    plain_ops = (
        IDENTITY_OP,
        ShiftOperatorPoly((ShiftMonomial(Fraction(1), 0, 2),)),
        ShiftOperatorPoly((ShiftMonomial(Fraction(3), 2, 0), ShiftMonomial(Fraction(0), 1, 3))),
    )
    plain_pre = (Fraction(1, 2), Fraction(0), Fraction(-3, 8))
    beta_op = ShiftOperatorPoly(
        (ShiftMonomial(BetaPoly({1: 2}), 2, 1), ShiftMonomial(BetaPoly({0: -1}), 1, 1), ShiftMonomial(BetaPoly(), 0, 2))
    )
    beta_trivial = (BetaPoly({0: 1}),)
    beta_pre = (BetaPoly({0: Fraction(1, 2)}), BetaPoly(), BetaPoly({2: Fraction(-3, 8)}))
    cases = [(op, TRIVIAL_PRE, plain_pre) for op in plain_ops] + [(beta_op, beta_trivial, beta_pre)]
    for op, trivial, pre in cases:
        for base in ((0, 0), (1, 2), (3, 0)):
            for pre_i, pre_j in ((trivial, trivial), (pre, trivial), (trivial, pre), (pre, pre)):
                got = apply_pair_operator(op, base, pre_i, pre_j, 6)
                want = reference_apply(op, base, pre_i, pre_j, 6)
                assert got == want and got.to_json_dict() == want.to_json_dict(), (op, base)
                assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def test_kernel_rejects_non_dyadic_prefactor():
    op = interaction_expansion(4, -1)
    with pytest.raises(ValueError, match="integral"):
        apply_pair_operator(op, (1, 0), (Fraction(1, 3),), TRIVIAL_PRE, 4)
    with pytest.raises(ValueError, match="integral"):
        # 1/64 needs 2^6, the scale at cap 4 is 2^5
        apply_pair_operator(op, (1, 0), (Fraction(1, 64),), TRIVIAL_PRE, 4)


def test_kernel_rejects_non_integral_operator():
    op = ShiftOperatorPoly((ShiftMonomial(Fraction(1, 2), 0, 0),))
    with pytest.raises(ValueError, match="not integral"):
        apply_pair_operator(op, (1, 0), TRIVIAL_PRE, TRIVIAL_PRE, 3)


def test_kernel_rejects_inhomogeneous_symbolic_input():
    cap = 4
    op = interaction_expansion(cap, SYMBOLIC)
    pre = prefactor_expansion(-1, cap, SYMBOLIC)
    wrong_exponent = (pre[0], BetaPoly({2: 1}))
    two_terms = (pre[0], BetaPoly({0: 1, 1: 1}))
    for bad in (wrong_exponent, two_terms):
        with pytest.raises(ValueError, match="multiple of beta"):
            apply_pair_operator(op, (1, 0), bad, pre, cap)
    bad_op = ShiftOperatorPoly((ShiftMonomial(BetaPoly({0: 1}), 1, 0),))
    with pytest.raises(ValueError, match="multiple of beta"):
        apply_pair_operator(bad_op, (1, 0), pre, pre, cap)


def test_kernel_rejects_mixed_coefficient_kinds():
    cap = 4
    sym_op, sym_pre = interaction_expansion(cap, SYMBOLIC), prefactor_expansion(-1, cap, SYMBOLIC)
    plain_op, plain_pre = interaction_expansion(cap, -1), prefactor_expansion(-1, cap, -1)
    for op, pre_i, pre_j in (
        (sym_op, plain_pre, sym_pre),
        (sym_op, sym_pre, (sym_pre[0], Fraction(1, 4))),
        (plain_op, sym_pre, plain_pre),
    ):
        with pytest.raises(ValueError, match="like the operator"):
            apply_pair_operator(op, (1, 0), pre_i, pre_j, cap)
    mixed_op = ShiftOperatorPoly((ShiftMonomial(BetaPoly({0: 1}), 0, 0), ShiftMonomial(Fraction(1), 1, 1)))
    with pytest.raises(ValueError, match="like the operator"):
        apply_pair_operator(mixed_op, (1, 0), sym_pre, sym_pre, cap)


def _sympy_value(sympy, c, beta):
    # a Fraction, int 0 or BetaPoly coefficient as a sympy expression
    if isinstance(c, BetaPoly):
        return sum(
            (sympy.Rational(val.numerator, val.denominator) * beta**e for e, val in c.items()),
            sympy.Integer(0),
        )
    c = Fraction(c)
    return sympy.Rational(c.numerator, c.denominator)


def test_expansions_match_sympy_series():
    # outside anchor: both expansions against sympy's Taylor series of their
    # generating functions, (1 - bT)^s / (2 - bT) and (1 - R) / (1 + R - bT_i)
    # with R = xy and T_i = x, so the (a, b) coefficient is that of x^a y^b
    sympy = pytest.importorskip("sympy")
    top = 8
    b, t, x, y = sympy.symbols("beta t x y")
    for mode, beta in ((0, sympy.Integer(0)), (-1, sympy.Integer(-1)), (SYMBOLIC, b)):
        for s in range(-4, 5):
            series = sympy.series((1 - beta * t) ** s / (2 - beta * t), t, 0, top + 1).removeO()
            want = [sympy.expand(series.coeff(t, v)) for v in range(top + 1)]
            for cap in range(top + 1):
                got = prefactor_expansion(s, cap, mode)
                assert len(got) == cap + 1
                for v in range(cap + 1):
                    assert sympy.expand(_sympy_value(sympy, got[v], b) - want[v]) == 0, (mode, s, cap, v)
        series = sympy.series((1 - x * y) / (1 + x * y - beta * x), x, 0, top + 1).removeO()
        rows = [sympy.Poly(sympy.expand(series.coeff(x, a)), y) for a in range(top + 1)]
        for cap in range(top + 1):
            op = interaction_expansion(cap, mode)
            for a in range(cap + 1):
                for lower in range(cap + 1):
                    want = rows[a].coeff_monomial(y**lower)
                    got = _sympy_value(sympy, op.coefficient(a, lower), b)
                    assert sympy.expand(got - want) == 0, (mode, cap, a, lower)
