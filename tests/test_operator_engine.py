from fractions import Fraction

import pytest

from prymck.exact_arith import abel_coefficient, binom_gen, factorial
from prymck.operator_engine import (
    ShiftMonomial,
    ShiftOperatorPoly,
    apply_pair_operator,
    interaction_expansion,
    prefactor_expansion,
)
from prymck.prym_bn import SYMBOLIC
from prymck.series_ring import BetaPoly, ThetaPoly


IDENTITY_OP = ShiftOperatorPoly((ShiftMonomial(Fraction(1), 0, 0),))
TRIVIAL_PRE = (Fraction(1),)
MODES = (0, -1, SYMBOLIC)


def times_beta_power(c, beta, e):
    """c * beta^e, a BetaPoly when beta is SYMBOLIC."""
    if beta == SYMBOLIC:
        return BetaPoly({e: c})
    return Fraction(c) * Fraction(beta) ** e


def at_beta(c, beta):
    """A BetaPoly coefficient, or a plain rational, evaluated at a rational beta."""
    if isinstance(c, BetaPoly):
        return sum((x * beta**e for e, x in c.items()), Fraction(0))
    return Fraction(c)


def general_prefactor(s, cap, beta):
    """T^0..T^cap coefficients of (1 - beta*T)^s / (2 - beta*T) by their
    closed form beta^v * sum_j (-1)^j binom(s, j) / 2^(v+1-j)."""
    return tuple(
        times_beta_power(
            sum(Fraction((-1) ** j * binom_gen(s, j), 2 ** (v + 1 - j)) for j in range(v + 1)), beta, v
        )
        for v in range(cap + 1)
    )


def general_interaction(cap, beta):
    """(1 - R) / (1 + R - beta*T_i) by its closed form
    (-1)^b * (binom(a, b) + binom(a-1, b-1)) * beta^(a-b), zero terms left out."""
    terms = []
    for a in range(cap + 1):
        for b in range(a + 1):
            base = binom_gen(a, b) + (binom_gen(a - 1, b - 1) if b else 0)
            c = times_beta_power((-1) ** b * base, beta, a - b)
            if c:
                terms.append(ShiftMonomial(c, a, b))
    return ShiftOperatorPoly(tuple(terms))


def lift_entry(entry, low, mode):
    """A beta = -1 entry with base degree low at another mode, by homogeneity:
    degree d gains (-beta)^(d - low), so beta = 0 keeps degree low alone."""
    if mode == -1:
        return entry
    if mode == 0:
        return ThetaPoly.monomial(entry.cap, low, entry.coeff(low))

    def lift(d, c):
        if isinstance(c, int):
            return c
        return BetaPoly({d - low: -c if (d - low) % 2 else c}) if c else BetaPoly()

    return ThetaPoly(entry.cap, [lift(d, c) for d, c in enumerate(entry.coeffs)])


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
    assert prefactor_expansion(0, 4)[0] == Fraction(1, 2)
    assert prefactor_expansion(1, 4)[1] == Fraction(1, 4)


def test_prefactor_beta_minus_one_is_abel():
    for s in range(-6, 7):
        pre = prefactor_expansion(s, 8)
        for v in range(9):
            assert pre[v] == abel_coefficient(s, v)


def test_prefactor_symbolic_specializes():
    # the general-beta closed form at several beta against the beta = -1
    # expansion times (-beta)^v
    for s in range(-6, 7):
        sym = general_prefactor(s, 10, SYMBOLIC)
        pre = prefactor_expansion(s, 10)
        for beta in (Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(3)):
            for v in range(11):
                assert at_beta(sym[v], beta) == pre[v] * (-beta) ** v, (s, beta, v)


def test_interaction_examples():
    op = interaction_expansion(6)
    assert op.coefficient(1, 1) == Fraction(-2)
    assert op.coefficient(0, 0) == Fraction(1)
    assert op.coefficient(2, 0) == Fraction(1)
    assert op.coefficient(2, 1) == Fraction(3)


def test_interaction_symbolic_specializes():
    # the general-beta closed form at several beta against the beta = -1
    # expansion times (-beta)^(a-b)
    sym = general_interaction(10, SYMBOLIC)
    op = interaction_expansion(10)
    for beta in (Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(3)):
        for a in range(11):
            for b in range(a + 1):
                got = op.coefficient(a, b) * (-beta) ** (a - b)
                assert at_beta(sym.coefficient(a, b), beta) == got, (a, b, beta)


def test_interaction_reconstructs_numerator():
    # multiplying the expansion by (1 + R + T_i) must give back 1 - R:
    # coefficient 1 at (0, 0), -1 at (1, 1), 0 at every other retained slot
    cap = 10
    op = interaction_expansion(cap)
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
    pre = prefactor_expansion(0, cap)
    op = interaction_expansion(cap)
    entry = apply_pair_operator(op, (2, 1), pre, pre, cap)
    assert entry.coeff(3) == Fraction(1, 24)


def test_apply_cap_below_base_degree_gives_zero():
    pre = prefactor_expansion(0, 2)
    op = interaction_expansion(2)
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
    # the entry read off at symbolic beta, evaluated at a rational beta, is
    # the direct sum over the general-beta expansions at that beta
    cap = 5
    op = interaction_expansion(cap)
    pre_i, pre_j = prefactor_expansion(0, cap), prefactor_expansion(-1, cap)
    for li, lj in ((1, 0), (2, 1), (3, 2)):
        sym = lift_entry(apply_pair_operator(op, (li, lj), pre_i, pre_j, cap), li + lj, SYMBOLIC)
        for beta in (Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(3)):
            direct = reference_apply(
                general_interaction(cap, beta),
                (li, lj),
                general_prefactor(0, cap, beta),
                general_prefactor(-1, cap, beta),
                cap,
            )
            assert ThetaPoly(cap, [at_beta(c, beta) for c in sym.coeffs]) == direct, (li, lj, beta)


def test_expansions_are_cached():
    assert prefactor_expansion(2, 6) is prefactor_expansion(2, 6)
    assert interaction_expansion(6) is interaction_expansion(6)


@pytest.mark.parametrize("cap", range(16))
@pytest.mark.parametrize("mode", MODES)
def test_kernel_matches_reference(mode, cap):
    # every base pair up to cap + 1 on each side, so entries with nothing
    # in range are covered; the prefactor shifts run through -8..3. The
    # kernel runs at beta = -1; at beta = 0 and symbolic beta its entry is
    # read off by homogeneity and checked against the direct sum over the
    # general-beta expansions, types of the coefficients included
    op, ref_op = interaction_expansion(cap), general_interaction(cap, mode)
    for li in range(cap + 2):
        for lj in range(cap + 2):
            si = -8 + (li + 3 * lj + cap) % 12
            sj = -8 + (5 * li + lj + 7) % 12
            got = apply_pair_operator(op, (li, lj), prefactor_expansion(si, cap), prefactor_expansion(sj, cap), cap)
            got = lift_entry(got, li + lj, mode)
            want = reference_apply(
                ref_op, (li, lj), general_prefactor(si, cap, mode), general_prefactor(sj, cap, mode), cap
            )
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
    pre = (Fraction(1, 2), Fraction(0), Fraction(-3, 8))
    trivial = TRIVIAL_PRE
    for op in plain_ops:
        for base in ((0, 0), (1, 2), (3, 0)):
            for pre_i, pre_j in ((trivial, trivial), (pre, trivial), (trivial, pre), (pre, pre)):
                got = apply_pair_operator(op, base, pre_i, pre_j, 6)
                want = reference_apply(op, base, pre_i, pre_j, 6)
                assert got == want and got.to_json_dict() == want.to_json_dict(), (op, base)
                assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def test_kernel_rejects_non_dyadic_prefactor():
    op = interaction_expansion(4)
    with pytest.raises(ValueError, match="integral"):
        apply_pair_operator(op, (1, 0), (Fraction(1, 3),), TRIVIAL_PRE, 4)
    with pytest.raises(ValueError, match="integral"):
        # 1/64 needs 2^6, the scale at cap 4 is 2^5
        apply_pair_operator(op, (1, 0), (Fraction(1, 64),), TRIVIAL_PRE, 4)


def test_kernel_rejects_non_integral_operator():
    op = ShiftOperatorPoly((ShiftMonomial(Fraction(1, 2), 0, 0),))
    with pytest.raises(ValueError, match="not integral"):
        apply_pair_operator(op, (1, 0), TRIVIAL_PRE, TRIVIAL_PRE, 3)


def test_expansions_match_sympy_series():
    # outside anchor: sympy's Taylor series of the generating functions
    # (1 - bT)^s / (2 - bT) and (1 - R) / (1 + R - bT_i) at a symbolic beta,
    # with R = xy and T_i = x so that the (a, b) coefficient is that of
    # x^a y^b, against the beta = -1 expansions times (-beta)^v and
    # (-beta)^(a-b)
    sympy = pytest.importorskip("sympy")
    top = 8
    beta, t, x, y = sympy.symbols("beta t x y")

    def value(c):
        c = Fraction(c)
        return sympy.Rational(c.numerator, c.denominator)

    for s in range(-4, 5):
        series = sympy.series((1 - beta * t) ** s / (2 - beta * t), t, 0, top + 1).removeO()
        want = [sympy.expand(series.coeff(t, v)) for v in range(top + 1)]
        for cap in range(top + 1):
            got = prefactor_expansion(s, cap)
            assert len(got) == cap + 1
            for v in range(cap + 1):
                assert sympy.expand(value(got[v]) * (-beta) ** v - want[v]) == 0, (s, cap, v)
    series = sympy.series((1 - x * y) / (1 + x * y - beta * x), x, 0, top + 1).removeO()
    rows = [sympy.Poly(sympy.expand(series.coeff(x, a)), y) for a in range(top + 1)]
    for cap in range(top + 1):
        op = interaction_expansion(cap)
        for a in range(cap + 1):
            for lower in range(cap + 1):
                want = rows[a].coeff_monomial(y**lower)
                got = value(op.coefficient(a, lower)) * (-beta) ** (a - lower)
                assert sympy.expand(got - want) == 0, (cap, a, lower)
