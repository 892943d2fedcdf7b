from fractions import Fraction

import pytest

from prymck.exact_arith import abel_coefficient, binom_gen, factorial
from prymck.operator_engine import apply_pair_operator, interaction_expansion, prefactor_expansion
from prymck.prym_bn import SYMBOLIC
from prymck.series_ring import BetaPoly, ThetaPoly


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
    (-1)^b * (binom(a, b) + binom(a-1, b-1)) * beta^(a-b), as a dict
    {(a, b): coefficient} with zero terms left out."""
    terms = {}
    for a in range(cap + 1):
        for b in range(a + 1):
            base = binom_gen(a, b) + (binom_gen(a - 1, b - 1) if b else 0)
            c = times_beta_power((-1) ** b * base, beta, a - b)
            if c:
                terms[a, b] = c
    return terms


def entry_fractions(entry, low):
    """apply_pair_operator's ints, S = 4^(cap+1) * cap! times the entry, as
    the entry itself: a Fraction at each degree low..cap, int 0 below."""
    cap = entry.cap
    scale = 4 ** (cap + 1) * factorial(cap)
    return ThetaPoly(cap, [0] * min(low, cap + 1) + [Fraction(c, scale) for c in entry.coeffs[low:]])


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


def reference_apply(terms, base, prefactors_i, prefactors_j, cap):
    """Direct O(cap^4) sum over (v_i, v_j, interaction term (a, b)) with the
    terms a dict {(a, b): coefficient}: the reference that
    apply_pair_operator's two-stage integer kernel must reproduce."""
    li, lj = base
    out = [0] * (cap + 1)
    for vi, pi in enumerate(prefactors_i):
        if vi > cap or not pi:
            continue
        for vj, pj in enumerate(prefactors_j):
            if vj > cap or not pj:
                continue
            pij = pi * pj
            for (a, b), c in terms.items():
                ii = li + vi + a
                jj = lj + vj - b
                if jj < 0:
                    continue
                d = ii + jj
                if d > cap:
                    continue
                out[d] = out[d] + pij * c * Fraction(1, factorial(ii) * factorial(jj))
    return ThetaPoly(cap, out)


def test_prefactor_examples():
    assert Fraction(prefactor_expansion(0, 4)[0], 2**5) == Fraction(1, 2)
    assert Fraction(prefactor_expansion(1, 4)[1], 2**5) == Fraction(1, 4)


def test_prefactor_beta_minus_one_is_abel():
    for s in range(-6, 7):
        pre = prefactor_expansion(s, 8)
        for v in range(9):
            assert Fraction(pre[v], 2**9) == abel_coefficient(s, v)


def test_prefactor_symbolic_specializes():
    # the general-beta closed form at several beta against the beta = -1
    # expansion times (-beta)^v
    for s in range(-6, 7):
        sym = general_prefactor(s, 10, SYMBOLIC)
        pre = prefactor_expansion(s, 10)
        for beta in (Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(3)):
            for v in range(11):
                assert at_beta(sym[v], beta) == Fraction(pre[v], 2**11) * (-beta) ** v, (s, beta, v)


def test_interaction_examples():
    # table[b][a]: raise a, lowering b, 0 for b > a
    table = interaction_expansion(6)
    assert len(table) == 7 and all(len(row) == 7 for row in table)
    assert table[1][1] == -2
    assert table[0][0] == 1
    assert table[0][2] == 1
    assert table[1][2] == 3
    assert table[2][1] == 0
    assert all(type(c) is int for row in table for c in row)


def test_interaction_symbolic_specializes():
    # the general-beta closed form at several beta against the beta = -1
    # expansion times (-beta)^(a-b)
    sym = general_interaction(10, SYMBOLIC)
    table = interaction_expansion(10)
    for beta in (Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(3)):
        for a in range(11):
            for b in range(a + 1):
                got = table[b][a] * (-beta) ** (a - b)
                assert at_beta(sym.get((a, b), 0), beta) == got, (a, b, beta)


def test_interaction_reconstructs_numerator():
    # multiplying the expansion by (1 + R + T_i) must give back 1 - R:
    # coefficient 1 at (0, 0), -1 at (1, 1), 0 at every other retained slot
    cap = 10
    table = interaction_expansion(cap)
    got = {}
    for b, row in enumerate(table):
        for a, c in enumerate(row):
            for da, db in ((0, 0), (1, 1), (1, 0)):  # id, R, T_i
                key = (a + da, b + db)
                got[key] = got.get(key, 0) + c
    for (a, b), c in got.items():
        if a > cap:  # beyond the truncation boundary, not reconstructed
            continue
        expected = Fraction(1) if (a, b) == (0, 0) else Fraction(-1) if (a, b) == (1, 1) else Fraction(0)
        assert c == expected, (a, b, c)


def test_apply_full_entry_coefficient():
    # base (2, 1) at beta = -1: the degree-3 coefficient of the full entry
    # is (1/2)^2 * (1/2 - 1/3) = 1/24, frozen from the hand expansion
    cap = 4
    pre = prefactor_expansion(0, cap)
    entry = entry_fractions(apply_pair_operator((2, 1), pre, pre, cap), 3)
    assert entry.coeff(3) == Fraction(1, 24)


def test_apply_cap_below_base_degree_gives_zero():
    # bases past cap + 1 on either side included: no row of the cached
    # first stage is read, and every coefficient is int 0
    pre = prefactor_expansion(0, 2)
    for base in ((2, 1), (5, 1), (1, 5), (6, 6)):
        entry = apply_pair_operator(base, pre, pre, 2)
        assert entry.coeffs == (0, 0, 0) and all(type(c) is int for c in entry.coeffs), base


def test_symbolic_entry_specializes_to_direct():
    # the entry read off at symbolic beta, evaluated at a rational beta, is
    # the direct sum over the general-beta expansions at that beta
    cap = 5
    pre_i, pre_j = prefactor_expansion(0, cap), prefactor_expansion(-1, cap)
    for li, lj in ((1, 0), (2, 1), (3, 2)):
        entry = entry_fractions(apply_pair_operator((li, lj), pre_i, pre_j, cap), li + lj)
        sym = lift_entry(entry, li + lj, SYMBOLIC)
        for beta in (Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(3)):
            direct = reference_apply(
                general_interaction(cap, beta),
                (li, lj),
                general_prefactor(0, cap, beta),
                general_prefactor(-1, cap, beta),
                cap,
            )
            assert ThetaPoly(cap, [at_beta(c, beta) for c in sym.coeffs]) == direct, (li, lj, beta)


def test_interaction_table_equals_binomial_closed_form():
    # the Pascal's-rule table against binom_gen cell by cell, 0 for b > a
    cap = 40
    want = tuple(
        tuple(
            (-1) ** a * (binom_gen(a, b) + (binom_gen(a - 1, b - 1) if b else 0)) if b <= a else 0
            for a in range(cap + 1)
        )
        for b in range(cap + 1)
    )
    assert interaction_expansion(cap) == want


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
    # general-beta expansions, types of the coefficients included. At lj = 0
    # every lowering b >= 1 drops the second index below zero
    ref_op = general_interaction(cap, mode)
    for li in range(cap + 2):
        for lj in range(cap + 2):
            si = -8 + (li + 3 * lj + cap) % 12
            sj = -8 + (5 * li + lj + 7) % 12
            got = apply_pair_operator((li, lj), prefactor_expansion(si, cap), prefactor_expansion(sj, cap), cap)
            # the kernel's own output: ints, S times the entry, 0 below li + lj
            assert all(type(c) is int for c in got.coeffs) and not any(got.coeffs[: li + lj])
            got = lift_entry(entry_fractions(got, li + lj), li + lj, mode)
            want = reference_apply(
                ref_op, (li, lj), general_prefactor(si, cap, mode), general_prefactor(sj, cap, mode), cap
            )
            assert got == want, (li, lj, si, sj)
            # a reached degree whose terms cancel is a Fraction or BetaPoly,
            # an unreached one int 0; JSON tells BetaPoly() apart from 0
            assert got.to_json_dict() == want.to_json_dict(), (li, lj, si, sj)
            assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


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
                assert sympy.expand(value(Fraction(got[v], 2 ** (cap + 1))) * (-beta) ** v - want[v]) == 0, (s, cap, v)
    series = sympy.series((1 - x * y) / (1 + x * y - beta * x), x, 0, top + 1).removeO()
    rows = [sympy.Poly(sympy.expand(series.coeff(x, a)), y) for a in range(top + 1)]
    for cap in range(top + 1):
        table = interaction_expansion(cap)
        for a in range(cap + 1):
            for lower in range(cap + 1):
                want = rows[a].coeff_monomial(y**lower)
                got = table[lower][a] * (-beta) ** (a - lower)
                assert sympy.expand(got - want) == 0, (cap, a, lower)
