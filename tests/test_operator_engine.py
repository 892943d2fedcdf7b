import tracemalloc
from fractions import Fraction
from math import factorial
from operator import mul

import pytest

from prymck.exact_arith import CheckFailure, abel_coefficient, abel_row, binom_gen
from prymck.operator_engine import (
    apply_pair_operator,
    interaction_expansion,
    prefactor_expansion,
)
from prymck.prym_bn import SYMBOLIC, ch_k_class, problem_from_partition
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


def window_fractions(window, cap):
    """apply_pair_operator's ints, S = 4^(cap+1) * cap! times the window, as
    the window itself: a Fraction at each of its degrees."""
    scale = 4 ** (cap + 1) * factorial(cap)
    return [Fraction(c, scale) for c in window.coeffs]


def lift_window(window, mode):
    """A beta = -1 window, degrees base..base + B shifted down, at another
    mode by homogeneity: degree t of the window gains (-beta)^t, so beta = 0
    keeps degree 0 alone."""
    if mode == -1:
        return window
    if mode == 0:
        return window[:1] + [0] * (len(window) - 1)

    def lift(t, c):
        return BetaPoly({t: -c if t % 2 else c}) if c else BetaPoly()

    return [lift(t, c) for t, c in enumerate(window)]


def reference_apply(terms, base, prefactors_i, prefactors_j, cap):
    """Direct O(cap^4) sum over (v_i, v_j, interaction term (a, b)) with the
    terms a dict {(a, b): coefficient}: the reference that
    apply_pair_operator's integer recurrence must reproduce."""
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


def test_prefactor_rows_equal_the_theorem_routes_abel_rows():
    # prefactor_expansion's own three-term recurrence against abel_row's
    # two-term one, which the theorem route reads, shifted onto 2^(cap+1)
    for s in range(-40, 41):
        for cap in (0, 1, 2, 5, 59):
            want = tuple(a << (cap - v) for v, a in enumerate(abel_row(s, cap)))
            assert prefactor_expansion(s, cap) == want, (s, cap)


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
    # is (1/2)^2 * (1/2 - 1/3) = 1/24, frozen from the hand expansion; it is
    # degree 0 of every window
    cap = 4
    pre = prefactor_expansion(0, cap)
    for excess in (0, 1):
        window = apply_pair_operator((2, 1), pre, pre, cap, excess)
        assert window.cap == excess
        assert window_fractions(window, cap)[0] == Fraction(1, 24)


def test_apply_cap_below_base_degree_runs_the_guard_alone():
    # bases past cap + 1 on either side included: with a negative excess
    # there is no window, the guard walks the cells below the base inside
    # the cap, and None is returned
    pre = prefactor_expansion(0, 2)
    for base in ((2, 1), (5, 1), (1, 5), (6, 6)):
        assert apply_pair_operator(base, pre, pre, 2, 2 - sum(base) - 1) is None, base
        assert apply_pair_operator(base, pre, pre, 2, -7) is None, base


def test_apply_rejects_windows_past_the_cap_and_negative_bases():
    pre = prefactor_expansion(0, 4)
    with pytest.raises(ValueError):
        apply_pair_operator((2, 1), pre, pre, 4, 2)
    with pytest.raises(ValueError):
        apply_pair_operator((-1, 1), pre, pre, 4, 0)


def test_apply_rejects_a_window_past_the_cap_at_excess_zero():
    # lambda_i + lambda_j = cap + 1: the one degree of an excess-0 window
    # already lies past the cap
    for base, s, cap in (((2, 1), (0, 0), 2), ((3, 2), (-1, -1), 4), ((4, 1), (1, 0), 4)):
        pre = [prefactor_expansion(x, cap) for x in s]
        with pytest.raises(ValueError, match="passes the cap"):
            apply_pair_operator(base, *pre, cap, 0)


def test_apply_rejects_prefactor_rows_of_another_cap():
    # rows built at cap 2 or 6 are too short or too long for cap 4, on
    # either side, and read as they are they give a wrong window
    pre = prefactor_expansion(0, 4)
    assert apply_pair_operator((2, 1), pre, pre, 4, 1).coeffs == (1024, -512)
    for other in (prefactor_expansion(0, 2), prefactor_expansion(0, 6), pre[:-1], pre + (0,)):
        for rows in ((other, pre), (pre, other), (other, other)):
            with pytest.raises(ValueError):
                apply_pair_operator((2, 1), *rows, 4, 1)


def test_apply_guard_raises_on_a_nonzero_below_the_base(broken_kernel_start):
    # a nonzero P_j[-1] puts a nonzero in row 0 below the base, which the
    # kernel computes and refuses, in a window and without one
    pre = prefactor_expansion(0, 6)
    for base, excess in (((2, 1), 0), ((2, 1), 3), ((4, 3), -2)):
        with pytest.raises(CheckFailure):
            apply_pair_operator(base, pre, pre, 6, excess)


def test_symbolic_entry_specializes_to_direct():
    # the entry read off at symbolic beta, evaluated at a rational beta, is
    # the direct sum over the general-beta expansions at that beta
    cap = 5
    pre_i, pre_j = prefactor_expansion(0, cap), prefactor_expansion(-1, cap)
    for li, lj in ((1, 0), (2, 1), (3, 2)):
        low = li + lj
        window = apply_pair_operator((li, lj), pre_i, pre_j, cap, cap - low)
        sym = lift_window(window_fractions(window, cap), SYMBOLIC)
        for beta in (Fraction(0), Fraction(-1), Fraction(1, 2), Fraction(3)):
            direct = reference_apply(
                general_interaction(cap, beta),
                (li, lj),
                general_prefactor(0, cap, beta),
                general_prefactor(-1, cap, beta),
                cap,
            )
            assert not any(direct.coeffs[:low])
            assert [at_beta(c, beta) for c in sym] == list(direct.coeffs[low:]), (li, lj, beta)


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


def q_by_convolution(pre, cap):
    """Q[x][b] = sum over v + a = x of P_i[v] * I[b][a], x, b = 0..cap: the
    i-side prefactor row times interaction_expansion, b > x included."""
    inter = interaction_expansion(cap)
    return [[sum(pre[x - a] * inter[b][a] for a in range(x + 1)) for b in range(cap + 1)] for x in range(cap + 1)]


def q_by_closed_form(s, cap):
    """The same Q by its closed form: column 0 is the prefactor row of
    s - 1, the cell at 1 <= b <= x is 2^(cap+1) * (-1)^b * binom(s - b - 1, x - b)
    and the cells at b > x are 0."""
    column = prefactor_expansion(s - 1, cap)
    return [
        [column[x]]
        + [2 ** (cap + 1) * (-1) ** b * binom_gen(s - b - 1, x - b) if b <= x else 0 for b in range(1, cap + 1)]
        for x in range(cap + 1)
    ]


def e_from_q(q, pre_j, cap):
    """E[x][k + cap + 1] = sum over b of Q[x][b] * P_j[k + b], for
    k = -cap - 1..cap, with P_j 0 outside 0..cap."""
    padded = (0,) * (cap + 1) + pre_j + (0,) * (cap + 1)
    return [[sum(map(mul, qx, padded[m : m + cap + 1])) for m in range(2 * cap + 2)] for qx in q]


def weighted_window(e, base, cap):
    """Degrees 0..cap - L of the entry at base (li, lj), L = li + lj, from
    its table E, S times each coefficient: degree d sums
    E[x][d - x] * cap! / ((li + x)! * (lj + d - x)!) over the i-side raises
    x = 0..lj + d, those that keep lj + d - x >= 0."""
    li, lj = base
    fact = [factorial(n) for n in range(cap + 1)]
    return [
        sum(e[x][d - x + cap + 1] * (fact[cap] // (fact[li + x] * fact[lj + d - x])) for x in range(lj + d + 1))
        for d in range(cap - li - lj + 1)
    ]


@pytest.mark.parametrize("cap", range(25))
def test_first_stage_equals_convolution_and_closed_form(cap):
    # the first stage Q, the i-side prefactor times the interaction, which
    # the kernel no longer builds, by two test-local references: the
    # convolution with interaction_expansion and the binomial closed form.
    # They must agree, and the kernel's recurrence must give the weighted
    # window of the table E that each of them gives. Every s in -30..5
    # on the i side (and -25 - s on the j side) and every base pair up to
    # cap + 1 on each side meet at least once; each base runs every excess,
    # the negative ones (the guard alone, None returned) included
    bases = [(li, lj) for li in range(cap + 2) for lj in range(cap + 2)]
    exponents = range(-30, 6)
    tables = {}
    for t in range(max(len(bases), len(exponents))):
        (li, lj), s = bases[t % len(bases)], exponents[t % len(exponents)]
        pre_i, pre_j = prefactor_expansion(s, cap), prefactor_expansion(-25 - s, cap)
        if s not in tables:
            conv, closed = q_by_convolution(pre_i, cap), q_by_closed_form(s, cap)
            assert conv == closed, s
            tables[s] = e_from_q(conv, pre_j, cap), e_from_q(closed, pre_j, cap)
        wants = [weighted_window(e, (li, lj), cap) for e in tables[s]]
        for excess in range(-3, cap - li - lj + 1):
            window = apply_pair_operator((li, lj), pre_i, pre_j, cap, excess)
            if excess < 0:
                assert window is None, (li, lj, s, excess)
                continue
            for want in wants:
                assert list(window.coeffs) == want[: excess + 1], (li, lj, s, excess)


def test_kernel_keeps_nothing_between_calls():
    # a class at g = 200, lambda = (2, 1), dropped, leaves only the cached
    # prefactor rows behind: no table of weights outlives the call (a
    # cap^2 / 2 table of factorial quotients would keep about 2 MiB)
    prefactor_expansion.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ch_k_class(problem_from_partition(200, (2, 1)))
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 2**19, kept


def test_expansions_are_cached():
    assert prefactor_expansion(2, 6) is prefactor_expansion(2, 6)
    assert interaction_expansion(6) is interaction_expansion(6)


@pytest.mark.parametrize("cap", range(16))
@pytest.mark.parametrize("mode", MODES)
def test_kernel_matches_reference(mode, cap):
    # every base pair up to cap + 1 on each side, and every excess B from 0
    # to cap - li - lj; the prefactor shifts run through -8..3. The kernel
    # runs at beta = -1 and returns degrees li + lj..li + lj + B; at beta = 0
    # and symbolic beta the window is read off by homogeneity. It must be
    # the matching slice of the direct sum over the general-beta
    # expansions, types of the coefficients included, and the direct sum
    # must vanish below li + lj. At lj = 0 every lowering b >= 1 drops the
    # second index below zero
    ref_op = general_interaction(cap, mode)
    for li in range(cap + 2):
        for lj in range(cap + 2):
            si = -8 + (li + 3 * lj + cap) % 12
            sj = -8 + (5 * li + lj + 7) % 12
            pre_i, pre_j = prefactor_expansion(si, cap), prefactor_expansion(sj, cap)
            want = reference_apply(ref_op, (li, lj), general_prefactor(si, cap, mode), general_prefactor(sj, cap, mode), cap)
            low = li + lj
            assert not any(want.coeffs[:low]), (li, lj)
            for excess in range(cap - low + 1):
                window = apply_pair_operator((li, lj), pre_i, pre_j, cap, excess)
                # the kernel's own output: ints, S times the entry
                assert window.cap == excess and all(type(c) is int for c in window.coeffs)
                got = lift_window(window_fractions(window, cap), mode)
                part = want.coeffs[low : low + excess + 1]
                assert got == list(part), (li, lj, si, sj, excess)
                # a reached degree whose terms cancel is a Fraction or BetaPoly,
                # an unreached one int 0; JSON tells BetaPoly() apart from 0
                assert ThetaPoly(excess, got).to_json_dict() == ThetaPoly(excess, part).to_json_dict()
                assert [type(c) for c in got] == [type(c) for c in part]
            if low > cap:
                assert apply_pair_operator((li, lj), pre_i, pre_j, cap, cap - low) is None


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
