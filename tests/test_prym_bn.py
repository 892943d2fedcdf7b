import hashlib
import json
from fractions import Fraction
from itertools import permutations

import pytest

from prymck import prym_bn
from prymck.exact_arith import abel_coefficient, factorial
from prymck.operator_engine import apply_pair_operator, prefactor_expansion
from prymck.pfaffian import SkewMatrix, _signed_pairings, augment_odd, perm_sign, pfaffian_matchings
from prymck.prym_bn import (
    GTable,
    ValidationError,
    build_problem,
    ch_k_class,
    chow_class_closed,
    chow_class_pfaffian,
    ck_class,
    class_result,
    classical_coefficient,
    enumerate_f,
    euler_oracle,
    euler_theorem,
    g_coeff,
    problem_from_partition,
    strict_partitions,
)
from prymck.series_ring import BetaPoly, ThetaPoly


# ------------------------------------------------------------ build_problem


def test_build_problem_drops_zero_part():
    p = build_problem(3, 1, (0, 1))
    assert p.lam == (1,)
    assert p.ell == 1
    assert p.s == (0,)
    assert p.parity == "+"
    assert not p.expected_empty


def test_build_problem_shifts():
    p = build_problem(4, 1, (1, 2))
    assert p.lam == (2, 1)
    assert p.s == (0, 0)
    assert p.codim == 3
    assert p.rho == 0


def test_build_problem_bounds():
    with pytest.raises(ValidationError):
        build_problem(2, 1, (0, 3))  # a_r > 2g-2 = 2
    with pytest.raises(ValidationError):
        build_problem(1, 1, (0, 1))  # genus too small
    with pytest.raises(ValidationError):
        build_problem(3, 1, (1, 1))  # not strictly increasing
    with pytest.raises(ValidationError):
        build_problem(3, 1, (-1, 1))  # negative start
    with pytest.raises(ValidationError):
        build_problem(3, 2, (0, 1))  # wrong length


def test_build_problem_rejects_non_integers():
    for g, r, a in (
        (2.7, 0, (0.9,)),  # once truncated silently to g=2, a=(0,)
        (3.0, 1, (0, 1)),
        ("3", 1, (0, 1)),
        (3, "1", (0, 1)),
        (3, 1, "01"),
        (3, 1, ("0", "1")),
        (3, 1, (0, 1.0)),
        (True, 0, (0,)),
        (3, 1, (False, True)),
        (3, 0, 1),
    ):
        with pytest.raises(ValidationError):
            build_problem(g, r, a)


def test_partition_rejects_non_integers():
    for lam in ((2.0, 1), ("2", "1"), "21", (True,)):
        with pytest.raises(ValidationError):
            chow_class_closed(lam)


def test_expected_empty_flag():
    p = build_problem(3, 1, (3, 4))
    assert p.expected_empty
    assert p.codim == 7 > p.dim_prym


def test_problem_from_partition():
    p = problem_from_partition(5, (3, 1))
    assert p.a == (1, 3)
    assert p.lam == (3, 1)
    empty = problem_from_partition(4, ())
    assert empty.ell == 0 and empty.a == (0,)


def test_strict_partitions_enumeration():
    parts = strict_partitions(4, 2, 4)
    assert parts == [(), (1,), (2,), (2, 1), (3,), (3, 1), (4,)]


# -------------------------------------------------------- cohomology class


def test_chow_closed_values():
    # frozen from the product form: 1/2, (1/4)(1/2)(1/3), (1/4)(1/6)(2/4)
    assert chow_class_closed((1,)) == Fraction(1, 2)
    assert chow_class_closed((2, 1)) == Fraction(1, 24)
    assert chow_class_closed((3, 1)) == Fraction(1, 48)
    assert chow_class_closed(()) == 1


def test_chow_closed_rejects_non_strict():
    with pytest.raises(ValueError):
        chow_class_closed((2, 2))
    with pytest.raises(ValueError):
        chow_class_closed((1, 2))
    with pytest.raises(ValueError):
        chow_class_closed((2, 0))


def test_chow_pfaffian_values():
    assert chow_class_pfaffian((2, 1)) == Fraction(1, 24)
    assert chow_class_pfaffian((1,)) == Fraction(1, 2)
    assert chow_class_pfaffian((2,)) == Fraction(1, 4)


def test_chow_pfaffian_matches_closed():
    for lam in strict_partitions(24, 4, 7):
        if lam:
            assert chow_class_pfaffian(lam) == chow_class_closed(lam), lam


# ------------------------------------------------------------------ classes


def test_ch_k_class_example():
    p = build_problem(3, 1, (0, 1))
    assert ch_k_class(p) == ThetaPoly(2, [0, Fraction(1, 2), Fraction(-1, 8)])


def test_ch_k_class_top_coefficient():
    p = build_problem(4, 1, (1, 2))
    assert ch_k_class(p).coeff(3) == Fraction(1, 24)


def test_ch_k_class_empty_problem_is_zero():
    p = build_problem(3, 1, (3, 4))
    assert not ch_k_class(p)


def fraction_first_class(p):
    """ch_k_class restated with every entry divided to Fractions before the
    Pfaffian: apply_pair_operator's ints over S = 4^(cap+1) * cap! at
    degrees lambda_i + lambda_j..cap (int 0 below), and the boundary row
    from abel_coefficient, c_v / (lambda_j + v)! (Fraction 0 below
    lambda_j, all int 0 past the cap)."""
    cap, lam, s, ell = p.g - 1, p.lam, p.s, p.ell
    if not ell:
        return ThetaPoly.one(cap)
    scale = 4 ** (cap + 1) * factorial(cap)

    def entry(i, j):
        low = lam[i] + lam[j]
        pre_i, pre_j = prefactor_expansion(s[i], cap), prefactor_expansion(s[j], cap)
        raw = apply_pair_operator((lam[i], lam[j]), pre_i, pre_j, cap)
        return ThetaPoly(cap, [0] * min(low, cap + 1) + [Fraction(c, scale) for c in raw.coeffs[low:]])

    def boundary(j):
        lj = lam[j]
        if lj > cap:
            return ThetaPoly.zero(cap)
        tail = [abel_coefficient(s[j], d - lj) / factorial(d) for d in range(lj, cap + 1)]
        return ThetaPoly(cap, [Fraction(0)] * lj + tail)

    m = SkewMatrix.from_upper(ell, entry)
    if ell % 2:
        m = augment_odd(m, [boundary(j) for j in range(ell)])
    return pfaffian_matchings(m)


@pytest.mark.parametrize("g", range(2, 11))
def test_ch_k_class_matches_fraction_first_pfaffian(g):
    # every strict partition with at most 5 parts bounded by 2g - 2,
    # one-part and expected-empty ones included: the same values and the
    # same coefficient types (Fraction, or int 0) at every degree
    for lam in strict_partitions(5 * (2 * g - 2), 5, 2 * g - 2):
        p = problem_from_partition(g, lam)
        got, want = ch_k_class(p), fraction_first_class(p)
        assert got == want, lam
        assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs], lam


def test_ch_k_class_rejects_nonzero_low_degree(monkeypatch):
    # a scaled entry with a term below its base degree leaves a nonzero int
    # below |lambda| in the Pfaffian, which is raised, not dropped
    def shifted(base, pre_i, pre_j, cap):
        return apply_pair_operator(base, pre_i, pre_j, cap) + ThetaPoly.monomial(cap, 0, 1)

    monkeypatch.setattr(prym_bn, "apply_pair_operator", shifted)
    for lam in ((2, 1), (3, 2, 1)):
        with pytest.raises(ArithmeticError):
            ch_k_class(problem_from_partition(8, lam))


def test_ck_class_beta_zero_is_single_monomial():
    p = build_problem(4, 1, (1, 2))
    assert ck_class(p, 0) == ThetaPoly.monomial(3, 3, Fraction(1, 24))


def test_ck_class_beta_zero_matches_pfaffian_embedding():
    for g in (4, 5, 6):
        for lam in strict_partitions(g - 1, 3, 2 * g - 2):
            if not lam:
                continue
            p = problem_from_partition(g, lam)
            want = ThetaPoly.monomial(g - 1, sum(lam), chow_class_pfaffian(lam))
            assert ck_class(p, 0) == want


def test_ck_class_beta_minus_one_is_ch_k():
    for g in (3, 4, 5):
        for lam in strict_partitions(g - 1, 3, 2 * g - 2):
            p = problem_from_partition(g, lam)
            assert ck_class(p, -1) == ch_k_class(p)


def test_ck_class_empty_partition_is_one():
    p = problem_from_partition(4, ())
    assert ck_class(p, -1) == ThetaPoly.one(3)
    assert ck_class(p, 0) == ThetaPoly.one(3)


def test_ck_class_symbolic_specializes():
    for g in (3, 4, 5):
        for lam in strict_partitions(g - 1, 3, 2 * g - 2):
            p = problem_from_partition(g, lam)
            sym = ck_class(p, "symbolic")

            def at(beta):
                # each BetaPoly coefficient evaluated at beta; an int stays
                return ThetaPoly(sym.cap, [
                    sum(x * beta**e for e, x in c.items()) if isinstance(c, BetaPoly) else c
                    for c in sym.coeffs
                ])

            assert at(-1) == ch_k_class(p)
            assert at(0) == ck_class(p, 0)
            if lam:
                want = ThetaPoly.monomial(g - 1, sum(lam), chow_class_pfaffian(lam))
                assert at(0) == want


def test_leading_term_is_cohomology_class():
    for g in range(2, 7):
        for lam in strict_partitions(g - 1, 4, 2 * g - 2):
            if not lam:
                continue
            p = problem_from_partition(g, lam)
            assert ch_k_class(p).coeff(sum(lam)) == chow_class_closed(lam)


# --------------------------------------------------- Euler characteristics


# anchors: the first is the theta divisor of a 2-dimensional principally
# polarized abelian variety (chi = -1); the zero-dimensional ones equal the
# class degree gamma * 2^(g-1) * (g-1)!; the last two are frozen from two
# independent hand expansions of the entry series
ANCHORS = [
    (3, (0, 1), -1),
    (4, (1, 2), 2),
    (2, (0, 1), 1),
    (4, (0, 3), 4),
    (5, (1, 2), -8),
]


@pytest.mark.parametrize("g,a,chi", ANCHORS)
def test_euler_anchors(g, a, chi):
    p = build_problem(g, len(a) - 1, a)
    assert euler_oracle(p) == chi
    assert euler_theorem(p) == chi


def test_euler_routes_agree():
    for g in range(2, 6):
        for lam in strict_partitions(g - 1, 4, 2 * g - 2):
            p = problem_from_partition(g, lam)
            assert euler_theorem(p) == euler_oracle(p), (g, lam)


def test_euler_integrality():
    for g in range(2, 6):
        for lam in strict_partitions(g - 1, 4, 2 * g - 2):
            p = problem_from_partition(g, lam)
            assert euler_theorem(p).denominator == 1


def _bounded_sequences(length, max_sum):
    if length == 0:
        yield ()
        return
    for first in range(max_sum + 1):
        for rest in _bounded_sequences(length - 1, max_sum - first):
            yield (first,) + rest


def reference_euler_theorem(problem):
    """The closed summation formula as stated, over all n! arrangements,
    every shift sequence v and every distribution f, in Fractions.

    It is the loop euler_theorem ran before it summed over matchings and,
    later, over pair series; kept here as the reference the pair series
    sum must equal exactly.
    """
    g, lam, ell, s = problem.g, problem.lam, problem.ell, problem.s
    h = g - 1
    budget = h - sum(lam)
    if budget < 0:
        return Fraction(0)
    indices = tuple(range(1, ell + 1)) if ell % 2 == 0 else tuple(range(ell + 1))
    half = len(indices) // 2
    weight = Fraction(factorial(h) * 2**h, 2**half * factorial(half))
    total = Fraction(0)
    for v in _bounded_sequences(ell, budget):
        k = budget - sum(v)
        pre = Fraction(1)
        for i in range(ell):
            pre *= abel_coefficient(s[i], v[i])
        if not pre:
            continue
        inner = Fraction(0)
        for sigma in permutations(indices):
            sign = perm_sign(sigma)
            pairs = tuple((sigma[2 * b], sigma[2 * b + 1]) for b in range(half))
            for f in enumerate_f(sigma, k, half):
                prod = Fraction(1)
                for (pi, pj), fm in zip(pairs, f):
                    prod *= g_coeff(fm, pi, pj, lam, v)
                inner += prod if sign > 0 else -prod
        total += pre * inner * weight
    return total


def test_matching_sum_equals_permutation_sum():
    # every strict partition with g <= 11, at most 5 parts and |lambda| <= g + 2,
    # expected-empty ones included
    count = 0
    for g in range(2, 12):
        for lam in strict_partitions(g + 2, 5, 2 * g - 2):
            p = problem_from_partition(g, lam)
            assert euler_theorem(p) == reference_euler_theorem(p), (g, lam)
            count += 1
    assert count == 360


@pytest.mark.parametrize("g, lam", [(60, (3, 1)), (3000, (1,)), (80, (4, 3, 2, 1))])
def test_pair_series_sum_equals_oracle_at_large_genus(g, lam):
    # degree budgets of 55, 2998 and 69, far past the reference's reach
    p = problem_from_partition(g, lam)
    assert euler_theorem(p) == euler_oracle(p)


@pytest.mark.parametrize(
    "g, lam",
    [(2, (1,)), (12, (1,)), (9, (4,)), (11, (3, 2, 1)), (12, (5, 4, 2)), (17, (5, 4, 3, 2, 1))],
)
def test_integer_sum_odd_length(g, lam):
    # odd l: the boundary index 0 joins the matching and its pair reads only
    # degree 0, a 1/(lam_j + v_j)! with lam_j + v_j <= g - 1
    p = problem_from_partition(g, lam)
    assert euler_theorem(p) == reference_euler_theorem(p)


def test_pair_ints_equal_scaled_g_coeff():
    # G(m; ni, nj) = g_coeff(m; ni, nj) * (ni + nj + m)! is (-1)^m G(ni, nj)
    for m in range(7):
        for ni in range(1, 11):
            row = prym_bn._pair_ints(ni, 1, 10)
            for nj in range(1, 11):
                want = g_coeff(m, 1, 2, (ni, nj), (0, 0)) * factorial(ni + nj + m)
                assert want == (-1) ** m * row[nj - 1], (m, ni, nj)
    # G(ni, nj) = C(ni + nj, nj) (ni - nj) / (ni + nj): 4 * 2/4, 10 * 1/5, 0
    assert prym_bn._pair_ints(3, 1, 3) == [2, 2, 0]


def test_euler_theorem_reads_pair_ints(monkeypatch):
    real = prym_bn._pair_ints

    def off(ni, nj, count):
        return [x + 1 for x in real(ni, nj, count)]

    p = problem_from_partition(6, (2, 1))
    assert euler_theorem(p) == euler_oracle(p) == 22
    monkeypatch.setattr(prym_bn, "_pair_ints", off)
    assert euler_theorem(p) != euler_oracle(p)


def _crossings(pairs):
    return sum(
        1
        for x, (a, b) in enumerate(pairs)
        for c, d in pairs[x + 1 :]
        if a < c < b < d or c < a < d < b
    )


@pytest.mark.parametrize("n", [0, 2, 4, 6, 8])
def test_signed_arrangements(n):
    indices = tuple(range(n))
    got = prym_bn._signed_arrangements(indices)
    assert len(got) == factorial(n) // (2 ** (n // 2) * factorial(n // 2))  # (n-1)!!
    assert len({sigma for _, sigma in got}) == len(got)
    matchings = set()
    for sign, sigma in got:
        assert sorted(sigma) == list(indices)
        pairs = tuple((sigma[2 * b], sigma[2 * b + 1]) for b in range(n // 2))
        assert all(a < b for a, b in pairs)
        assert [a for a, _ in pairs] == sorted(a for a, _ in pairs)
        assert sign == perm_sign(sigma) == (-1) ** _crossings(pairs)
        matchings.add((sign, pairs))
    # the same signed matchings the oracle's Pfaffian engine enumerates
    assert matchings == set(_signed_pairings(indices))


def test_euler_empty_problem_is_zero():
    p = build_problem(3, 1, (3, 4))
    assert euler_theorem(p) == 0
    assert euler_oracle(p) == 0


def test_euler_whole_prym_is_zero():
    # codimension-zero locus is the whole abelian variety: chi vanishes; the
    # theorem route has no indices and no pairs (half = 0), so no
    # distribution spends the degree budget g - 1
    for g in range(2, 12):
        p = problem_from_partition(g, ())
        assert euler_theorem(p) == 0 == euler_oracle(p) == reference_euler_theorem(p)


# ------------------------------------------------------------ g_coeff & f


def test_g_coeff_examples():
    assert g_coeff(0, 1, 2, (2, 1), (0, 0)) == Fraction(1, 6)
    assert g_coeff(0, 0, 1, (1,), (0,)) == 1
    assert g_coeff(3, 1, 1, (2, 1), (0, 0)) == 0


def test_g_coeff_boundary_row():
    lam, v = (3, 1), (1, 2)
    for j in (1, 2):
        expected = Fraction(1, factorial(lam[j - 1] + v[j - 1]))
        assert g_coeff(0, 0, j, lam, v) == expected
        assert g_coeff(0, j, 0, lam, v) == -expected
        assert g_coeff(2, 0, j, lam, v) == 0


def test_g_coeff_antisymmetry():
    lam, v = (4, 2, 1), (1, 0, 2)
    for m in range(4):
        for i in range(0, 4):
            for j in range(0, 4):
                assert g_coeff(m, i, j, lam, v) == -g_coeff(m, j, i, lam, v)


def test_g_coeff_validation():
    with pytest.raises(ValueError):
        g_coeff(-1, 1, 2, (2, 1), (0, 0))
    with pytest.raises(ValueError):
        g_coeff(0, 1, 3, (2, 1), (0, 0))
    with pytest.raises(ValueError):
        g_coeff(0, 1, 2, (2, 1), (0,))


def test_gtable_caches_and_matches():
    table = GTable((3, 1), (0, 1))
    assert table.value(1, 1, 2) == g_coeff(1, 1, 2, (3, 1), (0, 1))
    assert table.value(1, 2, 1) == -table.value(1, 1, 2)
    assert table.value(0, 0, 2) == Fraction(1, 2) == -table.value(0, 2, 0)
    assert table.value(1, 0, 2) == 0
    assert table.value(2, 1, 1) == 0
    for bad in ((-1, 1, 2), (0, 1, 3), (0, -1, 1)):
        with pytest.raises(ValueError):
            table.value(*bad)
    with pytest.raises(ValueError):
        GTable((3, 1), (0,))


def test_gtable_shares_values_across_shift_sequences(monkeypatch):
    calls = []
    real = prym_bn.g_coeff

    def counted(m, i, j, lam, v):
        calls.append((m, i, j, lam, v))
        return real(m, i, j, lam, v)

    monkeypatch.setattr(prym_bn, "g_coeff", counted)
    # lam_i + v_i = 4 and lam_j + v_j = 2 in all three tables
    tables = [GTable((3, 1), (1, 1)), GTable((4, 2), (0, 0)), GTable((2, 1, 1), (2, 0, 1))]
    first = tables[0].value(2, 1, 2)
    assert first == real(2, 1, 2, (3, 1), (1, 1))
    assert tables[1].value(2, 1, 2) == first
    assert tables[2].value(2, 1, 3) == first
    assert tables[2].value(2, 3, 1) == -first
    assert len(calls) == 1


def test_enumerate_f_zero():
    assert enumerate_f((1, 2, 3, 4), 0, 2) == [(0, 0)]


def test_enumerate_f_compositions():
    got = enumerate_f((1, 2, 3, 4), 2, 2)
    assert sorted(got) == [(0, 2), (1, 1), (2, 0)]


def test_enumerate_f_boundary_slot_blocks():
    assert enumerate_f((0, 1), 1, 1) == []
    got = enumerate_f((0, 1, 2, 3), 2, 2)
    assert got == [(0, 2)]


# ------------------------------------------------------- classical recovery


def test_classical_coefficient_values():
    assert classical_coefficient(0) == 1
    assert classical_coefficient(1) == Fraction(1, 2)
    assert classical_coefficient(2) == Fraction(1, 24)


def test_classical_matches_staircase():
    for r in range(1, 7):
        staircase = tuple(range(r, 0, -1))
        assert classical_coefficient(r) == chow_class_closed(staircase)


def test_classical_coefficient_matches_de_concini_pragacz():
    # outside anchor: the De Concini-Pragacz class of the Prym-Brill-Noether
    # locus (Math. Ann. 1995), gamma * 2^(r(r+1)/2) = 2^C(r,2) * prod (i-1)!/(2i-1)!
    for r in range(13):
        closed = Fraction(2 ** (r * (r - 1) // 2))
        for i in range(1, r + 1):
            closed *= Fraction(factorial(i - 1), factorial(2 * i - 1))
        assert classical_coefficient(r) * 2 ** (r * (r + 1) // 2) == closed, r


# ----------------------------------------------------------- class_result


def test_class_result_kinds():
    p = build_problem(4, 1, (1, 2))
    res0 = class_result(p, 0)
    assert res0.kind == "cohomology"
    assert res0.gamma == Fraction(1, 24)
    assert res0.exponent == 3
    res1 = class_result(p, -1)
    assert res1.kind == "chern_character_K"
    assert res1.poly == ch_k_class(p)
    ress = class_result(p, "symbolic")
    assert ress.kind == "connective"
    assert "engine-convention-symbolic-beta" in ress.flags
    with pytest.raises(ValueError):
        class_result(p, 2)
    for mode in (1, "beta", None):
        with pytest.raises(ValueError):
            ck_class(p, mode)


# ------------------------------------------------- large-genus closed forms


@pytest.mark.parametrize("g, lam", [(30, (7, 6, 5, 4, 3, 2, 1)), (40, (8, 6, 5, 4, 3, 2))])
def test_ch_k_leading_term_large_genus(g, lam):
    p = problem_from_partition(g, lam)
    assert ch_k_class(p).coeff(p.codim) == chow_class_closed(lam)


@pytest.mark.parametrize(
    "g, lam, digest",
    [
        (46, tuple(range(9, 0, -1)), "320b8dc65625b87afac5df8ed5cc7a2a340678a818acfd0e08320b01a9ed886e"),
        (56, tuple(range(10, 0, -1)), "d027d28751814395bba2839bbf67d2aff536ea6e484838b7f055f6d141f0a762"),
    ],
)
def test_ch_k_class_frozen_at_nine_and_ten_parts(g, lam, digest):
    # sha256 of json.dumps(to_json_dict()), recorded while each entry was
    # divided to Fractions before the Pfaffian; the lowest degree is the
    # closed product
    ch = ch_k_class(problem_from_partition(g, lam))
    assert hashlib.sha256(json.dumps(ch.to_json_dict()).encode()).hexdigest() == digest
    assert ch.coeff(sum(lam)) == chow_class_closed(lam)


@pytest.mark.parametrize(
    "g, lam",
    [(22, (8, 6, 4, 2, 1)), (29, (9, 7, 5, 4, 2, 1)), (29, (7, 6, 5, 4, 3, 2, 1))],
)
def test_zero_dimensional_degree_large_genus(g, lam):
    # |lambda| = g - 1: the locus is finite and chi counts its degree
    p = problem_from_partition(g, lam)
    assert p.rho == 0
    degree = chow_class_closed(lam) * 2 ** (g - 1) * factorial(g - 1)
    assert euler_oracle(p) == euler_theorem(p) == degree


@pytest.mark.parametrize("g, lam", [(30, (7, 6, 5, 4, 3, 2, 1)), (22, (6, 5, 3, 2, 1))])
def test_euler_routes_agree_large_genus(g, lam):
    # seven parts (an 8 x 8 augmented system), and a chi --verify ladder rung
    p = problem_from_partition(g, lam)
    assert euler_theorem(p) == euler_oracle(p)


@pytest.mark.parametrize("g", [10, 40, 80])
def test_theta_divisor_chi_both_routes(g):
    p = problem_from_partition(g, (1,))
    assert euler_oracle(p) == euler_theorem(p) == (-1) ** g
