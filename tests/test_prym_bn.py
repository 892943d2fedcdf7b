import hashlib
import json
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest
from test_pfaffian import Terms, cyclic_garbage

from prymck import exact_arith, operator_engine, pfaffian, prym_bn, selfcheck
from prymck.exact_arith import CheckFailure, abel_coefficient, abel_row
from prymck.operator_engine import apply_pair_operator, prefactor_expansion
from prymck.pfaffian import SkewMatrix, perm_sign, pfaffian_matchings
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
    euler_theorem_genera,
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
    # each message names the first value that is not a genuine integer
    for g, r, a, message in (
        (2.7, 0, (0.9,), "genus must be an integer (got 2.7)"),  # once truncated silently to g=2, a=(0,)
        (3.0, 1, (0, 1), "genus must be an integer (got 3.0)"),
        ("3", 1, (0, 1), "genus must be an integer (got '3')"),
        (3, "1", (0, 1), "r must be an integer (got '1')"),
        (3, 1, "01", "vanishing sequence entry must be an integer (got '0')"),
        (3, 1, ("0", "1"), "vanishing sequence entry must be an integer (got '0')"),
        (3, 1, (0, 1.0), "vanishing sequence entry must be an integer (got 1.0)"),
        (True, 0, (0,), "genus must be an integer (got True)"),
        (3, 1, (False, True), "vanishing sequence entry must be an integer (got False)"),
        (3, 0, 1, "vanishing sequence must be a sequence of integers (got 1)"),
        # a float before a bool: the float is the first bad entry
        (3, 2, (0, 0.5, True), "vanishing sequence entry must be an integer (got 0.5)"),
    ):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build_problem(g, r, a)


def test_partition_rejects_non_integers():
    for lam, message in (
        ((2.0, 1), "partition entry must be an integer (got 2.0)"),
        (("2", "1"), "partition entry must be an integer (got '2')"),
        ("21", "partition entry must be an integer (got '2')"),
        ((True,), "partition entry must be an integer (got True)"),
        ((3, 0.5, True), "partition entry must be an integer (got 0.5)"),
    ):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            chow_class_closed(lam)


class _Index:
    """An integer-like object that is not an int: operator.index reads it."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_integer_like_entries_are_accepted():
    p = build_problem(_Index(4), _Index(1), (_Index(1), _Index(2)))
    assert p == build_problem(4, 1, (1, 2))
    assert all(type(x) is int for x in (p.g, p.r, *p.a, *p.lam))
    assert chow_class_closed((_Index(2), _Index(1))) == chow_class_closed((2, 1)) == Fraction(1, 24)


def test_expected_empty_flag():
    p = build_problem(3, 1, (3, 4))
    assert p.expected_empty
    assert p.codim == 7 > p.dim_prym


def test_problem_record_is_an_immutable_value():
    p = build_problem(5, 1, (1, 2))
    with pytest.raises(AttributeError):
        p.g = 6
    same = build_problem(5, 1, [1, 2])
    assert p == same and hash(p) == hash(same)
    other = build_problem(5, 1, (1, 3))
    assert p != other and hash(p) != hash(other)
    assert repr(p) == (
        "PrymProblem(g=5, r=1, a=(1, 2), lam=(2, 1), ell=2, s=(0, 0), "
        "dim_prym=4, parity='+', expected_empty=False)"
    )
    assert (p.codim, p.rho) == (3, 1)
    empty = build_problem(3, 1, (3, 4))
    assert empty.expected_empty and (empty.codim, empty.rho) == (7, -5)


def test_problem_from_partition():
    p = problem_from_partition(5, (3, 1))
    assert p.a == (1, 3)
    assert p.lam == (3, 1)
    empty = problem_from_partition(4, ())
    assert empty.ell == 0 and empty.a == (0,)


def test_strict_partitions_enumeration():
    parts = strict_partitions(4, 2, 4)
    assert parts == [(), (1,), (2,), (2, 1), (3,), (3, 1), (4,)]


def test_strict_partitions_leaves_no_cycle():
    # the list is the caller's alone: once dropped it is freed, not kept in
    # a reference cycle until the next collection
    parts, garbage = cyclic_garbage(strict_partitions, 45, 5, 9)
    assert garbage == 0
    # every set of at most five parts from 1..9 sums to at most 35
    want = [lam[::-1] for k in range(6) for lam in combinations(range(1, 10), k)]
    assert parts == sorted(want, key=lambda lam: (sum(lam), lam))


# -------------------------------------------------------- cohomology class


def test_chow_closed_values():
    # frozen from the product form: 1/2, (1/4)(1/2)(1/3), (1/4)(1/6)(2/4)
    assert chow_class_closed((1,)) == Fraction(1, 2)
    assert chow_class_closed((2, 1)) == Fraction(1, 24)
    assert chow_class_closed((3, 1)) == Fraction(1, 48)
    assert chow_class_closed(()) == 1


def test_chow_closed_rejects_non_strict():
    # every fault of a partition is an input fault, as a part that is not
    # an integer is: a repeated, increasing, zero or negative part
    for lam, message in (
        ((2, 2), "partition must be strictly decreasing, got (2, 2)"),
        ((1, 2), "partition must be strictly decreasing, got (1, 2)"),
        ((2, 0), "partition parts must be positive, got (2, 0)"),
        ((0,), "partition parts must be positive, got (0,)"),
        ((2, -1), "partition parts must be positive, got (2, -1)"),
    ):
        for route in (chow_class_closed, chow_class_pfaffian):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                route(lam)


def test_chow_pfaffian_values():
    assert chow_class_pfaffian((2, 1)) == Fraction(1, 24)
    assert chow_class_pfaffian((1,)) == Fraction(1, 2)
    assert chow_class_pfaffian((2,)) == Fraction(1, 4)


def test_chow_pfaffian_matches_closed():
    # every strict partition with at most 7 parts, each at most 12
    cases = strict_partitions(12 * 7, 7, 12)
    assert len(cases) == 3302
    for lam in cases:
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


def test_ch_k_class_is_uniform_in_the_genus():
    # for fixed lambda the class is one power series in theta': at genus g it
    # is the class at g + 3 truncated at degree g - 1
    cases = 0
    for lam in strict_partitions(8, 3, 8)[1:]:  # all but the empty partition
        for g in range(sum(lam) + 1, sum(lam) + 5):
            low = ch_k_class(problem_from_partition(g, lam))
            high = ch_k_class(problem_from_partition(g + 3, lam))
            assert low.coeffs == high.coeffs[:g], (g, lam)
            cases += 1
    assert cases == 96


def fraction_first_class(p):
    """ch_k_class restated with every entry divided to Fractions before the
    Pfaffian, on whole entries rather than excess windows: the widest window
    of apply_pair_operator, degrees lambda_i + lambda_j..cap, over
    S = 4^(cap+1) * cap! (int 0 below, all int 0 past the cap), and the
    boundary row from abel_coefficient, c_v / (lambda_j + v)! (Fraction 0
    below lambda_j, all int 0 past the cap). The boundary index is placed
    first, at (0, j + 1), where ch_k_class places it last, at (j, l): the
    two matrices have one Pfaffian."""
    cap, lam, s, ell = p.g - 1, p.lam, p.s, p.ell
    if not ell:
        return ThetaPoly.one(cap)
    scale = 4 ** (cap + 1) * factorial(cap)

    def entry(i, j):
        low = lam[i] + lam[j]
        if low > cap:
            return ThetaPoly.zero(cap)
        pre_i, pre_j = prefactor_expansion(s[i], cap), prefactor_expansion(s[j], cap)
        raw = apply_pair_operator((lam[i], lam[j]), pre_i, pre_j, cap, cap - low)
        return ThetaPoly(cap, [0] * low + [Fraction(c, scale) for c in raw.coeffs])

    def boundary(j):
        lj = lam[j]
        if lj > cap:
            return ThetaPoly.zero(cap)
        tail = [abel_coefficient(s[j], d - lj) / factorial(d) for d in range(lj, cap + 1)]
        return ThetaPoly(cap, [Fraction(0)] * lj + tail)

    if ell % 2 == 0:
        return pfaffian_matchings(SkewMatrix(ell, entry))
    return pfaffian_matchings(SkewMatrix(ell + 1, lambda i, j: boundary(j - 1) if i == 0 else entry(i - 1, j - 1)))


@pytest.mark.parametrize("ell", range(1, 7))
def test_class_routes_build_one_matrix_of_even_size(ell, monkeypatch):
    # one SkewMatrix per call, of size l + l mod 2, the boundary index in
    # it: no second matrix is built around the first. ch_k_class builds one
    # for an expected-empty problem too (its entries run the kernel's
    # guard), and none for one part, which is the boundary entry alone
    sizes = []
    build = SkewMatrix.__init__

    def counted(self, n, entry):
        sizes.append(n)
        build(self, n, entry)

    monkeypatch.setattr(SkewMatrix, "__init__", counted)
    lam = tuple(range(ell + 1, 1, -1))
    chow_class_pfaffian(lam)
    assert sizes == [ell + ell % 2]
    for g in (sum(lam) + 3, sum(lam)):
        sizes.clear()
        ch_k_class(problem_from_partition(g, lam))
        assert sizes == ([] if ell == 1 else [ell + ell % 2]), g


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


def test_ch_k_class_rejects_nonzero_low_degree(broken_kernel_start):
    # a nonzero P_j[-1] puts one below the base degree of an entry, which the
    # kernel computes and raises, not drops: with an excess window (B = 4
    # and 1) and on an expected-empty problem (B = -1), whose entries still
    # go through the kernel
    for g, lam in ((8, (2, 1)), (8, (3, 2, 1)), (6, (3, 2, 1))):
        with pytest.raises(CheckFailure):
            ch_k_class(problem_from_partition(g, lam))


def test_expected_empty_class_still_calls_the_kernel(monkeypatch):
    # |lambda| > g - 1: the class is 0, and each of the l(l-1)/2 entries
    # is still built, so the guard walks its cells below the base
    calls = []

    def counted(*args):
        calls.append(args[0])
        return apply_pair_operator(*args)

    monkeypatch.setattr(prym_bn, "apply_pair_operator", counted)
    for g, lam in ((5, (3, 2, 1)), (6, (4, 3, 2, 1)), (4, (5, 2)), (7, (6, 5, 4, 3, 2))):
        calls.clear()
        p = problem_from_partition(g, lam)
        assert p.expected_empty
        ch = ch_k_class(p)
        assert ch == ThetaPoly.zero(g - 1) and all(type(c) is int for c in ch.coeffs)
        assert len(calls) == len(lam) * (len(lam) - 1) // 2, lam


def test_routes_multiply_int_series_only(theta_products):
    # the one product loop of ThetaPoly is only ever run on int series: the
    # oracle's entry windows are scaled to ints before the Pfaffian
    for p in selfcheck._suite_problems(7):
        ch_k_class(p)
        for beta_mode in (-1, "symbolic"):
            ck_class(p, beta_mode)
        euler_oracle(p)
    assert theta_products
    assert all(type(c) is int for pair in theta_products for x in pair for c in x.coeffs)


def _symbolic_at(p, beta):
    # the symbolic class with each BetaPoly coefficient evaluated at beta; an int stays
    sym = ck_class(p, "symbolic")
    return ThetaPoly(sym.cap, [
        sum(x * beta**e for e, x in c.items()) if isinstance(c, BetaPoly) else c
        for c in sym.coeffs
    ])


def test_ck_class_beta_zero_is_single_monomial():
    # at beta = 0 the class is gamma * theta'^|lambda|, gamma as class_result answers it
    p = build_problem(4, 1, (1, 2))
    assert _symbolic_at(p, 0) == ThetaPoly.monomial(3, 3, Fraction(1, 24))
    assert class_result(p, 0) == Fraction(1, 24)


def test_ck_class_beta_zero_matches_pfaffian_embedding():
    for g in (3, 4, 5, 6):
        for lam in strict_partitions(g - 1, 3, 2 * g - 2):
            if not lam:
                continue
            p = problem_from_partition(g, lam)
            want = ThetaPoly.monomial(g - 1, sum(lam), chow_class_pfaffian(lam))
            assert _symbolic_at(p, 0) == want
            assert class_result(p, 0) == chow_class_pfaffian(lam)


def test_ck_class_beta_minus_one_is_ch_k():
    for g in (3, 4, 5):
        for lam in strict_partitions(g - 1, 3, 2 * g - 2):
            p = problem_from_partition(g, lam)
            assert ck_class(p, -1) == ch_k_class(p)


def test_ck_class_empty_partition_is_one():
    p = problem_from_partition(4, ())
    assert ck_class(p, -1) == ThetaPoly.one(3)
    assert ck_class(p, "symbolic") == ThetaPoly.one(3)


def test_ck_class_symbolic_specializes():
    # beta = -1 gives the Chern character; beta = 0 gives 1 for the empty
    # partition (nonempty ones: test_ck_class_beta_zero_matches_pfaffian_embedding)
    for g in (3, 4, 5, 6):
        for lam in strict_partitions(g - 1, 3, 2 * g - 2):
            p = problem_from_partition(g, lam)
            assert _symbolic_at(p, -1) == ch_k_class(p)
            if not lam:
                assert _symbolic_at(p, 0) == ThetaPoly.one(g - 1)


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


@pytest.mark.parametrize("g", [*range(3, 12), 200, 1000])
def test_euler_closed_form_anchors(g):
    """chi at lambda = (1), (2) and (2, 1) in closed form, with h = g - 1.

    The closed forms come from the count of shifted set-valued tableaux of
    shape lambda with content {1, ..., h}, each weighted by 2 per entry off
    the main diagonal, with chi = (-1)^(h - |lambda|) times the count. The
    repository checks that identity on many problems but does not prove
    it, so these anchor euler_theorem to a conjectured outside formula.
    """
    h = g - 1
    assert euler_theorem(problem_from_partition(g, (1,))) == (-1) ** (h - 1)
    assert euler_theorem(problem_from_partition(g, (2,))) == (-1) ** h * (2**h - 2)
    assert euler_theorem(problem_from_partition(g, (2, 1))) == (-1) ** (h - 1) * (2**h - 2 * h)


def corner_weight(mu):
    """w(mu): the removable corners of the shifted diagram of the strict
    partition mu, each weighing 1 on the diagonal (a part 1) and 2 off it."""
    return sum(
        1 if part == 1 else 2 for i, part in enumerate(mu) if i + 1 == len(mu) or part - 1 > mu[i + 1]
    )


def test_euler_oracle_satisfies_the_corner_recurrence_in_the_genus():
    """For fixed lambda, chi(g) is annihilated by the product of E + w(mu)
    over the strict partitions mu with mu_i <= lambda_i, E the shift g -> g + 1.

    The recurrence follows from a conjectural identity (ROADMAP item 3):
    chi is (-1)^(h - |lambda|), h = g - 1, times the count of shifted
    set-valued tableaux of shape lambda with content {1, ..., h}, each
    weighted by 2 per entry off the main diagonal. That count is a walk on
    the mu contained in lambda whose transfer matrix is triangular with
    diagonal w(mu). The repository checks the identity but does not prove
    it. Every window of consecutive genera from the lowest valid one
    (2g - 2 >= lambda_1) to g = 25 is checked, expected-empty genera
    included: each value comes from euler_oracle, so every genus runs the
    entry kernel.
    """
    cases = 0
    for lam in ((2, 1), (3, 1), (3, 2), (3, 2, 1), (4, 2, 1), (4, 3), (5, 2)):
        subs = [mu for mu in strict_partitions(sum(lam), len(lam), lam[0]) if all(map(int.__le__, mu, lam))]
        poly = [1]  # coefficients of prod (E + w) in powers of E, lowest first
        for mu in subs:
            w = corner_weight(mu)
            poly = [w * c + d for c, d in zip(poly + [0], [0] + poly)]
        low = max(2, (lam[0] + 1) // 2 + 1)
        chi = [euler_oracle(problem_from_partition(g, lam)) for g in range(low, 26)]
        for g in range(len(chi) - len(subs)):
            assert sum(c * x for c, x in zip(poly, chi[g:])) == 0, (lam, low + g)
            cases += 1
    assert cases == 100


@pytest.mark.parametrize("g", [2, 5, 12, 200])
def test_one_part_class_is_the_chern_character_of_a_divisor(g):
    # outside fact: at lambda = (1) the class is 1 - e^(-theta'/2), the
    # Chern character of O_D for a divisor D in the class xi, truncated at
    # degree g - 1
    want = [0] + [-Fraction(-1, 2) ** d / factorial(d) for d in range(1, g)]
    assert list(ch_k_class(problem_from_partition(g, (1,))).coeffs) == want


def test_lambda_2_class_is_the_square_of_the_divisor_class():
    # ROADMAP item 20's lambda = (2) anchor, an identity the code satisfies
    # at every genus checked, not a proof of it: the class is
    # (1 - e^(-theta'/2))^2, the square of the lambda = (1) class above,
    # truncated at degree g - 1 (at g = 2 both sides are the zero series)
    for g in range(2, 40):
        divisor = ThetaPoly(g - 1, [0] + [-Fraction(-1, 2) ** d / factorial(d) for d in range(1, g)])
        assert ch_k_class(problem_from_partition(g, (2,))) == divisor * divisor, g


def test_euler_routes_agree():
    for g in range(2, 6):
        for lam in strict_partitions(g - 1, 4, 2 * g - 2):
            p = problem_from_partition(g, lam)
            assert euler_theorem(p) == euler_oracle(p), (g, lam)


def test_euler_integrality():
    # chi is one type, int, at every part count, expected-empty problems
    # (|lambda| > g - 1, at g = 2..5 with up to 4 parts) included
    for g in range(2, 6):
        for lam in strict_partitions(2 * g, 4, 2 * g - 2):
            chi = euler_theorem(problem_from_partition(g, lam))
            assert type(chi) is int, (g, lam)
    # three to six parts and |lambda| <= g - 2, g = 7..16: no int shift, so
    # the route runs its checked division, and the quotient is an int
    problems = [
        problem_from_partition(g, lam)
        for g in range(7, 17)
        for lam in strict_partitions(g - 2, 6, 2 * g - 2)
        if len(lam) >= 3
    ]
    assert len(problems) == 162
    for p in problems:
        chi = euler_theorem(p)
        assert type(chi) is int, (p.g, p.lam)


def test_euler_oracle_is_an_int():
    # the oracle's one checked division gives an int at every part count:
    # the empty partition, one part, expected-empty problems and more parts
    for g in range(2, 8):
        for lam in strict_partitions(2 * g, 4, 2 * g - 2):
            chi = euler_oracle(problem_from_partition(g, lam))
            assert type(chi) is int, (g, lam)


def test_theorem_route_builds_no_fraction(monkeypatch):
    # the walk and its division run on ints alone: no Fraction is built,
    # from one part to six and at genera below |lambda| + 1
    def refuse(cls, *args, **kwargs):
        raise AssertionError("the theorem route built a Fraction")

    problems = [problem_from_partition(sum(lam) + 1, lam) for lam in strict_partitions(21, 6, 42)[1:]]
    assert {p.ell for p in problems} == {1, 2, 3, 4, 5, 6}
    want = [euler_theorem_genera(p, range(2, 24)) for p in problems]
    monkeypatch.setattr(Fraction, "__new__", refuse)
    assert [euler_theorem_genera(p, range(2, 24)) for p in problems] == want


def test_theorem_route_raises_on_a_remainder(off_by_one_walk):
    # the checked division: a total that is no whole multiple of its
    # denominator raises, naming the check, the route, lambda and g
    with pytest.raises(CheckFailure) as raised:
        euler_theorem(problem_from_partition(12, (3, 2, 1)))
    assert str(raised.value) == "integrality: the theorem route's chi at lambda=(3, 2, 1), g=12 is not an integer"
    # a genus read below |lambda| + 1 is 0 with no division, and one or two
    # parts take no division
    assert euler_theorem_genera(problem_from_partition(7, (3, 2, 1)), (2, 6)) == [0, 0]
    assert euler_theorem(problem_from_partition(12, (3, 2))) == euler_oracle(problem_from_partition(12, (3, 2)))


def test_sign_law():
    """(-1)^rho * chi > 0 whenever rho = g - 1 - |lambda| >= 0, on all
    12,767 values with g <= 31 and at most six parts, one
    euler_theorem_genera walk per partition.

    A checked conjecture, not a proved fact: it follows from the
    conjectural count of shifted set-valued tableaux (ROADMAP item 3), in
    which chi is (-1)^rho times a positive count. The empty partition is
    left out: its chi, that of the Prym variety itself, is 0.
    """
    values = 0
    for lam in strict_partitions(30, 6, 60)[1:]:
        low = sum(lam) + 1
        for g, chi in zip(range(low, 32), euler_theorem_genera(problem_from_partition(low, lam), range(low, 32))):
            assert (-1) ** (g - low) * chi > 0, (lam, g)
            values += 1
    assert values == 12767


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


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_matching_sum_signs_equal_oracle_engine(n):
    # one-term series of formal letters: the walk's signed terms, factors in
    # order, are the signed matchings the oracle's Pfaffian engine sums
    # (3, 15, 105 and 945 of them)
    series = {(i, j): [Terms.letter(i, j)] for i in range(n) for j in range(i + 1, n)}
    totals = [0]
    prym_bn._matching_sum(tuple(range(n)), series, (0,), totals)
    [got] = totals
    want = pfaffian_matchings(SkewMatrix(n, Terms.letter))
    assert len(got.terms) == factorial(n) // (2 ** (n // 2) * factorial(n // 2))  # (n-1)!!
    assert Counter(got.terms) == Counter(want.terms)


def test_euler_theorem_needs_no_pfaffian_engine_or_series_ring(monkeypatch):
    problems = selfcheck._suite_problems(7) + [
        problem_from_partition(g, lam)
        for g, lam in [
            (16, (5, 4, 3, 2, 1)),
            (20, (7, 5, 3, 2, 1)),
            (22, (6, 5, 4, 3, 2, 1)),
            (27, (7, 6, 4, 3, 2, 1)),
            (30, (7, 6, 5, 4, 3, 2, 1)),
            (31, (8, 6, 5, 4, 3, 2, 1)),
            (37, (8, 7, 6, 5, 4, 3, 2, 1)),
            (40, (9, 7, 6, 5, 4, 3, 2, 1)),
        ]
    ]
    want = [euler_oracle(p) for p in problems]

    def refuse(*args, **kwargs):
        raise AssertionError("the theorem route called the Pfaffian engines or the series ring")

    for name in pfaffian.__all__:
        monkeypatch.setattr(prym_bn, name, refuse, raising=False)
    monkeypatch.setattr(ThetaPoly, "__mul__", refuse)
    assert [euler_theorem(p) for p in problems] == want


def test_euler_oracle_needs_no_abel_row_or_theorem_series(monkeypatch):
    # the oracle builds its prefactor rows by their own recurrence, so it
    # reads none of the theorem route's Abel rows, pair series or matching
    # walk: with those made to raise, it still gives the classes recorded
    # before, its prefactor cache emptied so that no row is served from it
    problems = selfcheck._suite_problems(7)
    want = [(ch_k_class(p), euler_oracle(p)) for p in problems]
    prefactor_expansion.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle called an Abel row or series of the theorem route")

    for module in (exact_arith, operator_engine, prym_bn):
        for name in ("abel_row", "abel_last", "_abel_ints"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    monkeypatch.setattr(prym_bn, "_pair_ints", refuse)
    monkeypatch.setattr(prym_bn, "_matching_sum", refuse)
    assert [(ch_k_class(p), euler_oracle(p)) for p in problems] == want
    assert prefactor_expansion.cache_info().currsize > 0


def test_theorem_walk_six_levels_deep():
    # the 13-part staircase with the boundary index: 14 indices, 13!! = 135,135
    # matchings, at its smallest genus, where the degree budget is 0
    p = problem_from_partition(92, tuple(range(13, 0, -1)))
    assert p.rho == 0
    assert euler_theorem(p) == euler_oracle(p)


def test_one_part_theorem_holds_one_abel_value():
    # at g = 4000, lambda = (2000) the Abel row's 2001 ints take about 1 MB;
    # euler_theorem reads its last int alone, walking the row
    p = problem_from_partition(4000, (2000,))
    tracemalloc.start()
    try:
        chi = euler_theorem(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    budget = p.dim_prym - p.codim
    assert chi == Fraction(abel_row(p.s[0], budget)[-1] << p.dim_prym, 2 ** (budget + 1))


def test_genus_reads_equal_per_genus_runs():
    # every strict lambda of up to six parts: one walk at g = 24 read at each
    # genus from 2 equals a run at that genus alone (3,528 nonzero reads),
    # and the oracle up to g = 18; a genus with g - 1 < |lambda| reads int 0
    genera = tuple(range(2, 25))
    lengths = set()
    reads = 0
    for lam in strict_partitions(23, 6, 46)[1:]:
        lengths.add(len(lam))
        p = problem_from_partition(sum(lam) + 1, lam)
        got = euler_theorem_genera(p, genera)
        assert len(got) == len(genera)
        for g, chi in zip(genera, got):
            if g - 1 < p.codim:
                assert chi == 0 and type(chi) is int, (lam, g)
                continue
            at_g = problem_from_partition(g, lam)
            assert chi == euler_theorem(at_g), (lam, g)
            if g <= 18:
                assert chi == euler_oracle(at_g), (lam, g)
            reads += 1
    # one part walks the Abel row, two read the lone series, odd counts
    # take the boundary index
    assert lengths == {1, 2, 3, 4, 5, 6}
    assert reads == 3528


def test_genus_reads_take_an_ascending_sequence():
    p = problem_from_partition(6, (3, 1))
    # any iterable of genera; g = 3 lies below |lambda| + 1 = 5
    assert euler_theorem_genera(p, iter((3, 5, 9))) == [
        0,
        euler_theorem(problem_from_partition(5, (3, 1))),
        euler_theorem(problem_from_partition(9, (3, 1))),
    ]
    for genera in ((), (5, 4), (5, 5), (3, 6, 6)):
        with pytest.raises(ValueError, match="ascending"):
            euler_theorem_genera(p, genera)
    # the walk reads lambda, not the genus the problem was built at
    assert euler_theorem_genera(p, (12,)) == [euler_theorem(problem_from_partition(12, (3, 1)))]
    assert euler_theorem_genera(problem_from_partition(4, ()), (2, 8)) == [0, 0]


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
    # the closed product of the staircase against the De Concini-Pragacz
    # closed form, gamma * 2^(r(r+1)/2) = 2^C(r,2) * prod (i-1)!/(2i-1)!
    for r in range(1, 7):
        closed = Fraction(2 ** (r * (r - 1) // 2))
        for i in range(1, r + 1):
            closed *= Fraction(factorial(i - 1), factorial(2 * i - 1))
        assert chow_class_closed(tuple(range(r, 0, -1))) * 2 ** (r * (r + 1) // 2) == closed, r


def test_classical_coefficient_matches_de_concini_pragacz():
    # outside anchor: the De Concini-Pragacz class of the Prym-Brill-Noether
    # locus (Math. Ann. 1995), gamma * 2^(r(r+1)/2) = 2^C(r,2) * prod (i-1)!/(2i-1)!,
    # for the closed product and, up to r = 8, for the Pfaffian route
    for r in range(13):
        closed = Fraction(2 ** (r * (r - 1) // 2))
        for i in range(1, r + 1):
            closed *= Fraction(factorial(i - 1), factorial(2 * i - 1))
        assert classical_coefficient(r) * 2 ** (r * (r + 1) // 2) == closed, r
        if r <= 8:
            staircase = tuple(range(r, 0, -1))
            assert chow_class_pfaffian(staircase) * 2 ** (r * (r + 1) // 2) == closed, r


# ----------------------------------------------------------- class_result


def test_class_result_kinds():
    p = build_problem(4, 1, (1, 2))
    gamma = class_result(p, 0)
    assert type(gamma) is Fraction
    assert gamma == chow_class_closed(p.lam) == Fraction(1, 24)
    assert class_result(p, -1) == ch_k_class(p) == ck_class(p, -1)
    assert class_result(p, "symbolic") == ck_class(p, "symbolic")
    with pytest.raises(ValueError):
        class_result(p, 2)
    for mode in (0, 1, "beta", None):
        with pytest.raises(ValueError):
            ck_class(p, mode)
    # 0 and -1 are modes only as genuine integers, by build_problem's rule
    for mode in (False, True, 0.0, -1.0):
        for route in (class_result, ck_class):
            with pytest.raises(ValueError):
                route(p, mode)


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
