"""Acceptance suite: one test per criterion, exact equality throughout.

Each criterion restates an invariant of the selfcheck registry in plain
terms, independently of the registry code that tests/test_selfcheck.py
runs. Run with `pytest tests/test_acceptance.py -v` for the per-criterion
pass/fail listing (add -s to see the summary lines printed below).
"""

import time
from fractions import Fraction
from math import comb, factorial

import pytest

from prymck.prym_bn import (
    ch_k_class,
    chow_class_closed,
    chow_class_pfaffian,
    euler_oracle,
    euler_theorem,
    strict_partitions,
)
from prymck.selfcheck import _suite_problems
from prymck.series_ring import ThetaPoly


@pytest.fixture(scope="module")
def suite():
    # g in 2..7, strict lambda with at most 4 parts, parts <= 2g-2 and
    # size <= g-1 (the empty partition included): 41 problems
    problems = _suite_problems(7)
    t0 = time.time()
    results = [(p, euler_theorem(p), euler_oracle(p)) for p in problems]
    elapsed = time.time() - t0
    return results, elapsed


def test_criterion_01_theorem_vs_oracle(suite):
    results, elapsed = suite
    for p, theorem, oracle in results:
        assert theorem == oracle, (p.g, p.lam, theorem, oracle)
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    print(f"criterion-1 theorem-vs-oracle: PASS ({len(results)} problems, {elapsed:.2f}s)")


def test_criterion_03_integrality(suite):
    results, _ = suite
    for p, theorem, _ in results:
        assert theorem.denominator == 1, (p.g, p.lam, theorem)
    print(f"criterion-3 integrality: PASS ({len(results)} problems)")


def test_criterion_04_pfaffian_vs_closed_product():
    cases = 0
    for lam in strict_partitions(5 * 9, 5, 9):
        if not lam:
            continue
        assert chow_class_pfaffian(lam) == chow_class_closed(lam), lam
        cases += 1
    assert cases == sum(comb(9, k) for k in range(1, 6))
    print(f"criterion-4 pfaffian-vs-closed: PASS ({cases} partitions)")


def test_criterion_05_k_class_leading_term(suite):
    results, _ = suite
    cases = 0
    for p, _, _ in results:
        if not p.lam:
            continue
        assert ch_k_class(p).coeff(p.codim) == chow_class_closed(p.lam), p.lam
        cases += 1
    print(f"criterion-5 k-class-leading-term: PASS ({cases} problems)")


def test_criterion_06_binomial_tail_identity():
    cases = 0
    for lj in range(2, 13):
        for li in range(1, lj):
            lhs = sum((-1) ** u * comb(li + lj, li + u) for u in range(1, lj + 1))
            assert lhs == -comb(li + lj - 1, li), (li, lj)
            cases += 1
    print(f"criterion-6 binomial-tail-identity: PASS ({cases} pairs)")


def test_criterion_08_series_vanishing():
    for j in range(1, 21):
        plus = ThetaPoly(j, [Fraction(1, factorial(d)) for d in range(j + 1)])
        minus = ThetaPoly(j, [Fraction((-1) ** d, factorial(d)) for d in range(j + 1)])
        assert (plus * minus).coeff(j) == 0, j
    print("criterion-8 series-vanishing: PASS (20 degrees)")


def test_criterion_10_classical_recovery():
    # the closed product of the staircase (r, ..., 1) against the
    # De Concini-Pragacz closed form
    # 2^C(r,2) * prod_{i=1..r} (i-1)!/(2i-1)! / 2^(r(r+1)/2)
    for r in range(0, 7):
        closed = Fraction(2 ** comb(r, 2), 2 ** (r * (r + 1) // 2))
        for i in range(1, r + 1):
            closed *= Fraction(factorial(i - 1), factorial(2 * i - 1))
        assert chow_class_closed(tuple(range(r, 0, -1))) == closed, r
    print("criterion-10 classical-recovery: PASS (r = 0..6)")
