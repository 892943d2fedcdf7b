"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion
pass/fail listing (add -s to see the summary lines printed below).
"""

import json
import random
import time
from fractions import Fraction
from math import comb

import pytest

from prymck.cli import main
from prymck.exact_arith import factorial
from prymck.pfaffian import (
    SkewMatrix,
    det_fraction_free,
    pfaffian_matchings,
    pfaffian_permutations,
)
from prymck.prym_bn import (
    build_problem,
    ch_k_class,
    chow_class_closed,
    chow_class_pfaffian,
    classical_coefficient,
    euler_oracle,
    euler_theorem,
    problem_from_partition,
    strict_partitions,
)
from prymck.series_ring import ThetaPoly


def criterion_problems():
    """Criterion-1 suite: g in 2..7, strict lambda with at most 4 parts,
    parts <= 2g-2 and size <= g-1 (the empty partition included)."""
    out = []
    for g in range(2, 8):
        for lam in strict_partitions(g - 1, 4, 2 * g - 2):
            out.append(problem_from_partition(g, lam))
    return out


@pytest.fixture(scope="module")
def suite():
    problems = criterion_problems()
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


def test_criterion_02_anchored_values():
    anchors = [
        ((3, 1, (0, 1)), -1),  # theta divisor of a 2-dim ppav
        ((4, 1, (1, 2)), 2),  # zero-dimensional: class degree
        ((2, 1, (0, 1)), 1),  # zero-dimensional: class degree
    ]
    for (g, r, a), chi in anchors:
        p = build_problem(g, r, a)
        assert euler_theorem(p) == chi
        assert euler_oracle(p) == chi
    # the zero-dimensional anchors against the closed-form degree
    assert chow_class_closed((2, 1)) * 2**3 * factorial(3) == 2
    assert chow_class_closed((1,)) * 2**1 * factorial(1) == 1
    print("criterion-2 anchored-values: PASS (3 anchors)")


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


def test_criterion_07_pfaffian_engines():
    rng = random.Random(20240803)
    plan = {2: 80, 4: 60, 6: 50, 8: 10}
    assert sum(plan.values()) == 200
    cases = 0
    for n, count in plan.items():
        for _ in range(count):
            m = SkewMatrix.from_upper(
                n, lambda i, j: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            )
            pf = pfaffian_matchings(m)
            assert pf == pfaffian_permutations(m), n
            if n <= 6:
                assert pf * pf == det_fraction_free(m.rows()), n
            cases += 1
    print(f"criterion-7 pfaffian-engines: PASS ({cases} matrices)")


def test_criterion_08_series_vanishing():
    for j in range(1, 21):
        plus = ThetaPoly(j, [Fraction(1, factorial(d)) for d in range(j + 1)])
        minus = ThetaPoly(j, [Fraction((-1) ** d, factorial(d)) for d in range(j + 1)])
        assert (plus * minus).coeff(j) == 0, j
    print("criterion-8 series-vanishing: PASS (20 degrees)")


def empty_problems(count):
    out = []
    for g in range(2, 8):
        for lam in strict_partitions(4 * g, 3, 2 * g - 2):
            if lam and sum(lam) > g - 1:
                out.append(problem_from_partition(g, lam))
                if len(out) == count:
                    return out
    raise AssertionError("not enough overdetermined problems generated")


def test_criterion_09_emptiness():
    problems = empty_problems(50)
    for p in problems:
        assert p.expected_empty
        assert euler_theorem(p) == 0, (p.g, p.lam)
        assert euler_oracle(p) == 0, (p.g, p.lam)
        assert not ch_k_class(p), (p.g, p.lam)
    print(f"criterion-9 emptiness: PASS ({len(problems)} problems)")


def test_criterion_10_classical_recovery():
    # the staircase coefficient (its De Concini-Pragacz closed form is
    # checked in test_prym_bn) against the closed product of the staircase
    for r in range(0, 7):
        value = classical_coefficient(r)
        if r:
            assert value == chow_class_closed(tuple(range(r, 0, -1)))
    print("criterion-10 classical-recovery: PASS (r = 0..6)")


def test_criterion_11_cli_determinism_and_roundtrip(suite, capsys):
    results, _ = suite
    checked = 0
    for p, theorem, _ in results:
        a = ",".join(str(x) for x in p.a)
        base = ["--genus", str(p.g), "-r", str(p.r), "--vanishing", a]

        for args in (
            ["class", *base, "--beta", "-1", "--output", "json"],
            ["chi", *base, "--output", "json"],
        ):
            assert main(args) == 0
            first = capsys.readouterr().out
            assert main(args) == 0
            second = capsys.readouterr().out
            assert first == second, args

            doc = json.loads(first)
            assert doc["problem"]["g"] == p.g
            assert doc["problem"]["lambda"] == list(p.lam)
            if args[0] == "class":
                poly = ThetaPoly.from_json_dict(doc["result"]["theta_poly"])
                assert poly == ch_k_class(p)
            else:
                assert Fraction(doc["result"]["chi"]) == theorem
        checked += 1
    print(f"criterion-11 cli-determinism-roundtrip: PASS ({checked} problems)")
