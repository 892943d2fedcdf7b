"""The invariant registry: the one place each checked invariant is written.

Each check in CHECKS takes no argument and returns (ok, cases), and run(),
behind the command line selfcheck, prints one line per check.
tests/test_selfcheck.py runs every check with its case count pinned, so
pytest restates no invariant. Randomized checks use a fixed seed so runs
are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

from . import prym_bn
from .exact_arith import abel_coefficient, binom_gen
from .operator_engine import interaction_expansion, prefactor_expansion
from .pfaffian import (
    SkewMatrix,
    det_fraction_free,
    pfaffian_matchings,
    pfaffian_permutations,
)
from .prym_bn import (
    SYMBOLIC,
    chow_class_closed,
    chow_class_pfaffian,
    problem_from_partition,
    strict_partitions,
)
from .series_ring import ThetaPoly

_SEED = 20240803


def _suite_problems(g_max):
    out = []
    for g in range(2, g_max + 1):
        for lam in strict_partitions(g - 1, 4, 2 * g - 2):
            out.append(problem_from_partition(g, lam))
    return out


def _empty_problems(count):
    out = []
    for g in range(2, 8):
        for lam in strict_partitions(4 * g, 3, 2 * g - 2):
            if lam and sum(lam) > g - 1:
                out.append(problem_from_partition(g, lam))
                if len(out) == count:
                    return out
    raise ValueError(f"only {len(out)} expected-empty problems, {count} asked for")


def _random_skew(rng, n):
    return SkewMatrix.from_upper(
        n,
        lambda i, j: Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
    )


def check_pascal_rule():
    cases = 0
    for s in range(1, 31):
        for t in range(1, s + 1):
            if binom_gen(s, t) != binom_gen(s - 1, t - 1) + binom_gen(s - 1, t):
                return False, cases
            cases += 1
    return True, cases


def check_binomial_tail():
    cases = 0
    for lj in range(2, 13):
        for li in range(1, lj):
            lhs = sum((-1) ** u * binom_gen(li + lj, li + u) for u in range(1, lj + 1))
            if lhs != -binom_gen(li + lj - 1, li):
                return False, cases
            # and against math.comb, from outside the package
            if lhs != sum((-1) ** u * comb(li + lj, li + u) for u in range(1, lj + 1)):
                return False, cases
            cases += 1
    return True, cases


def check_abel_series():
    cases = 0
    for s in range(-8, 9):
        # T^v coefficients of (1+T)^s times the geometric expansion of 1/(2+T)
        for v in range(13):
            conv = Fraction(0)
            for k in range(v + 1):
                geo = Fraction((-1) ** k, 2 ** (k + 1))
                conv += binom_gen(s, v - k) * geo
            if conv != abel_coefficient(s, v):
                return False, cases
            cases += 1
    return True, cases


def check_series_laws():
    rng = random.Random(_SEED)
    cases = 0
    for _ in range(120):
        cap = rng.randint(0, 12)

        def rand_poly():
            return ThetaPoly(
                cap,
                [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(cap + 1)],
            )

        a, b, c = rand_poly(), rand_poly(), rand_poly()
        if (a * b) * c != a * (b * c):
            return False, cases
        if a * b != b * a:
            return False, cases
        if a * (b + c) != a * b + a * c:
            return False, cases
        cases += 1
    return True, cases


def check_series_vanishing():
    cases = 0
    for j in range(1, 21):
        plus = ThetaPoly(j, [Fraction(1, factorial(d)) for d in range(j + 1)])
        minus = ThetaPoly(j, [Fraction((-1) ** d, factorial(d)) for d in range(j + 1)])
        if plus * minus != ThetaPoly.one(j):
            return False, cases
        cases += 1
    return True, cases


def _pfaffian_engine_cases(rng, plan):
    """The three engines on plan[n] random n x n matrices for each n: the
    matching and permutation sums agree, and below n = 8 the Pfaffian
    squared is the determinant."""
    cases = 0
    for n, count in plan.items():
        for _ in range(count):
            m = _random_skew(rng, n)
            pf = pfaffian_matchings(m)
            if pf != pfaffian_permutations(m):
                return False, cases
            if n <= 6 and pf * pf != det_fraction_free(m.rows()):
                return False, cases
            cases += 1
    return True, cases


def check_pfaffian_engines():
    plan = {2: 25, 4: 20, 6: 12, 8: 5}
    return _pfaffian_engine_cases(random.Random(_SEED + 1), plan)


def check_pfaffian_closed_product():
    cases = 0
    for lam in strict_partitions(45, 5, 9):
        if not lam:
            continue
        if chow_class_pfaffian(lam) != chow_class_closed(lam):
            return False, cases
        cases += 1
    return True, cases


def check_kclass_leading_term():
    cases = 0
    for p in _suite_problems(7):
        if not p.lam:
            continue
        if prym_bn.ch_k_class(p).coeff(p.codim) != chow_class_closed(p.lam):
            return False, cases
        cases += 1
    return True, cases


def check_oracle_equivalence():
    cases = 0
    for p in _suite_problems(7):
        if prym_bn.euler_theorem(p) != prym_bn.euler_oracle(p):
            return False, cases
        cases += 1
    return True, cases


def check_integrality():
    cases = 0
    for p in _suite_problems(7):
        if prym_bn.euler_theorem(p).denominator != 1:
            return False, cases
        cases += 1
    return True, cases


def check_zero_dimensional_degree():
    cases = 0
    for p in _suite_problems(7):
        if not p.lam or p.codim != p.dim_prym:
            continue
        degree = chow_class_closed(p.lam) * 2**p.dim_prym * factorial(p.dim_prym)
        if prym_bn.euler_theorem(p) != degree:
            return False, cases
        cases += 1
    return True, cases


def check_emptiness():
    cases = 0
    for p in _empty_problems(50):
        zero = (
            p.expected_empty
            and prym_bn.euler_theorem(p) == 0
            and prym_bn.euler_oracle(p) == 0
            and not prym_bn.ch_k_class(p)
        )
        if not zero:
            return False, cases
        cases += 1
    return True, cases


def _de_concini_pragacz(r):
    """De Concini-Pragacz closed form of the staircase class coefficient,
    2^C(r,2) * prod_{i=1..r} (i-1)!/(2i-1)! / 2^(r(r+1)/2)."""
    value = Fraction(2 ** (r * (r - 1) // 2), 2 ** (r * (r + 1) // 2))
    for i in range(1, r + 1):
        value *= Fraction(factorial(i - 1), factorial(2 * i - 1))
    return value


def check_classical_recovery():
    cases = 0
    for r in range(0, 7):
        if chow_class_closed(tuple(range(r, 0, -1))) != _de_concini_pragacz(r):
            return False, cases
        cases += 1
    return True, cases


def check_interaction_specialization():
    # the general-beta closed forms at beta = 0 and -1 against the engine's
    # beta = -1 expansions, scaled by (-beta)^(a-b) and (-beta)^v; the
    # prefactor comes as ints over 2^(cap+1)
    cap = 10
    inter = interaction_expansion(cap)
    cases = 0
    for beta in (Fraction(0), Fraction(-1)):
        for a in range(cap + 1):
            for b in range(a + 1):
                base = binom_gen(a, b) + (binom_gen(a - 1, b - 1) if b else 0)
                want = (-1) ** b * base * beta ** (a - b)
                if inter[b][a] * (-beta) ** (a - b) != want:
                    return False, cases
                cases += 1
        for s in range(-4, 5):
            pre = prefactor_expansion(s, cap)
            for v in range(cap + 1):
                want = beta**v * sum(
                    Fraction((-1) ** j * binom_gen(s, j), 2 ** (v + 1 - j)) for j in range(v + 1)
                )
                if Fraction(pre[v], 2 ** (cap + 1)) * (-beta) ** v != want:
                    return False, cases
                cases += 1
    return True, cases


def check_json_roundtrip():
    cases = 0
    for p in _suite_problems(4):
        poly = prym_bn.ch_k_class(p)
        if ThetaPoly.from_json_dict(poly.to_json_dict()) != poly:
            return False, cases
        sym = prym_bn.ck_class(p, SYMBOLIC)
        if ThetaPoly.from_json_dict(sym.to_json_dict()) != sym:
            return False, cases
        cases += 1
    return True, cases


CHECKS = (
    ("pascal-rule", check_pascal_rule),
    ("binomial-tail-identity", check_binomial_tail),
    ("abel-series-crosscheck", check_abel_series),
    ("series-ring-laws", check_series_laws),
    ("series-vanishing", check_series_vanishing),
    ("pfaffian-engines", check_pfaffian_engines),
    ("pfaffian-closed-product", check_pfaffian_closed_product),
    ("kclass-leading-term", check_kclass_leading_term),
    ("oracle-equivalence", check_oracle_equivalence),
    ("integrality", check_integrality),
    ("zero-dimensional-degree", check_zero_dimensional_degree),
    ("emptiness", check_emptiness),
    ("classical-recovery", check_classical_recovery),
    ("interaction-specialization", check_interaction_specialization),
    ("json-roundtrip", check_json_roundtrip),
)


def run() -> int:
    """Run every check, print one line per check, return 0 iff all pass."""
    failures = 0
    for name, fn in CHECKS:
        try:
            ok, cases = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            print(f"{name}: FAIL (error: {exc})")
            failures += 1
            continue
        if ok:
            print(f"{name}: PASS ({cases} cases)")
        else:
            print(f"{name}: FAIL (after {cases} cases)")
            failures += 1
    label = "PASS" if failures == 0 else f"FAIL ({failures} failing)"
    print(f"selfcheck: {label} ({len(CHECKS)} checks)")
    return 0 if failures == 0 else 1
