"""The invariant registry: the one place each checked invariant is written.

Each check in CHECKS returns (ok, cases) at the quick or the full size, and
the runner behind the command line selfcheck prints one line per check.
tests/test_selfcheck.py runs every check at both sizes with its case count
pinned, so pytest restates no invariant. Randomized checks use a fixed seed
so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from . import prym_bn
from .exact_arith import abel_coefficient, binom_gen, factorial
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
    classical_coefficient,
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


def check_pascal_rule(quick):
    top = 12 if quick else 30
    cases = 0
    for s in range(1, top + 1):
        for t in range(1, s + 1):
            if binom_gen(s, t) != binom_gen(s - 1, t - 1) + binom_gen(s - 1, t):
                return False, cases
            cases += 1
    return True, cases


def check_binomial_tail(quick):
    top = 8 if quick else 12
    cases = 0
    for lj in range(2, top + 1):
        for li in range(1, lj):
            lhs = sum((-1) ** u * binom_gen(li + lj, li + u) for u in range(1, lj + 1))
            if lhs != -binom_gen(li + lj - 1, li):
                return False, cases
            # and against math.comb, from outside the package
            if lhs != sum((-1) ** u * comb(li + lj, li + u) for u in range(1, lj + 1)):
                return False, cases
            cases += 1
    return True, cases


def check_abel_series(quick):
    s_top, v_top = (4, 6) if quick else (8, 12)
    cases = 0
    for s in range(-s_top, s_top + 1):
        # T^v coefficients of (1+T)^s times the geometric expansion of 1/(2+T)
        for v in range(v_top + 1):
            conv = Fraction(0)
            for k in range(v + 1):
                geo = Fraction((-1) ** k, 2 ** (k + 1))
                conv += binom_gen(s, v - k) * geo
            if conv != abel_coefficient(s, v):
                return False, cases
            cases += 1
    return True, cases


def check_series_laws(quick):
    rng = random.Random(_SEED)
    rounds = 40 if quick else 120
    cases = 0
    for _ in range(rounds):
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


def check_series_vanishing(quick):
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


def check_pfaffian_engines(quick):
    plan = {2: 10, 4: 8} if quick else {2: 25, 4: 20, 6: 12, 8: 5}
    return _pfaffian_engine_cases(random.Random(_SEED + 1), plan)


def check_pfaffian_closed_product(quick):
    max_part = 5 if quick else 9
    cases = 0
    for lam in strict_partitions(5 * max_part, 5, max_part):
        if not lam:
            continue
        if chow_class_pfaffian(lam) != chow_class_closed(lam):
            return False, cases
        cases += 1
    return True, cases


def check_kclass_leading_term(quick):
    cases = 0
    for p in _suite_problems(4 if quick else 7):
        if not p.lam:
            continue
        if prym_bn.ch_k_class(p).coeff(p.codim) != chow_class_closed(p.lam):
            return False, cases
        cases += 1
    return True, cases


def check_oracle_equivalence(quick):
    cases = 0
    for p in _suite_problems(4 if quick else 7):
        if prym_bn.euler_theorem(p) != prym_bn.euler_oracle(p):
            return False, cases
        cases += 1
    return True, cases


def check_integrality(quick):
    cases = 0
    for p in _suite_problems(4 if quick else 7):
        if prym_bn.euler_theorem(p).denominator != 1:
            return False, cases
        cases += 1
    return True, cases


def check_zero_dimensional_degree(quick):
    cases = 0
    for p in _suite_problems(4 if quick else 7):
        if not p.lam or p.codim != p.dim_prym:
            continue
        degree = chow_class_closed(p.lam) * 2**p.dim_prym * factorial(p.dim_prym)
        if prym_bn.euler_theorem(p) != degree:
            return False, cases
        cases += 1
    return True, cases


def check_emptiness(quick):
    cases = 0
    for p in _empty_problems(10 if quick else 50):
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


def check_classical_recovery(quick):
    cases = 0
    for r in range(0, 7):
        value = classical_coefficient(r)
        if value != _de_concini_pragacz(r):
            return False, cases
        staircase = tuple(range(r, 0, -1))
        if staircase and value != chow_class_closed(staircase):
            return False, cases
        cases += 1
    return True, cases


def check_interaction_specialization(quick):
    # the general-beta closed forms at beta = 0 and -1 against the engine's
    # beta = -1 expansions, scaled by (-beta)^(a-b) and (-beta)^v
    cap = 6 if quick else 10
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
                if pre[v] * (-beta) ** v != want:
                    return False, cases
                cases += 1
    return True, cases


def check_json_roundtrip(quick):
    cases = 0
    for p in _suite_problems(3 if quick else 4):
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


def run(quick: bool = False, out=print) -> int:
    """Run every check, print one line per check, return 0 iff all pass."""
    failures = 0
    for name, fn in CHECKS:
        try:
            ok, cases = fn(quick)
        except Exception as exc:  # a crash is a failure, not an abort
            out(f"{name}: FAIL (error: {exc})")
            failures += 1
            continue
        if ok:
            out(f"{name}: PASS ({cases} cases)")
        else:
            out(f"{name}: FAIL (after {cases} cases)")
            failures += 1
    label = "PASS" if failures == 0 else f"FAIL ({failures} failing)"
    out(f"selfcheck: {label} ({len(CHECKS)} checks)")
    return 0 if failures == 0 else 1
