"""The invariant registry: the one place each checked invariant is written.

Each check_* is a generator that yields one verdict, a bool, per case, in
a fixed order; a case joins its comparisons with `and`, so the first that
fails stops the rest. Its CHECKS entry takes no argument, runs it and
returns (ok, cases), stopping at the first False verdict, and run(),
behind the command line selfcheck, prints one line per entry.
tests/test_selfcheck.py runs every entry with its case count pinned, so
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
    return SkewMatrix(n, lambda i, j: Fraction(rng.randint(-9, 9), rng.randint(1, 4)))


def _tally(verdicts):
    """(ok, cases) of a stream of verdicts, one a case: stops at the first
    False, and cases counts the verdicts before it."""
    cases = 0
    for ok in verdicts:
        if not ok:
            return False, cases
        cases += 1
    return True, cases


def _counted(check):
    """The CHECKS entry of a check: runs it and tallies its verdicts."""

    def run_check():
        return _tally(check())

    return run_check


def check_pascal_rule():
    for s in range(1, 31):
        for t in range(1, s + 1):
            yield binom_gen(s, t) == binom_gen(s - 1, t - 1) + binom_gen(s - 1, t)


def check_binomial_tail():
    for lj in range(2, 13):
        for li in range(1, lj):
            lhs = sum((-1) ** u * binom_gen(li + lj, li + u) for u in range(1, lj + 1))
            # and against math.comb, from outside the package
            yield lhs == -binom_gen(li + lj - 1, li) and lhs == sum(
                (-1) ** u * comb(li + lj, li + u) for u in range(1, lj + 1)
            )


def check_abel_series():
    for s in range(-8, 9):
        # T^v coefficients of (1+T)^s times the geometric expansion
        # sum_k (-1)^k T^k / 2^(k+1) of 1/(2+T): the convolution is summed
        # as the int 2^(v+1) times it, over the row of binomials built once
        # an s, and one Fraction a case is compared with abel_coefficient,
        # which reads its own recurrence
        row = [binom_gen(s, t) for t in range(13)]
        for v in range(13):
            conv = sum((-1) ** k * row[v - k] * 2 ** (v - k) for k in range(v + 1))
            yield Fraction(conv, 2 ** (v + 1)) == abel_coefficient(s, v)


def check_series_laws():
    rng = random.Random(_SEED)
    for _ in range(120):
        cap = rng.randint(0, 12)

        def rand_poly():
            return ThetaPoly(cap, [rng.randint(-30, 30) for _ in range(cap + 1)])

        a, b, c = rand_poly(), rand_poly(), rand_poly()
        ab = a * b
        yield ab * c == a * (b * c) and ab == b * a and a * (b + c) == ab + a * c


def check_series_vanishing():
    # e^x * e^(-x) = 1, each series scaled by j! to ints
    for j in range(1, 21):
        scale = factorial(j)
        plus = ThetaPoly(j, [scale // factorial(d) for d in range(j + 1)])
        minus = ThetaPoly(j, [(-1) ** d * scale // factorial(d) for d in range(j + 1)])
        yield plus * minus == ThetaPoly.monomial(j, 0, scale**2)


def _pfaffian_engine_cases(rng, plan):
    """The three engines on plan[n] random n x n matrices for each n: the
    matching and permutation sums agree, and the Pfaffian squared is the
    determinant."""
    for n, count in plan.items():
        for _ in range(count):
            m = _random_skew(rng, n)
            pf = pfaffian_matchings(m)
            yield pf == pfaffian_permutations(m) and pf * pf == det_fraction_free(m.rows())


def check_pfaffian_engines():
    plan = {2: 25, 4: 20, 6: 12, 8: 5}
    yield from _pfaffian_engine_cases(random.Random(_SEED + 1), plan)


def check_pfaffian_closed_product():
    for lam in strict_partitions(45, 5, 9):
        if lam:
            yield chow_class_pfaffian(lam) == chow_class_closed(lam)


def check_kclass_leading_term():
    for p in _suite_problems(7):
        if p.lam:
            yield prym_bn.ch_k_class(p).coeff(p.codim) == chow_class_closed(p.lam)


def check_oracle_equivalence():
    for p in _suite_problems(7):
        yield prym_bn.euler_theorem(p) == prym_bn.euler_oracle(p)


def check_integrality():
    for p in _suite_problems(7):
        yield type(prym_bn.euler_theorem(p)) is int


def check_zero_dimensional_degree():
    for p in _suite_problems(7):
        if p.lam and p.codim == p.dim_prym:
            degree = chow_class_closed(p.lam) * 2**p.dim_prym * factorial(p.dim_prym)
            yield prym_bn.euler_theorem(p) == degree


def check_emptiness():
    for p in _empty_problems(50):
        yield (
            p.expected_empty
            and prym_bn.euler_theorem(p) == 0
            and prym_bn.euler_oracle(p) == 0
            and not prym_bn.ch_k_class(p)
        )


def _de_concini_pragacz(r):
    """De Concini-Pragacz closed form of the staircase class coefficient,
    2^C(r,2) * prod_{i=1..r} (i-1)!/(2i-1)! / 2^(r(r+1)/2)."""
    value = Fraction(2 ** (r * (r - 1) // 2), 2 ** (r * (r + 1) // 2))
    for i in range(1, r + 1):
        value *= Fraction(factorial(i - 1), factorial(2 * i - 1))
    return value


def check_classical_recovery():
    for r in range(0, 7):
        yield chow_class_closed(tuple(range(r, 0, -1))) == _de_concini_pragacz(r)


def check_interaction_specialization():
    # the paper's general-beta closed forms at beta = 0 and -1 against the
    # engine's beta = -1 expansions, scaled by (-beta)^(a-b) and (-beta)^v:
    # the interaction table by the denominator identity the kernel runs,
    # the prefactor's ints over 2^(cap+1) against the closed form's sum
    # times 2^(cap+1), whose j-th term's denominator 2^(v+1-j) divides it.
    # All in ints: beta is the int 0 or -1, and 0**0 == 1
    cap = 10
    inter = interaction_expansion(cap)
    for beta in (0, -1):
        for a in range(cap + 1):
            for b in range(a + 1):
                base = binom_gen(a, b) + (binom_gen(a - 1, b - 1) if b else 0)
                want = (-1) ** b * base * beta ** (a - b)
                yield inter[b][a] * (-beta) ** (a - b) == want
        for s in range(-4, 5):
            pre = prefactor_expansion(s, cap)
            for v in range(cap + 1):
                want = beta**v * sum((-1) ** j * binom_gen(s, j) * 2 ** (cap - v + j) for j in range(v + 1))
                yield pre[v] * (-beta) ** v == want


def _roundtrips(poly):
    return ThetaPoly.from_json_dict(poly.to_json_dict()) == poly


def check_json_roundtrip():
    for p in _suite_problems(4):
        yield _roundtrips(prym_bn.ch_k_class(p)) and _roundtrips(prym_bn.ck_class(p, SYMBOLIC))


CHECKS = (
    ("pascal-rule", _counted(check_pascal_rule)),
    ("binomial-tail-identity", _counted(check_binomial_tail)),
    ("abel-series-crosscheck", _counted(check_abel_series)),
    ("series-ring-laws", _counted(check_series_laws)),
    ("series-vanishing", _counted(check_series_vanishing)),
    ("pfaffian-engines", _counted(check_pfaffian_engines)),
    ("pfaffian-closed-product", _counted(check_pfaffian_closed_product)),
    ("kclass-leading-term", _counted(check_kclass_leading_term)),
    ("oracle-equivalence", _counted(check_oracle_equivalence)),
    ("integrality", _counted(check_integrality)),
    ("zero-dimensional-degree", _counted(check_zero_dimensional_degree)),
    ("emptiness", _counted(check_emptiness)),
    ("classical-recovery", _counted(check_classical_recovery)),
    ("interaction-specialization", _counted(check_interaction_specialization)),
    ("json-roundtrip", _counted(check_json_roundtrip)),
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
