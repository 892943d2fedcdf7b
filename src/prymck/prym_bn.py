"""Pointed Brill-Noether loci on Prym varieties.

A problem is the genus g of the base curve together with a strictly
increasing vanishing sequence a at the marked point of the double cover.
Reading a backwards and dropping a zero entry gives a strict partition; its
size is the expected codimension of the locus inside the Prym variety,
whose dimension is g - 1.

Class computations:

* chow_class_closed / chow_class_pfaffian give the rational multiple gamma
  of (2*xi)^|lambda| expressing the cohomology class, by a closed product
  and by a Pfaffian of binomial sums; the routes must agree exactly.
* ch_k_class gives the Chern character expansion of the structure-sheaf
  class as a polynomial in the restricted theta class theta' = 2*xi,
  truncated at degree g - 1.
* ck_class keeps the connective deformation parameter beta, at -1 (the
  Chern character route) or as a symbol. It is a view of ch_k_class: the
  class is homogeneous with beta of degree -1 (the grading of
  Hudson-Ikeda-Matsumura-Naruse, Adv. Math. 2017), so its degree-d
  coefficient is that of ch_k_class times (-beta)^(d - |lambda|). The
  symbolic class at beta = 0 leaves the single monomial of degree
  |lambda|, the cohomology class; class_result answers beta = 0 by
  chow_class_closed.

The holomorphic Euler characteristic is computed by two independent
routes. euler_oracle integrates the top coefficient of ch_k_class against
the theta polarization. euler_theorem evaluates the closed summation
formula over shift sequences, signed matchings and degree distributions;
only terms whose total degree equals g - 1 survive integration, and the
divergent alternating prefactor sums are taken in Abel-summed form. Each
index sits in one pair of a matching, so the sum for one matching is the
top coefficient of a product of one int series per pair, built from the
Abel rows and an integer closed form of the pair coefficient. The routes
share only the problem record and Python's ints and Fractions. The
theorem route reads its Abel rows from exact_arith.abel_row, and walks a
lone part's row with _abel_ints, the generator behind abel_row and
abel_last; the oracle builds the same prefactor coefficients by another
recurrence, in operator_engine.prefactor_expansion, and reads none of the
theorem's rows, pair series or matchings. The theorem route's series do
not depend on the genus, so euler_theorem_genera reads chi at several
genera from one walk at the largest, and euler_theorem is its one-genus
read. The theorem route walks and
signs its own matchings, depth first in _matching_sum, and imports
nothing from the Pfaffian engines or the series ring for it. The routes
must agree exactly, which the test suite and the command line
verification switch enforce. Both return chi as an int, each by one exact
division (_whole), and a nonzero remainder raises exact_arith.CheckFailure:
chi is the Euler characteristic of a coherent sheaf, an integer.

g_coeff, GTable and enumerate_f state the formula's pair coefficients and
degree distributions term by term, in Fractions. No route calls them:
they are the tests' reference for the pair series sum. They and
classical_coefficient are not in __all__, so the package does not export
them; import them from prymck.prym_bn.

Problems whose codimension exceeds g - 1 are computed rather than
rejected: every route consistently returns 0 for them, and the problem
record carries an expected_empty flag.

build_problem returns that record, PrymProblem, an immutable named tuple.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial, prod

from .exact_arith import CheckFailure, ValidationError, _abel_ints, _strict_int, _strict_ints, abel_row
from .operator_engine import apply_pair_operator, prefactor_expansion
from .pfaffian import SkewMatrix, pfaffian_matchings
from .series_ring import BetaPoly, ThetaPoly

__all__ = [
    "SYMBOLIC",
    "PrymProblem",
    "ValidationError",
    "build_problem",
    "ch_k_class",
    "chow_class_closed",
    "chow_class_pfaffian",
    "ck_class",
    "class_result",
    "euler_oracle",
    "euler_theorem",
    "euler_theorem_genera",
    "problem_from_partition",
    "strict_partitions",
]


SYMBOLIC = "symbolic"


class PrymProblem(namedtuple("PrymProblem", "g r a lam ell s dim_prym parity expected_empty")):
    """Validated problem record with all derived partition data.

    Fields: the genus g, r and the vanishing sequence a as given; lam, the
    nonzero parts of a, strictly decreasing; ell, their number; s, the
    shift exponents, one per nonzero part; dim_prym = g - 1; parity, "+"
    for odd r and "-" for even r; expected_empty, whether the codimension
    exceeds dim_prym.

    An immutable named tuple: assigning a field raises AttributeError, and
    problems compare and hash by value. Being a tuple, a problem also
    unpacks into its fields and equals the plain tuple of them.
    """

    __slots__ = ()

    @property
    def codim(self) -> int:
        return sum(self.lam)

    @property
    def rho(self) -> int:
        """Expected dimension of the locus (may be negative)."""
        return self.dim_prym - self.codim


def _is_mode(beta_mode, mode) -> bool:
    """Whether beta_mode names the mode mode: "symbolic" only as that str,
    0 and -1 only as genuine integers, by _strict_int's rule (a bool, a
    float or another str names no mode)."""
    if isinstance(beta_mode, str):
        return beta_mode == mode
    try:
        return _strict_int(beta_mode, "beta_mode") == mode
    except ValidationError:
        return False


def build_problem(g: int, r: int, a) -> PrymProblem:
    """Validate (g, r, a) and derive the partition data.

    Bounds: g >= 2, r >= 0, a has r + 1 entries with
    0 <= a_0 < a_1 < ... < a_r <= 2g - 2. g, r and the entries of a must be
    genuine integers; floats, strings and bools raise ValidationError.
    """
    g = _strict_int(g, "genus")
    r = _strict_int(r, "r")
    a = _strict_ints(a, "vanishing sequence")
    if g < 2:
        raise ValidationError(f"genus must be at least 2 (got g={g})")
    if r < 0:
        raise ValidationError(f"r must be nonnegative (got r={r})")
    if len(a) != r + 1:
        raise ValidationError(
            f"vanishing sequence must have r+1={r + 1} entries (got {len(a)})"
        )
    if a[0] < 0:
        raise ValidationError(f"a_0 must be nonnegative (got {a[0]})")
    if not all(map(operator.lt, a, a[1:])):
        raise ValidationError("vanishing sequence must be strictly increasing")
    if a[-1] > 2 * g - 2:
        raise ValidationError(f"a_r exceeds 2g-2 (a_r={a[-1]}, 2g-2={2 * g - 2})")
    # a increases from a_0 >= 0, so only a_0 can be 0
    lam = a[::-1] if a[0] else a[:0:-1]
    ell = len(lam)
    s = tuple(ell - i - lam[i] for i in range(ell))
    # the fields in PrymProblem's order: dim_prym, parity, expected_empty
    return PrymProblem(g, r, a, lam, ell, s, g - 1, "+" if r % 2 else "-", sum(lam) > g - 1)


def problem_from_partition(g: int, lam) -> PrymProblem:
    """Problem for a strict partition, using the minimal vanishing sequence.

    The empty partition maps to a = (0,); otherwise a lists the parts in
    increasing order with r = len(lam) - 1.
    """
    lam = tuple(lam)
    if not lam:
        return build_problem(g, 0, (0,))
    a = tuple(sorted(lam))
    return build_problem(g, len(a) - 1, a)


def strict_partitions(max_size: int, max_len: int, max_part: int):
    """All strict partitions with sum <= max_size, length <= max_len and
    parts <= max_part, the empty partition included; sorted by (sum, parts).

    They are built by a loop over a stack of (prefix, sum) pairs, not by a
    nested function calling itself, which would be a reference cycle: the
    returned list is held by the caller alone and freed as soon as the
    caller drops it, not kept alive until the next garbage collection.
    The three bounds are integers, by exact_arith._strict_int's rule, or
    ValidationError is raised; a bound below 1 leaves the empty partition
    alone, as callers that step a bound down past 0 read it.
    """
    max_size = _strict_int(max_size, "strict_partitions: max_size")
    max_len = _strict_int(max_len, "strict_partitions: max_len")
    max_part = _strict_int(max_part, "strict_partitions: max_part")
    acc = [()]
    stack = [((), 0)] if max_len > 0 else []
    while stack:
        prefix, total = stack.pop()
        last = prefix[-1] if prefix else max_part + 1
        for p in range(min(last - 1, max_size - total, max_part), 0, -1):
            cur = prefix + (p,)
            acc.append(cur)
            if len(cur) < max_len:
                stack.append((cur, total + p))
    acc.sort(key=lambda t: (sum(t), t))
    return acc


def _validated_strict(lam) -> tuple:
    lam = _strict_ints(lam, "partition")
    if lam and min(lam) <= 0:
        raise ValidationError(f"partition parts must be positive, got {lam}")
    if not all(map(operator.gt, lam, lam[1:])):
        raise ValidationError(f"partition must be strictly decreasing, got {lam}")
    return lam


def chow_class_closed(lam) -> Fraction:
    """Coefficient gamma of the cohomology class gamma * (2*xi)^|lambda|.

    Closed product form: (1/2^l) * prod 1/part! * prod_{i<j} (pi-pj)/(pi+pj),
    taken as one int numerator, the product of the pi - pj, over one int
    denominator, 2^l times the factorials and the pi + pj, and reduced once
    in a single Fraction.
    """
    lam = _validated_strict(lam)
    num, den = 1, 2 ** len(lam)
    for i, pi in enumerate(lam):
        den *= factorial(pi)
        for pj in lam[i + 1 :]:
            num *= pi - pj
            den *= pi + pj
    return Fraction(num, den)


def chow_class_pfaffian(lam) -> Fraction:
    """Same coefficient gamma, by the Pfaffian of binomial-sum entries.

    The (i, j) entry is (1/4) / (pi+pj)! times
    binom(pi+pj, pi) + 2 * sum_{u=1}^{pj} (-1)^u binom(pi+pj, pi+u);
    for an odd number l of parts the matrix gains a boundary index l, last,
    whose entry (j, l) is (1/2) / pj! (the single prefactor contributes the
    extra 1/2). Must equal chow_class_closed.

    The matrix of size l + l mod 2 is built in one call. Its Pfaffian is
    that of the form with the boundary index first and (0, j + 1) holding
    (1/2) / pj!: moving an index from first to last is an odd permutation
    of the l + 1 indices, which negates the Pfaffian, and storing the
    boundary values at (j, l) rather than (l, j) negates one row and
    column, which negates it again.

    The entries are built as ints, S times their values, with
    S = 4 * (lambda_1 + lambda_2)! from two parts on and 2 * lambda_1! for
    one part. The parts decrease, so every pi + pj is at most
    lambda_1 + lambda_2 and every pj at most lambda_1: each 4 * (pi+pj)!
    and each 2 * pj! divides S. Every term of the Pfaffian of the n x n
    matrix is a product of n/2 entries, so S^(n/2) is divided out in the
    one final Fraction. The binomial sum is stepped along u:
    (-1)^u binom(pi+pj, pi+u) is the previous term times -(pj-u+1)/(pi+u),
    an exact division.
    """
    lam = _validated_strict(lam)
    ell = len(lam)
    if ell == 0:
        return Fraction(1)
    scale = 4 * factorial(lam[0] + lam[1]) if ell > 1 else 2 * factorial(lam[0])

    def entry(i, j):
        if j == ell:
            return scale // (2 * factorial(lam[i]))
        pi, pj = lam[i], lam[j]
        term = total = comb(pi + pj, pi)
        for u in range(1, pj + 1):
            term = -term * (pj - u + 1) // (pi + u)
            total += 2 * term
        return total * (scale // (4 * factorial(pi + pj)))

    m = SkewMatrix(ell + ell % 2, entry)
    return Fraction(pfaffian_matchings(m), scale ** (m.n // 2))


def _boundary_entry(lj: int, prefactors, cap: int, excess: int) -> ThetaPoly | None:
    """S = 4^(cap+1) * cap! times degrees lj..lj + excess of the boundary
    entry, the sum over v of the prefactor's c_v * theta'^(lj+v) / (lj+v)!,
    shifted down: from prefactor_expansion's ints 2^(cap+1) * c_v, the ints
    2^(cap+1) * c_t * 2^(cap+1) * cap! / (lj + t)! at t = 0..excess, for
    lj + excess <= cap; None when excess < 0, as apply_pair_operator
    returns."""
    if excess < 0:
        return None
    coeffs = [0] * (excess + 1)
    weight = 2 ** (cap + 1) * factorial(cap) // factorial(lj + excess)  # from t = excess down
    for t in range(excess, -1, -1):
        coeffs[t] = prefactors[t] * weight
        weight *= lj + t
    return ThetaPoly(excess, coeffs)


def _one_part_class(lj: int, prefactors, cap: int) -> ThetaPoly:
    """ch_k_class of one part: the boundary entry alone, each degree
    d = lj..cap the Fraction 2^(cap+1) * c_(d-lj) / (2^(cap+1) * d!) and
    Fraction 0 below lj; all int 0 when lj > cap. Over 2^(cap+1) * d!
    rather than S, as reducing cap + 1 fractions over S costs far more."""
    if lj > cap:
        return ThetaPoly.zero(cap)
    coeffs = [Fraction(0)] * lj
    denom = 2 ** (cap + 1) * factorial(lj)
    for d in range(lj, cap + 1):
        if d > lj:
            denom *= d
        coeffs.append(Fraction(prefactors[d - lj], denom))
    return ThetaPoly(cap, coeffs)


def ch_k_class(problem: PrymProblem) -> ThetaPoly:
    """Chern character of the structure-sheaf class, truncated at g - 1.

    The Pfaffian of the beta = -1 entry series; for an odd number l of
    parts the matrix gains a boundary index l, last, whose entry (j, l) is
    the boundary series of part j. The matrix of size l + l mod 2 is built
    in one call, and its Pfaffian is that of the form with the boundary
    index first and (0, j + 1) holding the boundary series: moving an
    index from first to last is an odd permutation of the l + 1 indices,
    and storing the boundary at (j, l) rather than (l, j) negates one row
    and column, so the two signs cancel. The lowest-degree coefficient
    (degree |lambda|) equals chow_class_closed(lam); problems with
    |lambda| > g - 1 give 0.

    From two parts on it runs on the excess degree B = cap - |lambda|.
    Entry (i, j) vanishes below lambda_i + lambda_j and the boundary entry
    below lambda_j, so the matrix is D * A~ * D with D = diag(theta'^lambda_i),
    lambda = 0 for the boundary index, and Pf(D A~ D) = det(D) * Pf(A~) =
    theta'^|lambda| * Pf(A~), an identity for any matrix. Degrees 0..B of
    A~ give every coefficient: apply_pair_operator and _boundary_entry
    return them as ints, S = 4^(cap+1) * cap! times the coefficients,
    series of B + 1 terms, and pfaffian_matchings multiplies those. Each
    entry is built on its own from its two prefactor rows, by the kernel's
    one recurrence over rows 0..lambda_j + B, so no table is shared
    between entries or cached. Every term of the Pfaffian of the n x n
    matrix is a product of n/2 entries, so S^(n/2) is divided out once per
    degree: degrees |lambda|..cap are Fractions and the degrees below int
    0. The kernel computes each entry's cells below its base degree inside
    the cap by the same recurrence, its guard, and raises CheckFailure if
    one is nonzero. With B < 0 every pair entry still goes through the
    kernel and its guard, every entry is None, and the class is the zero
    series of int 0s, as theta'^|lambda| lies above the cap. One part is
    the boundary entry alone (_one_part_class).
    """
    cap = problem.g - 1
    ell = problem.ell
    if ell == 0:
        return ThetaPoly.one(cap)
    lam, s = problem.lam, problem.s
    pre = [prefactor_expansion(s[i], cap) for i in range(ell)]
    if ell == 1:
        return _one_part_class(lam[0], pre[0], cap)
    excess = problem.rho

    def entry(i, j):
        if j == ell:
            return _boundary_entry(lam[i], pre[i], cap, excess)
        return apply_pair_operator((lam[i], lam[j]), pre[i], pre[j], cap, excess)

    m = SkewMatrix(ell + ell % 2, entry)
    if excess < 0:
        return ThetaPoly.zero(cap)
    den = (4 ** (cap + 1) * factorial(cap)) ** (m.n // 2)
    return ThetaPoly(cap, [0] * problem.codim + [Fraction(c, den) for c in pfaffian_matchings(m).coeffs])


def ck_class(problem: PrymProblem, beta_mode) -> ThetaPoly:
    """Connective class as a truncated theta' polynomial, read off ch_k_class.

    beta_mode -1 is ch_k_class itself. "symbolic" keeps the parameter as a
    polynomial variable: the degree-d coefficient c becomes
    c * (-beta)^(d - |lambda|), a BetaPoly (BetaPoly() when c is a Fraction
    0, at any degree), while an int coefficient, a degree no entry term
    reaches or the 1 of the empty partition, stays as it is; JSON output
    tells BetaPoly() ({}) and 0 ("0") apart.

    So the zeros below the base degree print by their type, and the bytes
    are kept as they are. One part is _one_part_class, which builds
    Fraction 0s below lambda_1: class -g 5 -a 2 --beta symbolic --output
    json prints {} at degrees 0 and 1. From two parts on, ch_k_class puts
    int 0s below |lambda|, under the Pfaffian of the excess windows, and
    -a 1,2 prints "0" at degrees 0..2.

    The symbolic class at beta = 0 is the cohomology class, the single
    monomial of degree |lambda| with the coefficient ch_k_class has there;
    for beta = 0 itself use class_result or chow_class_closed. Any other
    mode, 0 included, raises ValueError, and so does a bool, a float or
    another str, whatever it equals (-1.0, True).
    """
    chern = _is_mode(beta_mode, -1)
    if not chern and not _is_mode(beta_mode, SYMBOLIC):
        raise ValueError(f"beta_mode must be -1 or {SYMBOLIC!r}, got {beta_mode!r}")
    ch = ch_k_class(problem)
    if chern:
        return ch
    low = problem.codim

    def lift(d, c):
        if isinstance(c, int):
            return c
        return BetaPoly({d - low: -c if (d - low) % 2 else c}) if c else BetaPoly()

    return ThetaPoly(ch.cap, [lift(d, c) for d, c in enumerate(ch.coeffs)])


def _whole(num: int, den: int, route: str, lam, g: int) -> int:
    """num / den as an int: chi of lambda = lam at genus g by the named
    route. chi is the Euler characteristic of a coherent sheaf, so the
    division must be exact. One divmod takes it, and a nonzero remainder
    raises CheckFailure naming the check, the route, lambda and g; the
    message is built only then."""
    chi, rest = divmod(num, den)
    if rest:
        raise CheckFailure(f"integrality: the {route} route's chi at lambda={lam}, g={g} is not an integer")
    return chi


def euler_oracle(problem: PrymProblem) -> int:
    """Euler characteristic by integrating the expanded class, an int.

    The integral of theta'^(g-1) = (2*xi)^(g-1) over the (g-1)-dimensional
    Prym variety is 2^(g-1) * (g-1)!, so only the top coefficient of
    ch_k_class contributes: its numerator times 2^(g-1) * (g-1)! over its
    denominator, one division that must be exact (_whole).
    """
    cap = problem.g - 1
    top = ch_k_class(problem).coeff(cap)
    return _whole(top.numerator * factorial(cap) << cap, top.denominator, "oracle", problem.lam, problem.g)


def g_coeff(m: int, i: int, j: int, lam, v) -> Fraction:
    """Degree-m coefficient of the pair expansion for indices (i, j).

    Indices are 1-based into the partition, with 0 the boundary index used
    for an odd number of parts. Antisymmetric in (i, j); boundary row has
    1/(lam_j + v_j)! at m = 0 and 0 for m > 0. Terms whose lowered index
    would drop below zero are 0, so the inner sum runs to lam_j + v_j.

    No route calls it: euler_theorem reads the integer closed form of
    _pair_ints. It stays as the tests' term-by-term reference, and the
    benchmark's tracer wraps it by name, until ROADMAP items 1b and 6. Not
    exported: it is in no __all__. m, i and j are integers >= 0 and lam
    and v sequences of integers, by exact_arith's integer rule, or
    ValidationError is raised.
    """
    lam, v = _strict_ints(lam, "g_coeff: lam"), _strict_ints(v, "g_coeff: v")
    m, i, j = _strict_int(m, "g_coeff: m", 0), _strict_int(i, "g_coeff: i", 0), _strict_int(j, "g_coeff: j", 0)
    ell = len(lam)
    if len(v) != ell:
        raise ValueError(f"g_coeff: shift sequence has length {len(v)}, expected {ell}")
    if i > ell or j > ell:
        raise ValueError(f"g_coeff: indices ({i}, {j}) out of range 0..{ell}")
    if i == j:
        return Fraction(0)
    if i > j:
        return -g_coeff(m, j, i, lam, v)
    if i == 0:
        if m == 0:
            return Fraction(1, factorial(lam[j - 1] + v[j - 1]))
        return Fraction(0)
    ni = lam[i - 1] + v[i - 1]
    nj = lam[j - 1] + v[j - 1]
    if m == 0:
        total = Fraction(1, factorial(ni) * factorial(nj))
        for el in range(1, nj + 1):
            term = Fraction(2, factorial(ni + el) * factorial(nj - el))
            total += -term if el % 2 else term
        return total
    total = Fraction(1, factorial(ni + m) * factorial(nj))
    for el in range(1, nj + 1):
        weight = comb(el + m - 1, m) + comb(el + m, m)
        term = Fraction(weight, factorial(ni + el + m) * factorial(nj - el))
        total += -term if el % 2 else term
    return total if m % 2 == 0 else -total


class GTable:
    """Antisymmetric view of g_coeff values for one (lam, v).

    No route reads it; it stays for the tests, and the benchmark's tracer
    wraps GTable.value by name, until ROADMAP items 1b and 6. Not exported:
    it is in no __all__.
    """

    def __init__(self, lam, v):
        self.lam = tuple(lam)
        self.v = tuple(v)
        if len(self.v) != len(self.lam):
            raise ValueError(
                f"GTable: shift sequence has length {len(self.v)}, expected {len(self.lam)}"
            )

    def value(self, m: int, i: int, j: int) -> Fraction:
        return g_coeff(m, i, j, self.lam, self.v)


def enumerate_f(sigma, k: int, n_pairs: int):
    """Distributions of k over the pair slots of the arrangement sigma.

    Slot b collects indices (sigma[2b], sigma[2b+1]); slots touching the
    boundary index 0 only admit 0, so k > 0 with no free slot gives no
    assignments at all. No route calls it: the pair series sum takes the
    degree of each pair inside its series. It stays as the tests'
    reference, and the benchmark's tracer wraps it by name, until ROADMAP
    items 1b and 6. Not exported: it is in no __all__. k, n_pairs and the
    entries of sigma are integers >= 0, by exact_arith's integer rule, or
    ValidationError is raised.
    """
    k, n_pairs = _strict_int(k, "enumerate_f: k", 0), _strict_int(n_pairs, "enumerate_f: n_pairs", 0)
    sigma = _strict_ints(sigma, "enumerate_f: sigma", 0)
    free = [b for b in range(n_pairs) if sigma[2 * b] != 0 and sigma[2 * b + 1] != 0]
    out = []
    for comp in _compositions(k, len(free)):
        f = [0] * n_pairs
        for b, val in zip(free, comp):
            f[b] = val
        out.append(tuple(f))
    return out


def _compositions(total, slots):
    if slots == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def _pair_ints(ni: int, nj: int, count: int) -> list:
    """G(ni, nj + x) for x = 0..count-1, where for ni, nj >= 1

        G(ni, nj) = C(ni + nj - 1, nj) - C(ni + nj - 1, nj - 1)
                  = C(ni + nj - 1, nj) * (ni - nj) / ni.

    The pair coefficient of degree m is g_coeff(m, 1, 2, (ni, nj), (0, 0))
    = (-1)^m G(ni, nj) / (ni + nj + m)!, whatever m. Times N! with
    N = ni + nj + m each term of g_coeff is a binomial, and (-1)^m times
    the whole is

        C(N, nj) + sum_{l=1..nj} (-1)^l w_l C(N, nj - l),
        w_l = C(l + m - 1, m) + C(l + m, m)   (2 at m = 0).

    As sum_{l>=1} (-1)^l w_l x^l = (1 - x) (1 + x)^-(m+1) - 1, the sum is
    the x^nj coefficient of (1 + x)^N times that series, and the whole is
    the x^nj coefficient of (1 - x) (1 + x)^(ni + nj - 1), which is G.

    One math.comb starts the row at c = C(ni + k - 1, k), k = nj; then
    G = c - c * k / ni and the next c is c * (ni + k) / (k + 1), both exact
    divisions.
    """
    out = []
    c = comb(ni + nj - 1, nj)
    for k in range(nj, nj + count):
        out.append(c - c * k // ni)
        c = c * (ni + k) // (k + 1)
    return out


def _times(p: list, q: list) -> list:
    """p * q truncated at the common length of the two int series: at x^t
    the dot product of p with q[t::-1], which map stops at t + 1 terms."""
    return [sum(map(operator.mul, p, q[t::-1])) for t in range(len(p))]


def _matching_sum(rest, series, degrees, totals, sign=1, prefix=None):
    """Adds sign times the signed sum over the perfect matchings of the
    sorted indices rest, of the x^d coefficient of the product of their
    pair series, times prefix, to totals[i], for each d = degrees[i].

    Depth first: rest[0] pairs with each rest[k] in turn, a matching that
    crosses the k - 1 indices between them, so the sign is (-1)^(k-1).
    The product of the pairs taken so far, prefix (None before the first
    pair), is carried down one level at a time, so each is taken once for
    all matchings below it. The last pair is read in the loop of the
    level above it: each x^d coefficient of that level's product times
    the last series is one dot product, added into totals in place, so no
    matching makes a call or a list of its own. rest holds four or more
    indices on the first call.
    """
    for k in range(1, len(rest)):
        row = series[rest[0], rest[k]]
        head = row if prefix is None else _times(prefix, row)
        below, term = rest[1:k] + rest[k + 1 :], sign if k % 2 else -sign
        if len(below) > 2:
            _matching_sum(below, series, degrees, totals, term, head)
            continue
        last = series[below]
        for i, d in enumerate(degrees):
            totals[i] += sum(map(operator.mul, head, last[d::-1])) * term


def euler_theorem(problem: PrymProblem) -> int:
    """Euler characteristic by the closed summation formula, an int.

    The formula sums over shift sequences v, signed perfect matchings of
    the (possibly augmented) index set, and distributions f of the
    interaction degree over the pairs. Integration kills every total
    degree except h = g - 1, so the sum is restricted to
    |lambda| + |v| + |f| = h; each surviving term carries the weight
    h! * 2^h. The alternating u-sums are evaluated as the Abel-summed
    T^(v_i) coefficient of (1 + T)^(s_i) / (2 + T), read from abel_row.

    The formula is stated as a sum over all n! arrangements of the n
    indices, paired off in order, with weight h! / (2^(n/2 - h) (n/2)!).
    Swapping the two indices of a pair flips both the sign and the pair
    coefficient, which is antisymmetric; permuting whole pairs keeps the
    sign and permutes the f-distributions among themselves. Every term is
    therefore repeated 2^(n/2) (n/2)! times, once for each arrangement of
    one perfect matching, and the sum over the (n-1)!! matchings with
    weight h! * 2^h is the same number.

    It is euler_theorem_genera at the one genus g, whose walk reads the
    x^B coefficient, B = h - |lambda|, with H = h: the sum over the
    matchings over 2^(B + l) * h!^(n/2 - 1), times 2^h, divided exactly
    or CheckFailure raised. With one or two parts and g - 1 >= |lambda| it
    returns that int shifted. When g - 1 < |lambda| it returns 0.

    Must equal euler_oracle exactly.
    """
    return euler_theorem_genera(problem, (problem.g,))[0]


def euler_theorem_genera(problem: PrymProblem, genera) -> list[int]:
    """euler_theorem for the partition of problem at each genus of genera,
    an ascending sequence of integers >= 2 (exact_arith._strict_ints), from
    one walk at the largest; problem.g is not read. Every value is an int:
    a genus with g - 1 < |lambda| gives 0.

    Each index sits in exactly one pair of a matching and each pair takes
    its own degree f_b, so for one matching the sum over (v, f) with
    |v| + |f| = d = h - |lambda| is the x^d coefficient of a product of
    one series per pair. With a_i = abel_row(s_i, B), the ints 2^(v+1)
    times the T^v Abel coefficients, and G the integer pair coefficient of
    _pair_ints, the x^t coefficient of the series of a pair i < j of parts
    is R_ij[t] / (lambda_i + lambda_j + t)!, with

        R_ij[t] = sum over v_i + v_j + m = t of
                  a_i[v_i] * a_j[v_j] * (-2)^m * G(lambda_i + v_i, lambda_j + v_j),

    that is P / (1 + 2x) for P the sum at m = 0 alone: the recurrence
    R[t] = P[t] - 2 R[t-1]. The boundary index 0 pairs with part j at
    degree 0 alone, with coefficient 1 / (lambda_j + v_j)!, so
    R_0j = a_j over (lambda_j + t)!. The shifts s depend on lambda alone,
    so the rows and series do not depend on the genus: a smaller genus
    reads a prefix of them. They are built once, to the budget
    B = H - |lambda| of the largest genus, H = g_max - 1.

    A pair series with lowest factorial L (lambda_i + lambda_j, or
    lambda_j) reads (L + t)! for t <= B, and L + B <= H because every
    other part is at least 1. So F[k] = H! / k!, one running product over
    k = L + B down to L per series, puts it over H!, as ints.
    _matching_sum walks the matchings depth first: a matching's product of
    its n/2 scaled series, truncated at x^B, is built one pair per level,
    each level's prefix product shared by every matching below it, and its
    last pair only adds each x^d coefficient, one dot product per degree.
    That is 140 products at n = 8 and 14,652 at n = 12, where multiplying
    out every matching apart takes 210 and 41,580. Its x^d coefficient
    M_d has every term over 2^(d + l) * H!^(n/2), the 2^m and the
    2^(|v| + l) of the prefactors making up the power of 2, so with the
    weight h! * 2^h

        chi(g) = M_d * h! * 2^h / (2^(d + l) * H!^(n/2)),

    taken as M_d * 2^|lambda| over 2^l * H!^(n/2 - 1) * (H! / h!), the
    last factor 1 at the largest genus. The sums stay on ints, and each
    genus takes one divmod (_whole), whose remainder must be 0: a nonzero
    one raises CheckFailure, the integrality check. With one
    or two parts the one matching's lone series is read at each x^d, where
    L + d = h, so nothing is scaled, and chi is that int x shifted:
    x * 2^(|lambda| + d) / 2^(d + l) = x * 2^(|lambda| - l), an int, as
    |lambda| >= l. With one part that series is the Abel row itself, and
    the walk of _abel_ints picks up each x^d as it passes, holding one
    value of the row at a time.
    """
    genera = _strict_ints(genera, "genera", 2)
    if not genera or not all(map(operator.lt, genera, genera[1:])):
        raise ValueError(f"genera must be a nonempty ascending sequence (got {genera})")
    lam, ell, s, size = problem.lam, problem.ell, problem.s, problem.codim
    degrees = [g - 1 - size for g in genera if g > size]
    if not degrees or not ell:  # no parts: no pair takes the budget h >= 1
        return [0] * len(genera)
    chis = [0] * (len(genera) - len(degrees))
    budget = degrees[-1]
    if ell == 1:  # the boundary pair's series is the Abel row, read at each x^d as the walk passes it
        wanted = set(degrees)
        return chis + [a << (size - 1) for v, a in enumerate(_abel_ints(s[0], budget)) if v in wanted]
    indices = tuple(range(1, ell + 1)) if ell % 2 == 0 else tuple(range(ell + 1))
    half = len(indices) // 2
    abel = [abel_row(si, budget) for si in s]

    def pair_series(i, j):
        aj = abel[j - 1]
        if i == 0:
            return aj[:]
        ai, li, lj = abel[i - 1], lam[i - 1], lam[j - 1]
        acc = [0] * (budget + 1)
        for vi, pre in enumerate(ai):
            for vj, x in enumerate(_pair_ints(li + vi, lj, budget + 1 - vi)):
                acc[vi + vj] += pre * aj[vj] * x
        for t in range(1, budget + 1):  # divide by 1 + 2x: the sum over m
            acc[t] -= 2 * acc[t - 1]
        return acc

    series = {(i, j): pair_series(i, j) for n, i in enumerate(indices) for j in indices[n + 1 :]}
    if half == 1:
        row = series[indices]
        return chis + [row[d] << (size - 2) for d in degrees]
    top = size + budget
    hf = factorial(top)
    for (i, j), row in series.items():  # in place, onto H!
        low = sum(lam[x - 1] for x in (i, j) if x)
        scale = hf // factorial(low + budget)  # F[low + t], from t = B down
        for t in range(budget, -1, -1):
            row[t] *= scale
            scale *= low + t
    sums = [0] * len(degrees)
    _matching_sum(indices, series, degrees, sums)
    den = hf ** (half - 1) << ell  # times H! / h! at x^d, h = |lambda| + d
    for d, m in zip(degrees, sums):
        chis.append(_whole(m << size, den * prod(range(size + d + 1, top + 1)), "theorem", lam, size + d + 1))
    return chis


def classical_coefficient(r: int) -> Fraction:
    """Class coefficient for the staircase vanishing sequence (0, 1, ..., r).

    chow_class_closed of the staircase (r, ..., 1). This is the De
    Concini-Pragacz class of the Prym-Brill-Noether locus (Math. Ann.
    1995), which the paper's formulas extend; their closed form
    2^C(r,2) * prod_{i=1..r} (i-1)!/(2i-1)! / 2^(r(r+1)/2)
    is compared in the test suite and in selfcheck. No route calls it; it
    stays as the tests' staircase anchor until ROADMAP item 6. Not
    exported: it is in no __all__. r is an integer >= 0, by
    exact_arith._strict_int's rule, or ValidationError is raised.
    """
    return chow_class_closed(tuple(range(_strict_int(r, "classical_coefficient: r", 0), 0, -1)))


def class_result(problem: PrymProblem, beta_mode):
    """The class of problem in coefficient mode beta_mode.

    At 0 the cohomology coefficient gamma of (2*xi)^|lambda|, by the closed
    product, a Fraction; at -1 or "symbolic" the theta' polynomial of
    ck_class, which rejects any other mode with ValueError. 0 and -1 count
    only as genuine integers: False and 0.0 are no modes.
    """
    if _is_mode(beta_mode, 0):
        return chow_class_closed(problem.lam)
    return ck_class(problem, beta_mode)
