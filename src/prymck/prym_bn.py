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
* ck_class interpolates both through the connective deformation parameter
  beta (0 recovers the cohomology class, -1 the Chern character route). It
  is a view of ch_k_class: the class is homogeneous with beta of degree -1
  (the grading of Hudson-Ikeda-Matsumura-Naruse, Adv. Math. 2017), so its
  degree-d coefficient is that of ch_k_class times (-beta)^(d - |lambda|),
  and beta = 0 leaves the single monomial of degree |lambda|.

The holomorphic Euler characteristic is computed by two independent
routes. euler_oracle integrates the top coefficient of ch_k_class against
the theta polarization. euler_theorem evaluates the closed summation
formula over shift sequences, signed matchings and degree distributions;
only terms whose total degree equals g - 1 survive integration, and the
divergent alternating prefactor sums are taken in Abel-summed form. Each
index sits in one pair of a matching, so the sum for one matching is the
top coefficient of a product of one int series per pair, built from the
Abel rows and an integer closed form of the pair coefficient. The routes
share no series or entry code, and the theorem route enumerates and signs
its own matchings instead of calling the oracle's Pfaffian engine. They
must agree exactly, which the test suite and the command line
verification switch enforce.

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
from math import comb, factorial

from .exact_arith import abel_last, abel_row
from .operator_engine import apply_pair_operator, prefactor_expansion
from .pfaffian import SkewMatrix, augment_odd, perm_sign, pfaffian_matchings
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
    "problem_from_partition",
    "strict_partitions",
]


SYMBOLIC = "symbolic"


class ValidationError(ValueError):
    """Input data violates an admissibility bound."""


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


def _strict_int(value, what: str) -> int:
    """value as an int when it is a genuine integer (not a bool, float or str)."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValidationError(f"{what} must be an integer (got {value!r})")


def _strict_ints(values, what: str) -> tuple:
    try:
        items = tuple(values)
    except TypeError:
        raise ValidationError(f"{what} must be a sequence of integers (got {values!r})") from None
    return tuple(_strict_int(x, f"{what} entry") for x in items)


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
    if any(a[i] >= a[i + 1] for i in range(r)):
        raise ValidationError("vanishing sequence must be strictly increasing")
    if a[-1] > 2 * g - 2:
        raise ValidationError(f"a_r exceeds 2g-2 (a_r={a[-1]}, 2g-2={2 * g - 2})")
    lam = tuple(p for p in reversed(a) if p > 0)
    ell = len(lam)
    s = tuple(ell - i - lam[i] for i in range(ell))
    return PrymProblem(
        g=g,
        r=r,
        a=a,
        lam=lam,
        ell=ell,
        s=s,
        dim_prym=g - 1,
        parity="+" if r % 2 else "-",
        expected_empty=sum(lam) > g - 1,
    )


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
    """
    acc = [()]

    def extend(prefix, total):
        last = prefix[-1] if prefix else max_part + 1
        for p in range(min(last - 1, max_size - total, max_part), 0, -1):
            cur = prefix + (p,)
            acc.append(cur)
            if len(cur) < max_len:
                extend(cur, total + p)

    if max_len > 0:
        extend((), 0)
    acc.sort(key=lambda t: (sum(t), t))
    return acc


def _validated_strict(lam) -> tuple:
    lam = _strict_ints(lam, "partition")
    if any(p <= 0 for p in lam):
        raise ValueError(f"partition parts must be positive, got {lam}")
    if any(lam[i] <= lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition must be strictly decreasing, got {lam}")
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
    for an odd number of parts the matrix is augmented with the boundary
    row (1/2) / pj! (the single prefactor contributes the extra 1/2).
    Must equal chow_class_closed.

    The entries are built as ints, S times their values, with
    S = 4 * (lambda_1 + lambda_2)! from two parts on and 2 * lambda_1! for
    one part. The parts decrease, so every pi + pj is at most
    lambda_1 + lambda_2 and every pj at most lambda_1: each 4 * (pi+pj)!
    and each 2 * pj! divides S. Every term of the Pfaffian of the n x n
    matrix is a product of n/2 entries, so S^(n/2) is divided out in the
    one final Fraction.
    """
    lam = _validated_strict(lam)
    ell = len(lam)
    if ell == 0:
        return Fraction(1)
    scale = 4 * factorial(lam[0] + lam[1]) if ell > 1 else 2 * factorial(lam[0])

    def entry(i, j):
        pi, pj = lam[i], lam[j]
        tail = sum((-1) ** u * comb(pi + pj, pi + u) for u in range(1, pj + 1))
        return (comb(pi + pj, pi) + 2 * tail) * (scale // (4 * factorial(pi + pj)))

    m = SkewMatrix.from_upper(ell, entry)
    if ell % 2:
        m = augment_odd(m, [scale // (2 * factorial(p)) for p in lam])
    return Fraction(pfaffian_matchings(m), scale ** (m.n // 2))


def _boundary_entry(lj: int, prefactors, cap: int) -> ThetaPoly:
    """S = 4^(cap+1) * cap! times the boundary entry, the sum over v of the
    prefactor's c_v * theta'^(lj+v) / (lj+v)!, from prefactor_expansion's
    ints 2^(cap+1) * c_v: the ints 2^(cap+1) * c_v * 2^(cap+1) * cap! / d!
    at each degree d = lj..cap, 0 below lj (all 0 when lj > cap)."""
    coeffs = [0] * (cap + 1)
    weight = 2 ** (cap + 1)  # 2^(cap+1) * cap! / d!, from d = cap down
    for d in range(cap, lj - 1, -1):
        coeffs[d] = prefactors[d - lj] * weight
        weight *= d
    return ThetaPoly(cap, coeffs)


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

    The Pfaffian of the beta = -1 entry series, with the boundary row
    appended for an odd number of parts. The lowest-degree coefficient
    (degree |lambda|) equals chow_class_closed(lam); problems with
    |lambda| > g - 1 give 0.

    From two parts on, the entries come from apply_pair_operator and
    _boundary_entry as ints, S = 4^(cap+1) * cap! times their coefficients,
    and the Pfaffian of the n x n matrix runs on them; every term is a
    product of n/2 entries, so S^(n/2) is divided out once per degree, at
    degrees |lambda|..cap, each a Fraction. The degrees below, and every
    degree when |lambda| > cap, are int 0; the Pfaffian is still computed
    there, and a nonzero int below |lambda| raises ArithmeticError. One part
    is the boundary entry alone (_one_part_class).
    """
    cap = problem.g - 1
    ell = problem.ell
    if ell == 0:
        return ThetaPoly.one(cap)
    lam, s = problem.lam, problem.s
    pre = [prefactor_expansion(s[i], cap) for i in range(ell)]
    if ell == 1:
        return _one_part_class(lam[0], pre[0], cap)

    def entry(i, j):
        return apply_pair_operator((lam[i], lam[j]), pre[i], pre[j], cap)

    m = SkewMatrix.from_upper(ell, entry)
    if ell % 2:
        m = augment_odd(m, [_boundary_entry(lam[j], pre[j], cap) for j in range(ell)])
    scaled = pfaffian_matchings(m).coeffs
    low = min(problem.codim, cap + 1)
    if any(scaled[:low]):
        raise ArithmeticError(f"ch_k_class: a degree below |lambda| = {problem.codim} is nonzero")
    den = (4 ** (cap + 1) * factorial(cap)) ** (m.n // 2)
    return ThetaPoly(cap, [0] * low + [Fraction(c, den) for c in scaled[low:]])


def ck_class(problem: PrymProblem, beta_mode) -> ThetaPoly:
    """Connective class as a truncated theta' polynomial, read off ch_k_class.

    beta_mode -1 is ch_k_class itself. 0 gives the cohomology class, the
    single monomial of degree |lambda| with the coefficient ch_k_class has
    there. "symbolic" keeps the parameter as a polynomial variable: the
    degree-d coefficient c becomes c * (-beta)^(d - |lambda|), a BetaPoly
    (BetaPoly() when c is a Fraction 0, at any degree), while an int
    coefficient, a degree no entry term reaches or the 1 of the empty
    partition, stays as it is; JSON output tells BetaPoly() ({}) and 0 ("0")
    apart.
    """
    if beta_mode not in (0, -1, SYMBOLIC):
        raise ValueError(f"beta_mode must be one of (0, -1, {SYMBOLIC!r}), got {beta_mode!r}")
    ch = ch_k_class(problem)
    low = problem.codim
    if beta_mode == -1:
        return ch
    if beta_mode == 0:
        return ThetaPoly.monomial(ch.cap, low, ch.coeff(low))

    def lift(d, c):
        if isinstance(c, int):
            return c
        return BetaPoly({d - low: -c if (d - low) % 2 else c}) if c else BetaPoly()

    return ThetaPoly(ch.cap, [lift(d, c) for d, c in enumerate(ch.coeffs)])


def euler_oracle(problem: PrymProblem) -> Fraction:
    """Euler characteristic by integrating the expanded class.

    The integral of theta'^(g-1) = (2*xi)^(g-1) over the (g-1)-dimensional
    Prym variety is 2^(g-1) * (g-1)!, so only the top coefficient of
    ch_k_class contributes.
    """
    cap = problem.g - 1
    top = ch_k_class(problem).coeff(cap)
    return top * Fraction(2**cap * factorial(cap))


def g_coeff(m: int, i: int, j: int, lam, v) -> Fraction:
    """Degree-m coefficient of the pair expansion for indices (i, j).

    Indices are 1-based into the partition, with 0 the boundary index used
    for an odd number of parts. Antisymmetric in (i, j); boundary row has
    1/(lam_j + v_j)! at m = 0 and 0 for m > 0. Terms whose lowered index
    would drop below zero are 0, so the inner sum runs to lam_j + v_j.

    No route calls it: euler_theorem reads the integer closed form of
    _pair_ints. It stays as the tests' term-by-term reference, and the
    benchmark's tracer wraps it by name, until ROADMAP items 1b and 6. Not
    exported: it is in no __all__.
    """
    lam = tuple(lam)
    v = tuple(v)
    ell = len(lam)
    if len(v) != ell:
        raise ValueError(f"g_coeff: shift sequence has length {len(v)}, expected {ell}")
    if m < 0:
        raise ValueError(f"g_coeff: m must be nonnegative, got {m}")
    if not (0 <= i <= ell and 0 <= j <= ell):
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
    items 1b and 6. Not exported: it is in no __all__.
    """
    if k < 0:
        raise ValueError(f"enumerate_f: k must be nonnegative, got {k}")
    sigma = tuple(sigma)
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


def _signed_arrangements(indices) -> list:
    """(sign, sigma) for every canonical arrangement of the sorted indices.

    A canonical arrangement pairs off the indices as (sigma[0], sigma[1]),
    (sigma[2], sigma[3]), ... with sigma[2b] < sigma[2b+1] and the pairs
    ordered by their first index; there is one per perfect matching, so
    (n-1)!! in all. Each is signed by perm_sign of the flat arrangement.
    """

    def arrangements(rest):
        if not rest:
            yield ()
            return
        first = rest[0]
        for pos in range(1, len(rest)):
            for tail in arrangements(rest[1:pos] + rest[pos + 1 :]):
                yield (first, rest[pos]) + tail

    return [(perm_sign(sigma), sigma) for sigma in arrangements(tuple(indices))]


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
    """p * q truncated at the common length of the two int series."""
    rev = q[::-1]
    top = len(p) - 1
    return [sum(map(operator.mul, p[: t + 1], rev[top - t :])) for t in range(top + 1)]


def euler_theorem(problem: PrymProblem) -> Fraction:
    """Euler characteristic by the closed summation formula.

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

    Each index sits in exactly one pair of a matching and each pair takes
    its own degree f_b, so for one matching the sum over (v, f) with
    |v| + |f| = B = h - |lambda| is the x^B coefficient of a product of one
    series per pair. With a_i = abel_row(s_i, B), the ints 2^(v+1) times
    the T^v Abel coefficients, and G the integer pair coefficient of
    _pair_ints, the x^t coefficient of the series of a pair i < j of parts
    is R_ij[t] / (lambda_i + lambda_j + t)!, with

        R_ij[t] = sum over v_i + v_j + m = t of
                  a_i[v_i] * a_j[v_j] * (-2)^m * G(lambda_i + v_i, lambda_j + v_j),

    that is P / (1 + 2x) for P the sum at m = 0 alone: the recurrence
    R[t] = P[t] - 2 R[t-1]. The boundary index 0 pairs with part j at
    degree 0 alone, with coefficient 1 / (lambda_j + v_j)!, so
    R_0j = a_j over (lambda_j + t)!.

    A pair series with lowest factorial L (lambda_i + lambda_j, or
    lambda_j) reads (L + t)! for t <= B, and L + B <= h because every
    other part is at least 1. So F[k] = h! / k!, one running product over
    k = L + B down to L per series, puts it over h!, as ints. Each
    matching convolves its n/2 scaled series, truncated at x^B, and reads
    the x^B coefficient of the last product alone. Every term is then over
    2^(B + l) * h!^(n/2), the 2^m and the 2^(|v| + l) of the prefactors
    making up the power of 2, and the sum stays on ints up to the one
    Fraction per problem. With one or two parts the one matching's lone
    series is read at x^B, where L + B = h and F[h] = 1, so nothing is
    scaled. With one part that series is the Abel row itself, and only its
    last int is read, by abel_last, which holds one value of the row at a
    time.

    Must equal euler_oracle exactly.
    """
    g, lam, ell, s = problem.g, problem.lam, problem.ell, problem.s
    h = g - 1
    budget = h - sum(lam)
    if budget < 0 or not ell:  # no parts: no pair takes the budget h >= 1
        return Fraction(0)
    if ell == 1:  # the boundary pair's series is the Abel row, read at x^B
        return Fraction(abel_last(s[0], budget) << h, 2 ** (budget + 1))
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
        return Fraction(series[indices][budget] << h, 2 ** (budget + ell))
    hf = factorial(h)
    for (i, j), row in series.items():  # in place, onto h!
        low = sum(lam[x - 1] for x in (i, j) if x)
        scale = hf // factorial(low + budget)  # F[low + t], from t = B down
        for t in range(budget, -1, -1):
            row[t] *= scale
            scale *= low + t
    total = 0
    for sign, sigma in _signed_arrangements(indices):
        first, *mid, last = (series[sigma[2 * b], sigma[2 * b + 1]] for b in range(half))
        for row in mid:
            first = _times(first, row)
        top = sum(map(operator.mul, first, reversed(last)))  # the x^B coefficient
        total += top if sign > 0 else -top
    # the weight h! * 2^h over the terms' 2^(B + l) * h!^(n/2)
    return Fraction(total << h, 2 ** (budget + ell) * hf ** (half - 1))


def classical_coefficient(r: int) -> Fraction:
    """Class coefficient for the staircase vanishing sequence (0, 1, ..., r).

    chow_class_closed of the staircase (r, ..., 1). This is the De
    Concini-Pragacz class of the Prym-Brill-Noether locus (Math. Ann.
    1995), which the paper's formulas extend; their closed form
    2^C(r,2) * prod_{i=1..r} (i-1)!/(2i-1)! / 2^(r(r+1)/2)
    is compared in the test suite and in selfcheck. No route calls it; it
    stays as the tests' staircase anchor until ROADMAP item 6. Not
    exported: it is in no __all__.
    """
    if r < 0:
        raise ValueError(f"classical_coefficient: r must be nonnegative, got {r}")
    return chow_class_closed(tuple(range(r, 0, -1)))


def class_result(problem: PrymProblem, beta_mode):
    """The class of problem in coefficient mode beta_mode.

    At 0 the cohomology coefficient gamma of (2*xi)^|lambda|, by the closed
    product, a Fraction; at -1 or "symbolic" the theta' polynomial of
    ck_class, which rejects any other mode with ValueError.
    """
    if beta_mode == 0:
        return chow_class_closed(problem.lam)
    return ck_class(problem, beta_mode)
