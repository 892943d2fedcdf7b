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
divergent alternating prefactor sums are taken in Abel-summed form. The
routes share no series or entry code, and the theorem route enumerates
and signs its own matchings instead of calling the oracle's Pfaffian
engine. They must agree exactly, which the test suite and the command line
verification switch enforce.

Problems whose codimension exceeds g - 1 are computed rather than
rejected: every route consistently returns 0 for them, and the problem
record carries an expected_empty flag.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from .exact_arith import abel_coefficient, factorial
from .operator_engine import apply_pair_operator, prefactor_expansion
from .pfaffian import SkewMatrix, augment_odd, perm_sign, pfaffian_matchings
from .series_ring import BetaPoly, ThetaPoly, d_value

__all__ = [
    "SYMBOLIC",
    "ClassResult",
    "GTable",
    "PrymProblem",
    "ValidationError",
    "build_problem",
    "ch_k_class",
    "chow_class_closed",
    "chow_class_pfaffian",
    "ck_class",
    "class_result",
    "classical_coefficient",
    "enumerate_f",
    "euler_oracle",
    "euler_theorem",
    "g_coeff",
    "problem_from_partition",
    "strict_partitions",
]


SYMBOLIC = "symbolic"


class ValidationError(ValueError):
    """Input data violates an admissibility bound."""


@dataclass(frozen=True)
class PrymProblem:
    """Validated problem record with all derived partition data."""

    g: int
    r: int
    a: tuple
    lam: tuple  # nonzero parts, strictly decreasing
    ell: int  # number of nonzero parts
    s: tuple  # shift exponents, one per nonzero part
    dim_prym: int  # g - 1
    parity: str  # "+" for odd r, "-" for even r
    expected_empty: bool  # codim exceeds dim_prym

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

    Closed product form: (1/2^l) * prod 1/part! * prod_{i<j} (pi-pj)/(pi+pj).
    """
    lam = _validated_strict(lam)
    gamma = Fraction(1, 2 ** len(lam))
    for p in lam:
        gamma /= factorial(p)
    for i, pi in enumerate(lam):
        for pj in lam[i + 1 :]:
            gamma *= Fraction(pi - pj, pi + pj)
    return gamma


def chow_class_pfaffian(lam) -> Fraction:
    """Same coefficient gamma, by the Pfaffian of binomial-sum entries.

    The (i, j) entry is (1/4) / (pi+pj)! times
    binom(pi+pj, pi) + 2 * sum_{u=1}^{pj} (-1)^u binom(pi+pj, pi+u);
    for an odd number of parts the matrix is augmented with the boundary
    row (1/2) / pj! (the single prefactor contributes the extra 1/2).
    Must equal chow_class_closed.
    """
    lam = _validated_strict(lam)
    ell = len(lam)
    if ell == 0:
        return Fraction(1)

    def entry(i, j):
        pi, pj = lam[i], lam[j]
        tail = sum((-1) ** u * comb(pi + pj, pi + u) for u in range(1, pj + 1))
        return Fraction(comb(pi + pj, pi) + 2 * tail, 4 * factorial(pi + pj))

    m = SkewMatrix.from_upper(ell, entry)
    if ell % 2:
        m = augment_odd(m, [Fraction(1, 2 * factorial(p)) for p in lam])
    return pfaffian_matchings(m)


def _boundary_entry(lj: int, prefactors, cap: int) -> ThetaPoly:
    acc = ThetaPoly.zero(cap)
    for v, c in enumerate(prefactors):
        if c and lj + v <= cap:
            acc = acc + d_value(lj + v, cap) * c
    return acc


def ch_k_class(problem: PrymProblem) -> ThetaPoly:
    """Chern character of the structure-sheaf class, truncated at g - 1.

    The Pfaffian of the beta = -1 entry series, with the boundary row
    appended for an odd number of parts. The lowest-degree coefficient
    (degree |lambda|) equals chow_class_closed(lam); problems with
    |lambda| > g - 1 give 0.
    """
    cap = problem.g - 1
    ell = problem.ell
    if ell == 0:
        return ThetaPoly.one(cap)
    lam, s = problem.lam, problem.s
    pre = [prefactor_expansion(s[i], cap) for i in range(ell)]

    def entry(i, j):
        return apply_pair_operator((lam[i], lam[j]), pre[i], pre[j], cap)

    m = SkewMatrix.from_upper(ell, entry)
    if ell % 2:
        m = augment_odd(m, [_boundary_entry(lam[j], pre[j], cap) for j in range(ell)])
    return pfaffian_matchings(m)


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


@cache
def _pair_coeff(coeff, m: int, ni: int, nj: int) -> Fraction:
    """coeff(m, i, j, lam, v) for i < j with lam_i + v_i = ni, lam_j + v_j = nj.

    g_coeff depends on (lam, v) only through those two sums, so one entry
    serves every shift sequence and every problem. ni is None for the
    boundary index 0. The coefficient function is part of the key, so a
    replaced g_coeff never reads values another one computed.
    """
    if ni is None:
        return coeff(m, 0, 1, (nj,), (0,))
    return coeff(m, 1, 2, (ni, nj), (0, 0))


class GTable:
    """Antisymmetric view of g_coeff values for one (lam, v).

    Values come from a cache shared by every table, keyed on the degree
    and the two sums lam_i + v_i, lam_j + v_j; g_coeff runs only on a miss.
    """

    def __init__(self, lam, v):
        self.lam = tuple(lam)
        self.v = tuple(v)
        if len(self.v) != len(self.lam):
            raise ValueError(
                f"GTable: shift sequence has length {len(self.v)}, expected {len(self.lam)}"
            )
        self._n = (None,) + tuple(p + x for p, x in zip(self.lam, self.v))

    def value(self, m: int, i: int, j: int) -> Fraction:
        if m < 0 or not (0 <= i < len(self._n) and 0 <= j < len(self._n)):
            return g_coeff(m, i, j, self.lam, self.v)  # raises ValueError
        if i == j:
            return Fraction(0)
        if i < j:
            return _pair_coeff(g_coeff, m, self._n[i], self._n[j])
        return -_pair_coeff(g_coeff, m, self._n[j], self._n[i])


def enumerate_f(sigma, k: int, n_pairs: int):
    """Distributions of k over the pair slots of the arrangement sigma.

    Slot b collects indices (sigma[2b], sigma[2b+1]); slots touching the
    boundary index 0 only admit 0, so k > 0 with no free slot gives no
    assignments at all.
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


def _bounded_sequences(length, max_sum):
    if length == 0:
        yield ()
        return
    for first in range(max_sum + 1):
        for rest in _bounded_sequences(length - 1, max_sum - first):
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


def _scaled(x, scale: int, what: str) -> int:
    """x * scale as an int; ArithmeticError if that is not an integer."""
    q, r = divmod(x.numerator * scale, x.denominator)
    if r:
        raise ArithmeticError(f"euler_theorem: {what} is not an integer")
    return q


@cache
def _abel_scaled(s: int, v: int) -> int:
    """abel_coefficient(s, v) * 2^(v+1), an integer."""
    return _scaled(abel_coefficient(s, v), 2 ** (v + 1), f"abel_coefficient({s}, {v}) * 2^{v + 1}")


@cache
def _pair_scaled(coeff, h: int, m: int, ni: int, nj: int) -> int:
    """_pair_coeff(coeff, m, ni, nj) * h!, an integer when ni + nj + m <= h."""
    what = f"g_coeff({m}; {ni}, {nj}) * {h}!"
    return _scaled(_pair_coeff(coeff, m, ni, nj), factorial(h), what)


def euler_theorem(problem: PrymProblem) -> Fraction:
    """Euler characteristic by the closed summation formula.

    Sums over shift sequences v, signed perfect matchings of the (possibly
    augmented) index set, and distributions f of the interaction degree k
    over the pairs. Integration kills every total degree except g - 1, so
    the sum is restricted to |lambda| + |v| + k = g - 1; each surviving
    term carries the weight h! * 2^h with h = g - 1. The alternating
    u-sums are evaluated as abel_coefficient(s_i, v_i).

    The formula is stated as a sum over all n! arrangements of the n
    indices, paired off in order, with weight h! / (2^(n/2 - h) (n/2)!).
    Swapping the two indices of a pair flips both the sign and the pair
    coefficient, which is antisymmetric; permuting whole pairs keeps the
    sign and permutes the f-distributions among themselves. Every term is
    therefore repeated 2^(n/2) (n/2)! times, once for each arrangement of
    one perfect matching, and the sum over the (n-1)!! matchings with
    weight h! * 2^h is the same number.

    The sum runs over ints, with one Fraction per problem. A pair
    coefficient of degree m between indices with lambda + v equal to ni and
    nj has a denominator dividing (ni + nj + m)!, and every lambda_i + v_i
    is at least 1, so ni + nj + m <= |lambda| + |v| + k = h: each one read
    is an integer once multiplied by h!, and each product of half of them
    by h!^half. abel_coefficient(s, v) * 2^(v+1) is an integer, so the
    prefactor of v is one once multiplied by 2^(|v| + l); shifting it left
    by k = budget - |v| puts every v over the common 2^(budget + l). A
    scaled value that is not an integer raises ArithmeticError instead of
    being rounded.

    Must equal euler_oracle exactly.
    """
    g, lam, ell, s = problem.g, problem.lam, problem.ell, problem.s
    h = g - 1
    budget = h - sum(lam)
    if budget < 0:
        return Fraction(0)
    indices = tuple(range(1, ell + 1)) if ell % 2 == 0 else tuple(range(ell + 1))
    half = len(indices) // 2
    arrangements = _signed_arrangements(indices)
    pairs = [(i, j) for n, i in enumerate(indices) for j in indices[n + 1 :]]
    total = 0
    for v in _bounded_sequences(ell, budget):
        k = budget - sum(v)
        pre = 1
        for i in range(ell):
            pre *= _abel_scaled(s[i], v[i])
        if not pre:
            continue
        n = (None,) + tuple(p + x for p, x in zip(lam, v))
        # the boundary index 0 sits in slot 0 of every canonical
        # arrangement, so all of them share one set of distributions, and
        # those put degree 0 on the boundary pair
        rows = {
            (i, j): [_pair_scaled(g_coeff, h, m, n[i], n[j]) for m in range(k + 1 if i else 1)]
            for i, j in pairs
        }
        dists = enumerate_f(arrangements[0][1], k, half)
        inner = 0
        for sign, sigma in arrangements:
            slots = [rows[sigma[2 * b], sigma[2 * b + 1]] for b in range(half)]
            acc = 0
            for f in dists:
                prod = 1
                for row, fm in zip(slots, f):
                    prod *= row[fm]
                acc += prod
            inner += acc if sign > 0 else -acc
        total += (pre * inner) << k
    hf = factorial(h)
    return Fraction((total << h) * hf, 2 ** (budget + ell) * hf**half)


def classical_coefficient(r: int) -> Fraction:
    """Class coefficient for the staircase vanishing sequence (0, 1, ..., r).

    The product over the parts (r, ..., 1): (1/2^r) * prod 1/i! *
    prod_{j<i} (i-j)/(i+j). This is the De Concini-Pragacz class of the
    Prym-Brill-Noether locus (Math. Ann. 1995), which the paper's formulas
    extend; their closed form
    2^C(r,2) * prod_{i=1..r} (i-1)!/(2i-1)! / 2^(r(r+1)/2)
    is compared in the test suite and in selfcheck.
    """
    if r < 0:
        raise ValueError(f"classical_coefficient: r must be nonnegative, got {r}")
    value = Fraction(1, 2**r)
    for i in range(1, r + 1):
        value /= factorial(i)
        for j in range(1, i):
            value *= Fraction(i - j, i + j)
    return value


@dataclass(frozen=True)
class ClassResult:
    """Computed class with its problem echo and convention metadata."""

    kind: str  # cohomology | chern_character_K | connective
    problem: PrymProblem
    beta: object  # 0, -1 or "symbolic"
    gamma: object = None  # Fraction, cohomology kind only
    exponent: object = None  # int, cohomology kind only
    poly: object = None  # ThetaPoly, other kinds
    flags: tuple = ()


def class_result(problem: PrymProblem, beta_mode) -> ClassResult:
    """Dispatch a class computation by coefficient mode."""
    if beta_mode == 0:
        return ClassResult(
            kind="cohomology",
            problem=problem,
            beta=0,
            gamma=chow_class_closed(problem.lam),
            exponent=problem.codim,
        )
    if beta_mode == -1:
        return ClassResult(
            kind="chern_character_K",
            problem=problem,
            beta=-1,
            poly=ch_k_class(problem),
        )
    if beta_mode == SYMBOLIC:
        return ClassResult(
            kind="connective",
            problem=problem,
            beta=SYMBOLIC,
            poly=ck_class(problem, SYMBOLIC),
            flags=("engine-convention-symbolic-beta",),
        )
    raise ValueError(f"unknown beta mode {beta_mode!r}")
