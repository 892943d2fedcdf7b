"""Index-shift operator expansions for the Pfaffian entry series.

Matrix entries are built by letting series of commuting index-raising
operators act on products of two one-variable classes. Writing T_i for the
operator raising the index of the first factor and R = T_i / T_j for the
paired raise/lower, each entry is

    interaction(R, T_i) * prefactor(T_i) * prefactor(T_j) * d(base_i) d(base_j)

where the prefactor attached to one index with exponent s is

    (1 - beta*T)^s / (2 - beta*T)

and the pairwise interaction is

    (1 - R) / (1 + R - beta*T_i).

Both series are expanded here at beta = -1, the Chern character route,
truncated by the total degree cap of the target ring: the prefactor into
a tuple of ints scaled by 2^(cap+1), the interaction into a cached table
of ints. No other value of beta is needed: the T^v prefactor coefficient
is a rational multiple of beta^v and the interaction coefficient of raise
a and lowering b one of beta^(a-b), so every entry is homogeneous with
beta of degree -1 against theta' of degree 1, the grading of the
connective K-theory Pfaffian formulas. Its degree-d coefficient at general
beta is the beta = -1 one times (-beta)^(d - base_i - base_j), and prym_bn
reads the beta = 0 and symbolic classes off the beta = -1 class this way.

apply_pair_operator builds an entry from the expansions with one integer
kernel. With P_i, P_j the prefactor coefficients, I[b][a] the interaction
coefficient of raise a and lowering b (0 for b > a) and (l_i, l_j) the
base indices, the degree-d coefficient of the entry is

    sum of P_i[v_i] * I[b][a] * P_j[v_j] / (ii! * jj!)
    over ii = l_i + v_i + a, jj = l_j + v_j - b >= 0, ii + jj = d <= cap.

The kernel takes this sum in two convolution stages, each O(cap^3) where
the direct sum over (v_i, v_j, a, b) is O(cap^4):

    Q[x][b]   = sum over v_i + a = x of P_i[v_i] * I[b][a]
    E[ii][jj] = sum over b of Q[ii - l_i][b] * P_j[jj - l_j + b]

and adds E[ii][jj] * cap! / (ii! * jj!) into degree ii + jj. The first
stage depends only on the i-side prefactor, so it is cached per prefactor
row and reused by every entry of that row, whatever its bases; an entry
reads the rows x = 0..cap - l_i of it. Everything is scaled by
S = 4^(cap+1) * cap!, so both stages run on plain ints: each prefactor
comes as the ints 2^(cap+1) * P[v] (the T^v coefficient has a denominator
dividing 2^(v+1)), the interaction coefficients are integers, and
cap! / (ii! * jj!) is an integer whenever ii + jj <= cap. The entry is
returned as those ints, S times its coefficients, and no Fraction is built
here: prym_bn.ch_k_class runs the Pfaffian on the scaled entries and
divides S^(n/2) out once per degree of the product.

A class with l nonzero parts has l(l-1)/2 entries over l - 1 distinct
i-side rows, so its entries cost l - 1 first stages and l(l-1)/2 second
stages, O(l^2 * cap^3) integer operations in all.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import mul

from .exact_arith import abel_row
from .series_ring import ThetaPoly

__all__ = [
    "apply_pair_operator",
    "interaction_expansion",
    "prefactor_expansion",
]


@lru_cache(maxsize=None)
def prefactor_expansion(s: int, cap: int) -> tuple:
    """T^0..T^cap coefficients of (1 + T)^s / (2 + T), the beta = -1 prefactor,
    as the ints 2^(cap+1) * c_v that apply_pair_operator reads.

    c_v is abel_coefficient(s, v), so the v-th int is abel_row(s, cap)[v]
    shifted left by cap - v. For general beta the coefficient is (-beta)^v
    times c_v (see the module docstring).
    """
    if cap < 0:
        raise ValueError(f"prefactor_expansion: cap must be nonnegative, got {cap}")
    return tuple(a << (cap - v) for v, a in enumerate(abel_row(s, cap)))


@lru_cache(maxsize=None)
def interaction_expansion(cap: int) -> tuple:
    """Coefficients of (1 - R) / (1 + R + T_i), the beta = -1 interaction.

    Writing a for the total raise on the first index and b for the lowering
    on the second, the general-beta coefficient is

        (-1)^b * (binom(a, b) + binom(a-1, b-1)) * beta^(a-b)

    for b <= a, with the binom(a-1, b-1) term absent at b = 0, and 0 for
    b > a. At beta = -1 this is the alternating integer
    (-1)^a * (binom(a, b) + binom(a-1, b-1)). Returned as a tuple of int
    tuples indexed [b][a], for a, b = 0..cap.

    The binomials come by Pascal's rule, one row of binom(a, .) from the
    last, so the table costs O(cap^2) additions.
    """
    if cap < 0:
        raise ValueError(f"interaction_expansion: cap must be nonnegative, got {cap}")
    table = [[0] * (cap + 1) for _ in range(cap + 1)]
    prev = [0] * (cap + 1)  # binom(a - 1, b): all 0 at a = 0
    row = [1] + [0] * cap  # binom(a, b)
    for a in range(cap + 1):
        sign = -1 if a % 2 else 1
        table[0][a] = sign
        for b in range(1, a + 1):
            table[b][a] = sign * (row[b] + prev[b - 1])
        prev, row = row, [1] + [row[b] + row[b - 1] for b in range(1, cap + 1)]
    return tuple(map(tuple, table))


@lru_cache(maxsize=None)
def _pair_weights(cap: int):
    """Rows cap! / (ii! * jj!) over ii + jj <= cap."""
    top = factorial(cap)
    return tuple(
        tuple(top // (factorial(ii) * factorial(jj)) for jj in range(cap + 1 - ii))
        for ii in range(cap + 1)
    )


@lru_cache(maxsize=None)
def _raised_prefactor(prefactors: tuple, cap: int) -> tuple:
    """Stage 1 of the entry kernel for one i-side prefactor row:
    Q[x][b] = sum over v + a = x of P[v] * I[b][a], for x = 0..cap and
    b = 0..x (I[b][a] vanishes for b > a).

    It depends on neither base index, so every entry of the row reads the
    one cached table; it holds O(cap^2) ints, like interaction_expansion.
    """
    table = interaction_expansion(cap)
    # reversed, P[x - a] for a = 0..x is the slice rev[cap - x:]
    rev = prefactors[::-1]
    return tuple(
        tuple(sum(map(mul, row[: x + 1], rev[cap - x :])) for row in table[: x + 1])
        for x in range(cap + 1)
    )


def apply_pair_operator(base, prefactors_i, prefactors_j, cap: int) -> ThetaPoly:
    """Act with the interaction and both prefactor series on d(base_i) d(base_j),
    and return the entry times S = 4^(cap+1) * cap!, as ints.

    base is the pair of starting indices, and prefactors_i and prefactors_j
    are the scaled ints prefactor_expansion(s, cap) of the two exponents.
    Each combination of prefactor shifts (v_i, v_j) and an interaction term
    (a, b) of interaction_expansion(cap) contributes

        pre_i[v_i] * pre_j[v_j] * I[b][a] * d(base_i + v_i + a) * d(base_j + v_j - b)

    where shifted second indices below zero contribute exactly 0 and total
    degrees above the cap are discarded.

    The sum is taken in two O(cap^3) convolution stages, first the i-side
    prefactor into the interaction raise, cached per prefactor row, then
    the result into the j-side lowering (see the module docstring). Every
    coefficient is an int, S times the entry's: every term has b <= a, so
    degrees below base_i + base_j are 0. Raises ValueError on negative
    bases. A class of l parts costs O(l^2 * cap^3) this way.
    """
    li, lj = base
    if li < 0 or lj < 0:
        raise ValueError(f"apply_pair_operator: negative base indices ({li}, {lj})")
    q = _raised_prefactor(prefactors_i, cap)
    weights = _pair_weights(cap)

    # stage 2: E[ii][jj] = sum_b q[ii - li][b] * P_j[jj - lj + b], weighted into
    # ii + jj; ii = li + x <= cap, so x runs to cap - li, none when li > cap.
    # padded[jj + b] is P_j[jj - lj + b], 0 below lj, and b runs over all of
    # q[x], as jj - lj + b <= cap - li - lj <= cap
    padded = (0,) * lj + prefactors_j
    acc = [0] * (cap + 1)
    for x in range(cap - li + 1):
        qx = q[x]
        ii = li + x
        row = weights[ii]
        for jj in range(cap - ii + 1):
            e = sum(map(mul, qx, padded[jj : jj + x + 1]))
            if e:
                acc[ii + jj] += e * row[jj]
    return ThetaPoly(cap, acc)
