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

and adds E[ii][jj] * cap! / (ii! * jj!) into degree ii + jj. Everything is
scaled by 4^(cap+1) * cap!, so both stages run on plain ints: each
prefactor comes as the ints 2^(cap+1) * P[v] (the T^v coefficient has a
denominator dividing 2^(v+1)), the interaction coefficients are integers,
and cap! / (ii! * jj!) is an integer whenever ii + jj <= cap. Only one
Fraction is built per output degree, for each degree from l_i + l_j to the
cap; the degrees below stay int 0.

A class with l nonzero parts has l(l-1)/2 entries, so its entries cost
O(l^2 * cap^3) integer operations.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .exact_arith import abel_row, binom_gen, factorial
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
    """
    if cap < 0:
        raise ValueError(f"interaction_expansion: cap must be nonnegative, got {cap}")
    return tuple(
        tuple(
            (-1) ** a * (binom_gen(a, b) + (binom_gen(a - 1, b - 1) if b else 0)) if b <= a else 0
            for a in range(cap + 1)
        )
        for b in range(cap + 1)
    )


@lru_cache(maxsize=None)
def _pair_weights(cap: int):
    """Rows cap! / (ii! * jj!) over ii + jj <= cap, and the scale 4^(cap+1) * cap!."""
    top = factorial(cap)
    rows = tuple(
        tuple(top // (factorial(ii) * factorial(jj)) for jj in range(cap + 1 - ii))
        for ii in range(cap + 1)
    )
    return rows, 4 ** (cap + 1) * top


def apply_pair_operator(base, prefactors_i, prefactors_j, cap: int) -> ThetaPoly:
    """Act with the interaction and both prefactor series on d(base_i) d(base_j).

    base is the pair of starting indices, and prefactors_i and prefactors_j
    are the scaled ints prefactor_expansion(s, cap) of the two exponents.
    Each combination of prefactor shifts (v_i, v_j) and an interaction term
    (a, b) of interaction_expansion(cap) contributes

        pre_i[v_i] * pre_j[v_j] * I[b][a] * d(base_i + v_i + a) * d(base_j + v_j - b)

    where shifted second indices below zero contribute exactly 0 and total
    degrees above the cap are discarded.

    The sum is taken in two O(cap^3) convolution stages, first the i-side
    prefactor into the interaction raise, then the result into the j-side
    lowering, over ints scaled by 4^(cap+1) * cap! (see the module
    docstring). Degrees base_i + base_j .. cap are a Fraction even when
    their terms cancel, and lower degrees stay int 0: every term has
    b <= a, so no term lands below base_i + base_j, and the prefactor's
    T^0 coefficient (1/2 for every exponent) with the (d - base_i - base_j, 0)
    term reaches every degree from there to the cap. Raises ValueError on
    negative bases. A class of l parts costs O(l^2 * cap^3) this way.
    """
    li, lj = base
    if li < 0 or lj < 0:
        raise ValueError(f"apply_pair_operator: negative base indices ({li}, {lj})")
    table = interaction_expansion(cap)
    pi = prefactors_i[::-1]
    pj = prefactors_j
    weights, scale = _pair_weights(cap)

    # stage 1: q[x][b] = sum_{v_i + a = x} P_i[v_i] * I[b][a], for ii = li + x <= cap;
    # pi is reversed, so P_i[x - a] for a = 0..x is the slice pi[cap - x:]
    # and b runs up to x, as I[b][a] vanishes for b > a
    q = [
        [sum(map(mul, row[: x + 1], pi[cap - x :])) for row in table[: x + 1]]
        for x in range(cap - li + 1)
    ]

    # stage 2: E[ii][jj] = sum_b q[ii - li][b] * P_j[jj - lj + b], weighted into ii + jj
    acc = [0] * (cap + 1)
    for x, qx in enumerate(q):
        ii = li + x
        row = weights[ii]
        for jj in range(cap - ii + 1):
            k = jj - lj
            blo, bhi = max(0, -k), min(len(qx), cap + 1 - k)
            if blo < bhi:
                e = sum(map(mul, qx[blo:bhi], pj[k + blo : k + bhi]))
                if e:
                    acc[ii + jj] += e * row[jj]

    low = li + lj
    return ThetaPoly(cap, [0] * min(low, cap + 1) + [Fraction(c, scale) for c in acc[low:]])
