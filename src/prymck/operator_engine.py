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
of ints, which the checks read (the kernel works from the interaction's
denominator instead, see below). No other value of beta is needed: the
T^v prefactor coefficient is a rational multiple of beta^v and the
interaction coefficient of raise a and lowering b one of beta^(a-b), so
every entry is homogeneous with beta of degree -1 against theta' of
degree 1, the grading of the connective K-theory Pfaffian formulas. Its
degree-d coefficient at general beta is the beta = -1 one times
(-beta)^(d - base_i - base_j), and prym_bn reads the beta = 0 and
symbolic classes off the beta = -1 class this way.

apply_pair_operator builds an entry from the expansions with one integer
kernel. With P_i, P_j the prefactor coefficients, I[b][a] the interaction
coefficient of raise a and lowering b (0 for b > a) and (l_i, l_j) the
base indices, the degree-d coefficient of the entry is

    sum of P_i[v_i] * I[b][a] * P_j[v_j] / (ii! * jj!)
    over ii = l_i + v_i + a, jj = l_j + v_j - b >= 0, ii + jj = d <= cap.

Every term has b <= a, so the entry vanishes below L = l_i + l_j, and the
kernel returns only a window of it: degrees L..L + B for an excess B with
L + B <= cap, shifted down to 0..B. prym_bn.ch_k_class asks for
B = cap - |lambda|, the expected dimension rho: its matrix is D * A~ * D
with D = diag(theta'^l_i) (l = 0 for the boundary index), and
Pf(D A~ D) = det(D) * Pf(A~) = theta'^|lambda| * Pf(A~) for any matrix,
so degrees 0..B of the shifted entries give every class coefficient.

The kernel takes the window in two stages, where the direct sum over
(v_i, v_j, a, b) is O(cap^4):

    Q[x][b]   = sum over v_i + a = x of P_i[v_i] * I[b][a]
    E[ii][jj] = sum over b of Q[ii - l_i][b] * P_j[jj - l_j + b]

and adds E[ii][jj] * cap! / (ii! * jj!) into degree ii + jj - L. The
window reads the rows x = 0..l_j + B of Q and, in each, the cells
l_j - x <= jj <= l_j + B - x. The first stage needs no convolution: Q is
P_i(T) times the interaction, whose generating function at beta = -1 is
(1 - TU) / (1 + T + TU) in raise T and lowering U, so
Q * (1 + T + TU) = P_i(T) * (1 - TU), that is

    Q[x][b] = P_i[x] [b = 0] - P_i[x-1] [b = 1] - Q[x-1][b] - Q[x-1][b-1].

Each entry builds its own table this way, to row min(l_j + B, cap), from
the prefactor row alone: int additions, no products, nothing cached.
Everything is scaled by S = 4^(cap+1) * cap!, so both stages run on plain
ints: each prefactor comes as the ints
2^(cap+1) * P[v] (the T^v coefficient has a denominator dividing
2^(v+1)), the interaction coefficients are integers, and
cap! / (ii! * jj!) is an integer whenever ii + jj <= cap. The window is
returned as those ints, S times its coefficients, and no Fraction is
built here: ch_k_class runs the Pfaffian on the scaled windows and
divides S^(n/2) out once per degree of the product.

The kernel also computes the cells below L inside the cap, those with
jj < l_j - x, from the columns b > x of Q, and raises ArithmeticError if
one is nonzero, which the interaction's zeros at b > a rule out.
With B < 0 (an expected-empty problem) there is no window, and the
kernel runs the guard alone and returns None.

Costs per entry, with R = min(l_j + B, cap) its row bound: the first
stage O(R^2) additions, the second O(B * R^2) products, and the Pfaffian
multiplies series of B + 1 coefficients, where full entries took O(cap^3)
for each. A class with l nonzero parts has l(l-1)/2 entries.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, mul

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
    """Rows cap! / (ii! * jj!) over ii + jj <= cap: row 0 by a running
    product, and each later row from the last, w[ii][jj] = w[ii-1][jj] / ii,
    an exact division as every cell is an integer."""
    row = [1] * (cap + 1)  # row 0, cap! / jj!, from jj = cap down
    for jj in range(cap - 1, -1, -1):
        row[jj] = row[jj + 1] * (jj + 1)
    weights = [tuple(row)]
    for ii in range(1, cap + 1):
        weights.append(tuple(c // ii for c in weights[-1][: cap + 1 - ii]))
    return tuple(weights)


def _first_stage(prefactors, rows: int) -> list:
    """Stage 1 of the entry kernel for the i-side prefactor row P:
    Q[x][b] = sum over v + a = x of P[v] * I[b][a], for x, b = 0..rows.

    At beta = -1 the interaction in raise T and lowering U is
    (1 - TU) / (1 + T + TU), so Q = P(T) * (1 - TU) / (1 + T + TU) and
    Q * (1 + T + TU) = P(T) * (1 - TU) gives each row from the last:

        Q[x][b] = P[x] [b = 0] - P[x-1] [b = 1] - Q[x-1][b] - Q[x-1][b-1]

    in O(rows^2) int additions. The columns b > x come out 0, as
    I[b][a] = 0 for b > a, and only the kernel's guard reads them.
    """
    row = [prefactors[0]] + [0] * rows
    table = [row]
    for x in range(1, rows + 1):
        row = [-c for c in map(add, row, [0, *row])]
        row[0] += prefactors[x]
        row[1] -= prefactors[x - 1]
        table.append(row)
    return table


def apply_pair_operator(base, prefactors_i, prefactors_j, cap: int, excess: int):
    """Act with the interaction and both prefactor series on d(base_i) d(base_j),
    and return degrees L..L + excess of the entry, L = base_i + base_j,
    shifted down, times S = 4^(cap+1) * cap!, as a ThetaPoly of cap excess.

    base is the pair of starting indices, and prefactors_i and prefactors_j
    are the scaled ints prefactor_expansion(s, cap) of the two exponents.
    Each combination of prefactor shifts (v_i, v_j) and an interaction term
    (a, b) of interaction_expansion contributes

        pre_i[v_i] * pre_j[v_j] * I[b][a] * d(base_i + v_i + a) * d(base_j + v_j - b)

    where shifted second indices below zero contribute exactly 0.

    The sum is taken in two stages (see the module docstring): first the
    i-side prefactor times the interaction, by the recurrence that the
    interaction's denominator 1 + T + TU gives (_first_stage), to row
    R = min(base_j + max(excess, 0), cap), then the result into the j-side
    lowering. Every term has b <= a, so the degrees below L vanish; the
    kernel computes those inside the cap and raises ArithmeticError if one
    is not 0. With excess < 0 there is no window: the guard runs alone and
    None is returned. Raises ValueError on negative bases, on prefactor
    rows of other than cap + 1 ints (rows built at another cap) and on a
    window past the cap.

    The first stage costs O(R^2) int additions, the second O(excess * R^2)
    products, where a whole entry took O(cap^3) in each. ch_k_class
    multiplies the windows in its Pfaffian and puts theta'^|lambda| back,
    by Pf(D A~ D) = det(D) * Pf(A~) (see the module docstring).
    """
    li, lj = base
    if li < 0 or lj < 0:
        raise ValueError(f"apply_pair_operator: negative base indices ({li}, {lj})")
    if len(prefactors_i) != cap + 1 or len(prefactors_j) != cap + 1:
        raise ValueError(f"apply_pair_operator: prefactor rows need cap + 1 = {cap + 1} ints")
    if excess >= 0 and li + lj + excess > cap:
        raise ValueError(f"apply_pair_operator: window {li + lj}..{li + lj + excess} passes the cap {cap}")
    q = _first_stage(prefactors_i, min(lj + max(excess, 0), cap))
    weights = _pair_weights(cap)

    # stage 2: E[ii][jj] = sum_b q[x][b] * P_j[jj - lj + b] with ii = li + x.
    # Below the base (jj < lj - x) every term has b > x: the guard. In the
    # window, b runs to x, and padded[jj + b] is P_j[jj - lj + b], 0 below lj
    padded = (0,) * lj + prefactors_j
    window = [0] * (excess + 1)
    for x in range(min(lj + max(excess, -1), cap - li) + 1):
        qx = q[x]
        ii = li + x
        for jj in range(min(lj - x, cap - ii + 1)):
            if sum(map(mul, qx[lj - jj :], prefactors_j)):
                raise ArithmeticError(f"apply_pair_operator: degree {ii + jj} below {li + lj} is nonzero")
        row, head = weights[ii], qx[: x + 1]
        for jj in range(max(lj - x, 0), lj + excess - x + 1):
            e = sum(map(mul, head, padded[jj : jj + x + 1]))
            if e:
                window[x + jj - lj] += e * row[jj]
    return ThetaPoly(excess, window) if excess >= 0 else None
