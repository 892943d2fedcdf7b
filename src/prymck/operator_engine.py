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
of ints. The kernel builds no such table but runs the interaction's
denominator identity (see below); interaction_expansion builds its table
by that same identity, so the checks that compare the table with the
paper's closed form check what the kernel relies on. No other value of
beta is needed: the T^v prefactor coefficient is a rational multiple of
beta^v and the interaction coefficient of raise a and lowering b one of
beta^(a-b), so every entry is homogeneous with beta of degree -1 against
theta' of degree 1, the grading of the connective K-theory Pfaffian
formulas. Its degree-d coefficient at general beta is the beta = -1 one
times (-beta)^(d - base_i - base_j), and prym_bn reads the symbolic class
off the beta = -1 class this way.

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

The kernel takes the window by one recurrence, where the direct sum over
(v_i, v_j, a, b) is O(cap^4). With x = ii - l_i the i-side raise and
k = jj - l_j the j-side shift, write E_x[k] for the sum of the terms at
(ii, jj) before their weight. At beta = -1 the interaction in raise T and
lowering U is (1 - TU) / (1 + T + TU), so Q = P_i(T) times it satisfies
Q * (1 + T + TU) = P_i(T) * (1 - TU). E_x[k] is the sum over b of
Q[x][b] * P_j[k + b], so multiplying that identity by the j-side
lowering gives each row of E from the last, with no Q built:

    E_x[k] = P_i[x] P_j[k] - P_i[x-1] P_j[k+1] - E_(x-1)[k] - E_(x-1)[k+1]

with P_j = 0 below index 0 and above the cap, and P_i[-1] = 0. The kernel
keeps two rows, E_(x-1) and the products P_i[x-1] * P_j, and adds
E_x[k] * cap! / (ii! * jj!) into degree d = x + k of the window, for
d = 0..B and k >= -l_j. The recurrence is the interaction's own
denominator and the prefactor rows: it uses nothing of the theorem route.

The weight is C(L + d, ii) * cap! / (L + d)!, as ii + jj = L + d. Along
row x the kernel steps the binomial, C(L + d + 1, ii) =
C(L + d, ii) * (L + d + 1) / (jj + 1), from the row's first window cell:
C(L, l_i + x) while x < l_j, each row's from the last by
(l_j - x) / (l_i + x + 1), and 1 from x = l_j on. Every division is
exact. After the last row it multiplies each degree d of the window once
by cap! / (L + d)!, a running product from d = B down. So a call holds
O(l_j + B) ints, its two rows, the window and a few weights, and keeps
nothing between calls.

Everything is scaled by S = 4^(cap+1) * cap!, so the recurrence runs on
plain ints: each prefactor comes as the ints
2^(cap+1) * P[v] (the T^v coefficient has a denominator dividing
2^(v+1)) and the interaction coefficients are integers. The window is
returned as those ints, S times its coefficients, and no Fraction is
built here: ch_k_class runs the Pfaffian on the scaled windows and
divides S^(n/2) out once per degree of the product.

The kernel also computes the cells below L inside the cap, those with
k < -x (and k >= -l_j, x + k <= min(-1, cap - L)), and raises
exact_arith.CheckFailure, an ArithmeticError, if one is nonzero, which
the interaction's zeros at b > a rule out (the command line exits 3 on
it, as on any failed check). The recurrence reads those cells only from
cells of the same region, so they cost no others, and they are all 0
when the kernel is right: E_0[k] = P_i[0] * P_j[k] is 0 below k = 0, and
every later row keeps them 0. With B < 0 (an expected-empty problem)
there is no window, and the kernel runs the guard alone and returns
None.

Costs per entry, with R = l_j + B its row bound: O(R * B) window cells
and O(l_j^2) guard cells, each one product with P_i[x] and the window's
cells one weight product and one binomial step more, and the Pfaffian
multiplies series of B + 1 coefficients, where full entries took O(cap^3)
for each. A class with l nonzero parts has l(l-1)/2 entries.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod

from .exact_arith import CheckFailure, _strict_int, _strict_ints
from .series_ring import ThetaPoly

__all__ = [
    "apply_pair_operator",
    "interaction_expansion",
    "prefactor_expansion",
]


@lru_cache(maxsize=None, typed=True)
def prefactor_expansion(s: int, cap: int) -> tuple:
    """T^0..T^cap coefficients of (1 + T)^s / (2 + T), the beta = -1 prefactor,
    as the ints 2^(cap+1) * c_v that apply_pair_operator reads.

    P = (1 + T)^s / (2 + T) satisfies
    (1 + T)(2 + T) P' = (s(2 + T) - (1 + T)) P, so the ints
    a_v = 2^(v+1) * c_v follow a_0 = 1, a_1 = 2s - 1 and
    (v + 1) a_(v+1) = (2s - 1 - 3v) a_v + 2(s - v) a_(v-1), an exact
    division; the v-th int is a_v shifted left by cap - v. The theorem
    route reads the same c_v from exact_arith.abel_row, another recurrence,
    so the two chi routes share no arithmetic helper. For general beta the
    coefficient is (-beta)^v times c_v (see the module docstring).

    s is an integer and cap an integer >= 0, by exact_arith._strict_int's
    rule, or ValidationError is raised. The cache is keyed by type, so a
    bool never reads the row of its int.
    """
    s, cap = _strict_int(s, "prefactor_expansion: s"), _strict_int(cap, "prefactor_expansion: cap", 0)
    ints, prev, a = [], 0, 1
    for v in range(cap + 1):
        ints.append(a << (cap - v))
        prev, a = a, ((2 * s - 1 - 3 * v) * a + 2 * (s - v) * prev) // (v + 1)
    return tuple(ints)


@lru_cache(maxsize=None, typed=True)
def interaction_expansion(cap: int) -> tuple:
    """Coefficients of (1 - R) / (1 + R + T_i), the beta = -1 interaction.

    Writing a for the total raise on the first index and b for the lowering
    on the second, the general-beta coefficient is

        (-1)^b * (binom(a, b) + binom(a-1, b-1)) * beta^(a-b)

    for b <= a, with the binom(a-1, b-1) term absent at b = 0, and 0 for
    b > a. At beta = -1 this is the alternating integer
    (-1)^a * (binom(a, b) + binom(a-1, b-1)). Returned as a tuple of int
    tuples indexed [b][a], for a, b = 0..cap.

    The table is not built from that closed form but from the interaction's
    own denominator, the identity apply_pair_operator runs: with T the
    raise and U the lowering, I = (1 - TU) / (1 + T + TU) satisfies
    (1 + T + TU) * I = 1 - TU, so

        I[b][a] = [a = b = 0] - [a = b = 1] - I[b][a-1] - I[b-1][a-1],

    one column a from the last. The checks compare the closed form with
    this table, so they check what the kernel relies on. cap is an integer
    >= 0, and the cache is keyed by type, as prefactor_expansion's.
    """
    cap = _strict_int(cap, "interaction_expansion: cap", 0)
    table = [[0] * (cap + 1) for _ in range(cap + 1)]
    table[0][0] = 1
    for a in range(1, cap + 1):
        for b in range(a + 1):
            source = -1 if a == b == 1 else 0  # the -TU of 1 - TU
            table[b][a] = source - table[b][a - 1] - (table[b - 1][a - 1] if b else 0)
    return tuple(map(tuple, table))


def _padded(prefactors, low: int) -> tuple:
    """The j-side prefactor row as the kernel reads it, P[-low..cap]: low
    zeros for the indices below 0, then the row. The guard's cells start
    from those zeros."""
    return (0,) * low + prefactors


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

    The sum is taken by one recurrence over the i-side raise x, from x = 0
    to base_j + excess, that the interaction's denominator 1 + T + TU
    gives (see the module docstring): row x of the cells is P_i[x] times
    the j-side row, less P_i[x-1] times it one cell on and two cells of
    row x - 1, so no table of the interaction or of its product with a
    prefactor row is built. Each window cell is weighed by
    cap! / (ii! * jj!) = C(L + d, ii) * cap! / (L + d)!, d its degree in
    the window: the binomial is stepped cell by cell along the row, and
    cap! / (L + d)! multiplies degree d once after the last row, so no
    table of weights is built either. A call holds O(base_j + excess) ints
    and keeps nothing between calls. Every term has b <= a, so the degrees
    below L vanish; the kernel computes those inside the cap, the guard,
    and raises CheckFailure if one is not 0. With excess < 0 there is
    no window: the guard runs alone and None is returned. The bases and
    the cap are integers >= 0 and the excess an integer, by
    exact_arith._strict_int's rule, or ValidationError is raised; it raises
    ValueError on prefactor rows of other than cap + 1 ints (rows built at
    another cap) and on a window past the cap.

    It costs O((base_j + excess) * excess) window cells and O(base_j^2)
    guard cells, each an int product and three additions (a window cell
    one weight product and one binomial step more), where the
    whole entry took O(cap^3). ch_k_class multiplies the windows in its
    Pfaffian and puts theta'^|lambda| back, by Pf(D A~ D) = det(D) * Pf(A~)
    (see the module docstring).
    """
    li, lj = base
    # every route passes ints in range, and skips the calls
    if not (type(li) is type(lj) is type(cap) is type(excess) is int and min(li, lj, cap) >= 0):
        li, lj = _strict_ints(base, "apply_pair_operator: base", 0)
        cap = _strict_int(cap, "apply_pair_operator: cap", 0)
        excess = _strict_int(excess, "apply_pair_operator: excess")
    if len(prefactors_i) != cap + 1 or len(prefactors_j) != cap + 1:
        raise ValueError(f"apply_pair_operator: prefactor rows need cap + 1 = {cap + 1} ints")
    if excess >= 0 and li + lj + excess > cap:
        raise ValueError(f"apply_pair_operator: window {li + lj}..{li + lj + excess} passes the cap {cap}")
    # row x holds the cells k = -lj..top - x at index lj + k: the guard's
    # below k = -x, the window's from there, each x + k <= top
    top = excess if excess >= 0 else min(-1, cap - li - lj)
    pj = _padded(prefactors_j, lj)
    window = [0] * (excess + 1)
    e = last = [0] * (lj + top + 2)  # E_(x-1) and P_i[x-1] * P_j, 0 before row 0
    start = comb(li + lj, li)  # C(L + deg, li + x) at row x's first window cell
    for x in range(lj + top + 1):
        cur = [prefactors_i[x] * c for c in pj[: lj + top + 1 - x]]
        e = [c - d - a - b for c, d, a, b in zip(cur, last[1:], e, e[1:])]
        last, low = cur, max(lj - x, 0)
        if any(e[:low]):
            raise CheckFailure(f"apply_pair_operator: row {x} is nonzero below the base degree {li + lj}")
        w = start  # C(L + deg, li + x) at jj = t, deg = x + t - lj
        for t in range(low, len(e)):
            window[x + t - lj] += e[t] * w
            w = w * (li + x + t + 1) // (t + 1)
        start = start * (lj - x) // (li + x + 1) if x < lj else 1
    scale = prod(range(li + lj + excess + 1, cap + 1))  # cap! / (L + deg)!, from deg = excess down
    for deg in range(excess, -1, -1):
        window[deg] *= scale
        scale *= li + lj + deg
    return ThetaPoly(excess, window) if excess >= 0 else None
