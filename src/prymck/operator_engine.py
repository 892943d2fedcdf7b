"""Index-shift operator calculus for the Pfaffian entry series.

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
into shift monomials with exact rational coefficients, truncated by the
total degree cap of the target ring. No other value of beta is needed:
the T^v prefactor coefficient is a rational multiple of beta^v and the
interaction coefficient of raise a and lowering b one of beta^(a-b), so
every entry is homogeneous with beta of degree -1 against theta' of degree
1, the grading of the connective K-theory Pfaffian formulas. Its degree-d
coefficient at general beta is the beta = -1 one times
(-beta)^(d - base_i - base_j), and prym_bn reads the beta = 0 and
symbolic classes off the beta = -1 class this way.

apply_pair_operator builds an entry from the expansions with one integer
kernel. With P_i, P_j the prefactor coefficients, I[a][b] the interaction
coefficient of raise a and lowering b and (l_i, l_j) the base indices, the
degree-d coefficient of the entry is

    sum of P_i[v_i] * I[a][b] * P_j[v_j] / (ii! * jj!)
    over ii = l_i + v_i + a, jj = l_j + v_j - b >= 0, ii + jj = d <= cap.

The kernel takes this sum in two convolution stages, each O(cap^3) where
the direct sum over (v_i, v_j, a, b) is O(cap^4):

    Q[x][b]   = sum over v_i + a = x of P_i[v_i] * I[a][b]
    E[ii][jj] = sum over b of Q[ii - l_i][b] * P_j[jj - l_j + b]

and adds E[ii][jj] * cap! / (ii! * jj!) into degree ii + jj. Everything is
scaled by 4^(cap+1) * cap!, so both stages run on plain ints: the T^v
prefactor coefficient has a denominator dividing 2^(v+1), the interaction
coefficients are integers, and cap! / (ii! * jj!) is an integer whenever
ii + jj <= cap. Only one Fraction is built per output degree. Inputs that
break the integral scaling raise ValueError.

A class with l nonzero parts has l(l-1)/2 entries, so its entries cost
O(l^2 * cap^3) integer operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from .exact_arith import abel_coefficient, binom_gen, factorial
from .series_ring import ThetaPoly

__all__ = [
    "ShiftMonomial",
    "ShiftOperatorPoly",
    "apply_pair_operator",
    "interaction_expansion",
    "prefactor_expansion",
]


@dataclass(frozen=True)
class ShiftMonomial:
    """coeff * T_i^raise_i * T_j^(-lower_j): total raise on i, lowering on j."""

    coeff: Fraction
    raise_i: int
    lower_j: int


@dataclass(frozen=True)
class ShiftOperatorPoly:
    """Formal sum of shift monomials; at most one term per (raise, lower) pair."""

    terms: tuple

    def __post_init__(self):
        seen = set()
        for t in self.terms:
            key = (t.raise_i, t.lower_j)
            if key in seen:
                raise ValueError(f"ShiftOperatorPoly: duplicate term at {key}")
            seen.add(key)

    def coefficient(self, raise_i: int, lower_j: int):
        for t in self.terms:
            if t.raise_i == raise_i and t.lower_j == lower_j:
                return t.coeff
        return 0

    @cached_property
    def _kernel_table(self):
        """The coefficients as ints for apply_pair_operator, built on first use.

        A tuple (amax, columns, raises): columns[b][amax - a] is the (a, b)
        coefficient, reversed in a so that the first convolution stage is a
        slice dot product; raises[b] lists every a with a term (a, b), zero
        coefficients included.
        """
        amax = max((t.raise_i for t in self.terms), default=0)
        nb = max((t.lower_j for t in self.terms), default=-1) + 1
        columns = [[0] * (amax + 1) for _ in range(nb)]
        raises = [[] for _ in range(nb)]
        for t in self.terms:
            a, b, c = t.raise_i, t.lower_j, t.coeff
            if a < 0 or b < 0:
                raise ValueError(f"apply_pair_operator: negative shift ({a}, {b})")
            if c.denominator != 1:
                raise ValueError(
                    f"apply_pair_operator: operator coefficient {c} at ({a}, {b}) is not integral"
                )
            columns[b][amax - a] = c.numerator
            raises[b].append(a)
        return amax, columns, raises


@lru_cache(maxsize=None)
def prefactor_expansion(s: int, cap: int) -> tuple:
    """T^0..T^cap coefficients of (1 + T)^s / (2 + T), the beta = -1 prefactor.

    The v-th coefficient is abel_coefficient(s, v). For general beta it is
    (-beta)^v times that (see the module docstring).
    """
    if cap < 0:
        raise ValueError(f"prefactor_expansion: cap must be nonnegative, got {cap}")
    return tuple(abel_coefficient(s, v) for v in range(cap + 1))


@lru_cache(maxsize=None)
def interaction_expansion(cap: int) -> ShiftOperatorPoly:
    """Shift-monomial expansion of (1 - R) / (1 + R + T_i), the beta = -1 interaction.

    Writing a for the total raise on the first index and b for the lowering
    on the second (b <= a; other coefficients vanish), the general-beta
    coefficient is

        (-1)^b * (binom(a, b) + binom(a-1, b-1)) * beta^(a-b)

    with the binom(a-1, b-1) term absent at b = 0. At beta = -1 this is the
    alternating (-1)^a * (binom(a, b) + binom(a-1, b-1)) returned here.
    """
    if cap < 0:
        raise ValueError(f"interaction_expansion: cap must be nonnegative, got {cap}")
    terms = []
    for a in range(cap + 1):
        for b in range(a + 1):
            base = binom_gen(a, b)
            if b >= 1:
                base += binom_gen(a - 1, b - 1)
            if base == 0:
                continue
            terms.append(ShiftMonomial(Fraction(base if a % 2 == 0 else -base), a, b))
    return ShiftOperatorPoly(tuple(terms))


def _scaled_prefactors(prefactors, cap: int):
    """Ints 2^(cap+1) * P[v] for v <= cap, and the bitmask of v with P[v] nonzero."""
    scale = 2 ** (cap + 1)
    ints, support = [], 0
    for v, c in enumerate(prefactors):
        if v > cap:
            break
        num, rem = divmod(c.numerator * scale, c.denominator)
        if rem:
            raise ValueError(
                f"apply_pair_operator: prefactor coefficient {c} at T^{v} "
                f"does not become integral when scaled by 2^{cap + 1}"
            )
        ints.append(num)
        if c:
            support |= 1 << v
    return ints, support


@lru_cache(maxsize=None)
def _pair_weights(cap: int):
    """Rows cap! / (ii! * jj!) over ii + jj <= cap, and the scale 4^(cap+1) * cap!."""
    top = factorial(cap)
    rows = tuple(
        tuple(top // (factorial(ii) * factorial(jj)) for jj in range(cap + 1 - ii))
        for ii in range(cap + 1)
    )
    return rows, 4 ** (cap + 1) * top


def apply_pair_operator(op: ShiftOperatorPoly, base, prefactors_i, prefactors_j, cap: int) -> ThetaPoly:
    """Act with the operator and both prefactor series on d(base_i) d(base_j).

    base is the pair of starting indices. Each combination of prefactor
    shifts (v_i, v_j) and an operator term (a, b) contributes

        pre_i[v_i] * pre_j[v_j] * coeff * d(base_i + v_i + a) * d(base_j + v_j - b)

    where shifted second indices below zero contribute exactly 0 and total
    degrees above the cap are discarded.

    The sum is taken in two O(cap^3) convolution stages, first the i-side
    prefactor into the interaction raise, then the result into the j-side
    lowering, over ints scaled by 4^(cap+1) * cap! (see the module
    docstring). Degrees that no term reaches stay int 0; reached ones are a
    Fraction even when their terms cancel. Raises ValueError on negative
    bases, on prefactor coefficients whose denominators do not divide
    2^(cap+1) and on non-integral operator coefficients. A class of l parts
    costs O(l^2 * cap^3) this way.
    """
    li, lj = base
    if li < 0 or lj < 0:
        raise ValueError(f"apply_pair_operator: negative base indices ({li}, {lj})")
    amax, columns, raises_by_b = op._kernel_table
    pi, si = _scaled_prefactors(prefactors_i, cap)
    pj, sj = _scaled_prefactors(prefactors_j, cap)
    weights, scale = _pair_weights(cap)

    # stage 1: q[x][b] = sum_{v_i + a = x} P_i[v_i] * I[a][b], for ii = li + x <= cap
    q = []
    for x in range(cap - li + 1):
        lo, hi = max(0, x - amax), min(x, len(pi) - 1) + 1
        off = amax - x
        q.append([sum(map(mul, pi[lo:hi], col[off + lo : off + hi])) for col in columns])

    # stage 2: E[ii][jj] = sum_b q[ii - li][b] * P_j[jj - lj + b], weighted into ii + jj
    acc = [0] * (cap + 1)
    nb, npj = len(columns), len(pj)
    for x, qx in enumerate(q):
        ii = li + x
        row = weights[ii]
        for jj in range(cap - ii + 1):
            k = jj - lj
            blo, bhi = max(0, -k), min(nb, npj - k)
            if blo < bhi:
                e = sum(map(mul, qx[blo:bhi], pj[k + blo : k + bhi]))
                if e:
                    acc[ii + jj] += e * row[jj]

    # degrees some term reaches, zero coefficients included: bit d of reach
    reach = 0
    for b, raises in enumerate(raises_by_b):
        xb = 0  # bit x set when some v_i + a = x with (a, b) a term
        for a in raises:
            xb |= si << a
        if xb:
            for vj in range(max(0, b - lj), npj):
                if sj >> vj & 1:
                    reach |= xb << (li + lj + vj - b)

    out = [0] * (cap + 1)
    for d in range(cap + 1):
        if reach >> d & 1:
            out[d] = Fraction(acc[d], scale)
    return ThetaPoly(cap, out)
