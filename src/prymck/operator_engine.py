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

Both series are expanded here into shift monomials with exact rational (or
beta-polynomial) coefficients, truncated by the total degree cap of the
target ring. Three coefficient modes are supported: the two anchored
specializations beta = 0 and beta = -1, whose expansions are written
directly in their classical forms, and a symbolic mode that keeps beta as
a polynomial variable. The symbolic mode uses the same plain-T convention
as the specializations (no index-dependent sign twist on T); outputs built
from it are flagged as using the engine convention.

apply_pair_operator builds an entry from the expansions with one integer
kernel in all three modes. With P_i, P_j the prefactor coefficients, I[a][b]
the interaction coefficient of raise a and lowering b and (l_i, l_j) the
base indices, the degree-d coefficient of the entry is

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
ii + jj <= cap. Only one Fraction is built per output degree.

The symbolic mode runs through the same kernel because every entry is
homogeneous: the T^v prefactor coefficient is a rational multiple of
beta^v and the interaction coefficient of (a, b) one of beta^(a-b), so the
degree-d coefficient of the entry is a rational multiple of
beta^(d - l_i - l_j). This is beta of degree -1 against theta' of degree 1,
the grading of the connective K-theory Pfaffian formulas. The kernel works
on the rational parts and attaches the power of beta to each output degree.
Inputs that break the integral scaling or the homogeneity raise ValueError.

A class with l nonzero parts has l(l-1)/2 entries, so its entries cost
O(l^2 * cap^3) integer operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from .exact_arith import abel_coefficient, binom_gen, factorial
from .series_ring import BetaPoly, ThetaPoly

__all__ = [
    "SYMBOLIC",
    "ShiftMonomial",
    "ShiftOperatorPoly",
    "apply_pair_operator",
    "interaction_expansion",
    "prefactor_expansion",
]

SYMBOLIC = "symbolic"
_BETA_MODES = (0, -1, SYMBOLIC)


def _check_mode(beta_mode):
    if beta_mode not in _BETA_MODES:
        raise ValueError(f"beta_mode must be one of {_BETA_MODES}, got {beta_mode!r}")


@dataclass(frozen=True)
class ShiftMonomial:
    """coeff * T_i^raise_i * T_j^(-lower_j): total raise on i, lowering on j."""

    coeff: object  # Fraction, or BetaPoly in symbolic mode
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

        A tuple (symbolic, amax, columns, raises): symbolic says the
        coefficients are BetaPoly values; columns[b][amax - a] is the
        rational part of the (a, b) coefficient, reversed in a so that the
        first convolution stage is a slice dot product; raises[b] lists
        every a with a term (a, b), zero coefficients included.
        """
        symbolic = any(isinstance(t.coeff, BetaPoly) for t in self.terms)
        amax = max((t.raise_i for t in self.terms), default=0)
        nb = max((t.lower_j for t in self.terms), default=-1) + 1
        columns = [[0] * (amax + 1) for _ in range(nb)]
        raises = [[] for _ in range(nb)]
        for t in self.terms:
            a, b, c = t.raise_i, t.lower_j, t.coeff
            if a < 0 or b < 0:
                raise ValueError(f"apply_pair_operator: negative shift ({a}, {b})")
            r = _beta_free_part(c, a - b, symbolic)
            if r.denominator != 1:
                raise ValueError(
                    f"apply_pair_operator: operator coefficient {c} at ({a}, {b}) is not integral"
                )
            columns[b][amax - a] = r.numerator
            raises[b].append(a)
        return symbolic, amax, columns, raises


@lru_cache(maxsize=None)
def prefactor_expansion(s: int, cap: int, beta_mode) -> tuple:
    """T^0..T^cap coefficients of (1 - beta*T)^s / (2 - beta*T).

    At beta = -1 the v-th coefficient is abel_coefficient(s, v); at beta = 0
    only the constant 1/2 survives; in symbolic mode the v-th coefficient is
    beta^v times sum_{j=0}^{v} (-1)^j binom_gen(s, j) / 2^(v+1-j).
    """
    _check_mode(beta_mode)
    if cap < 0:
        raise ValueError(f"prefactor_expansion: cap must be nonnegative, got {cap}")
    if beta_mode == 0:
        return (Fraction(1, 2),) + (Fraction(0),) * cap
    if beta_mode == -1:
        return tuple(abel_coefficient(s, v) for v in range(cap + 1))
    out = []
    for v in range(cap + 1):
        c = Fraction(0)
        for j in range(v + 1):
            term = Fraction(binom_gen(s, j), 2 ** (v + 1 - j))
            c += -term if j % 2 else term
        out.append(BetaPoly({v: c}))
    return tuple(out)


@lru_cache(maxsize=None)
def interaction_expansion(cap: int, beta_mode) -> ShiftOperatorPoly:
    """Shift-monomial expansion of (1 - R) / (1 + R - beta*T_i).

    Writing a for the total raise on the first index and b for the lowering
    on the second (b <= a; other coefficients vanish), the general
    coefficient is

        (-1)^b * (binom(a, b) + binom(a-1, b-1)) * beta^(a-b)

    with the binom(a-1, b-1) term absent at b = 0. At beta = -1 this is the
    alternating classical unfolding; at beta = 0 only the diagonal a == b
    survives: 1 at (0, 0) and 2*(-1)^a at (a, a).
    """
    _check_mode(beta_mode)
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
            if beta_mode == 0:
                if a != b:
                    continue
                coeff = Fraction(base if a % 2 == 0 else -base)
            elif beta_mode == -1:
                coeff = Fraction(base if a % 2 == 0 else -base)
            else:
                coeff = BetaPoly({a - b: Fraction(base if b % 2 == 0 else -base)})
            terms.append(ShiftMonomial(coeff, a, b))
    return ShiftOperatorPoly(tuple(terms))


def _beta_free_part(c, exp: int, symbolic: bool):
    """The rational r with c == r * beta^exp, or c itself at a fixed beta.

    Raises ValueError when c is a BetaPoly at a fixed beta or a rational in
    symbolic mode, or a BetaPoly other than a multiple of beta^exp.
    """
    if isinstance(c, BetaPoly) != symbolic:
        kind = "BetaPoly" if symbolic else "rational"
        raise ValueError(f"apply_pair_operator: coefficient {c!r} is not {kind} like the operator's")
    if not symbolic:
        return c
    items = c.items()
    if not items:
        return 0
    if len(items) == 1 and items[0][0] == exp:
        return items[0][1]
    raise ValueError(f"apply_pair_operator: coefficient {c} is not a rational multiple of beta^{exp}")


def _scaled_prefactors(prefactors, cap: int, symbolic: bool):
    """Ints 2^(cap+1) * P[v] for v <= cap, and the bitmask of v with P[v] nonzero."""
    scale = 2 ** (cap + 1)
    ints, support = [], 0
    for v, c in enumerate(prefactors):
        if v > cap:
            break
        r = _beta_free_part(c, v, symbolic)
        num, rem = divmod(r.numerator * scale, r.denominator)
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
    docstring). The coefficients are all rationals or all BetaPoly values;
    in the symbolic case each prefactor coefficient must be a rational
    multiple of beta^v and each operator coefficient one of beta^(a-b), and
    degree d of the result is a rational multiple of beta^(d - base_i - base_j).
    Degrees that no term reaches stay int 0; reached ones are a Fraction or
    a BetaPoly even when their terms cancel. Raises ValueError on negative
    bases, on prefactor coefficients whose denominators do not divide
    2^(cap+1), on non-integral operator coefficients, on mixed coefficient
    kinds and on symbolic inputs of another beta-degree. A class of l parts
    costs O(l^2 * cap^3) this way.
    """
    li, lj = base
    if li < 0 or lj < 0:
        raise ValueError(f"apply_pair_operator: negative base indices ({li}, {lj})")
    symbolic, amax, columns, raises_by_b = op._kernel_table
    pi, si = _scaled_prefactors(prefactors_i, cap, symbolic)
    pj, sj = _scaled_prefactors(prefactors_j, cap, symbolic)
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
            val = Fraction(acc[d], scale)
            if symbolic:
                val = BetaPoly({d - li - lj: val}) if val else BetaPoly()
            out[d] = val
    return ThetaPoly(cap, out)
