"""Pfaffians of skew-symmetric matrices over exact coefficient rings.

Entries may be Fractions or any values supporting +, unary -, * and
multiplication by Fraction (truncated polynomials in particular); the
algorithms never look inside an entry.

Two independent evaluation routes are provided: the signed perfect-matching
expansion with (n-1)!! terms, which is the production path, and the
normalized sum over all n! permutations, which shares no code with it and
serves selfcheck and the tests as an independent engine. A fraction-free
determinant gives a third cross-check through Pf(M)^2 == det(M).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exact_arith import factorial

__all__ = [
    "SkewMatrix",
    "augment_odd",
    "det_fraction_free",
    "perm_sign",
    "pfaffian_matchings",
    "pfaffian_permutations",
]


class SkewMatrix:
    """Square skew-symmetric matrix storing only the strict upper triangle.

    entry(i, j) returns the stored value for i < j, its negation for i > j
    and the int 0 on the diagonal, so skew-symmetry holds by construction.
    """

    __slots__ = ("_n", "_upper")

    def __init__(self, n: int, upper):
        if n < 0:
            raise ValueError(f"SkewMatrix: size must be nonnegative, got {n}")
        data = {}
        for (i, j), val in dict(upper).items():
            if not (0 <= i < j < n):
                raise ValueError(f"SkewMatrix: bad upper-triangle index ({i}, {j})")
            data[(i, j)] = val
        self._n = n
        self._upper = data

    @classmethod
    def from_rows(cls, rows) -> "SkewMatrix":
        """Build from a full square grid, validating skew-symmetry."""
        rows = [list(r) for r in rows]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("SkewMatrix.from_rows: grid is not square")
        upper = {}
        for i in range(n):
            if rows[i][i]:
                raise ValueError(f"SkewMatrix.from_rows: nonzero diagonal at {i}")
            for j in range(i + 1, n):
                if not (rows[j][i] == -rows[i][j]):
                    raise ValueError(
                        f"SkewMatrix.from_rows: entries ({i},{j}) and ({j},{i}) "
                        "are not skew"
                    )
                upper[(i, j)] = rows[i][j]
        return cls(n, upper)

    @classmethod
    def from_upper(cls, n: int, fn) -> "SkewMatrix":
        """Build from a callable giving the entry at (i, j) for i < j."""
        return cls(n, {(i, j): fn(i, j) for i in range(n) for j in range(i + 1, n)})

    @property
    def n(self) -> int:
        return self._n

    def entry(self, i: int, j: int):
        if not (0 <= i < self._n and 0 <= j < self._n):
            raise IndexError(f"SkewMatrix: index ({i}, {j}) out of range")
        if i == j:
            return 0
        if i < j:
            return self._upper.get((i, j), 0)
        return -self._upper.get((j, i), 0)

    def rows(self):
        """Full grid as a list of lists (diagonal entries are int 0)."""
        return [[self.entry(i, j) for j in range(self._n)] for i in range(self._n)]


def augment_odd(m: SkewMatrix, row0) -> SkewMatrix:
    """Prepend a boundary index 0 with the given first row.

    The result has size m.n + 1 with entries (0, j+1) taken from row0 and
    the old matrix shifted to indices 1..m.n. Used to evaluate Pfaffians of
    odd-size systems.
    """
    row0 = list(row0)
    if len(row0) != m.n:
        raise ValueError(f"augment_odd: row0 has length {len(row0)}, expected {m.n}")
    upper = {(0, j + 1): val for j, val in enumerate(row0)}
    for i in range(m.n):
        for j in range(i + 1, m.n):
            upper[(i + 1, j + 1)] = m.entry(i, j)
    return SkewMatrix(m.n + 1, upper)


def _signed_pairings(indices):
    # yields (sign, pairs) over all perfect matchings of the index tuple
    if not indices:
        yield 1, ()
        return
    first, rest = indices[0], indices[1:]
    for pos in range(len(rest)):
        partner = rest[pos]
        remaining = rest[:pos] + rest[pos + 1 :]
        pos_sign = -1 if pos % 2 else 1
        for sign, pairs in _signed_pairings(remaining):
            yield pos_sign * sign, ((first, partner),) + pairs


def pfaffian_matchings(m: SkewMatrix):
    """Pfaffian as the signed sum over perfect matchings."""
    if m.n % 2:
        raise ValueError(f"pfaffian: size must be even, got {m.n}")
    if m.n == 0:
        return 1
    total = 0
    for sign, pairs in _signed_pairings(tuple(range(m.n))):
        term = m.entry(*pairs[0])
        for i, j in pairs[1:]:
            term = term * m.entry(i, j)
        total = total + (term if sign > 0 else -term)
    return total


def perm_sign(seq) -> int:
    """Sign of the permutation given as an arrangement of distinct comparables."""
    seq = tuple(seq)
    inversions = 0
    for idx, x in enumerate(seq):
        for y in seq[idx + 1 :]:
            if y < x:
                inversions += 1
    return -1 if inversions % 2 else 1


def pfaffian_permutations(m: SkewMatrix):
    """Pfaffian as (1 / (2^(n/2) (n/2)!)) sum over all of S_n.

    Requires the coefficient ring to contain the rationals; the
    normalization is applied as an exact Fraction scale.
    """
    if m.n % 2:
        raise ValueError(f"pfaffian: size must be even, got {m.n}")
    if m.n == 0:
        return 1
    half = m.n // 2
    total = 0
    for sigma in itertools.permutations(range(m.n)):
        term = m.entry(sigma[0], sigma[1])
        for b in range(1, half):
            term = term * m.entry(sigma[2 * b], sigma[2 * b + 1])
        total = total + (term if perm_sign(sigma) > 0 else -term)
    return total * Fraction(1, (1 << half) * factorial(half))


def det_fraction_free(rows) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination, exact throughout.

    Independent of both Pfaffian routes; used as the Pf(M)^2 == det(M)
    cross-check oracle.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("det_fraction_free: grid is not square")
    if n == 0:
        return Fraction(1)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if not a[k][k]:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
