"""Pfaffians of skew-symmetric matrices over exact coefficient rings.

Entries of the two Pfaffian engines may be Fractions or any values
supporting +, unary -, * and multiplication by Fraction (truncated
polynomials in particular); the engines never look inside an entry.
Entries must also accept 0 + entry: both engines start their running
totals at the int 0, and so does sum().

Two independent evaluation routes are provided: the expansion along the
first index, which computes each sub-Pfaffian once and is the production
path, and the normalized sum over all n! permutations, which shares no
code with it and serves selfcheck and the tests as an independent engine.
A fraction-free determinant gives a third cross-check through
Pf(M)^2 == det(M).

Both engines recurse through module functions that take their working
state as arguments (_sub_pfaffian, _permutation_walk): a nested function
calling itself is a reference cycle, which would keep the memo of
sub-Pfaffians, or the grid and the running totals, alive after the call
until the next garbage collection. So each call's working set is freed
when it returns, by reference counting, and on an exception as well.

The permutation sum walks the n! arrangements depth first, one ordered pair
per level: it takes the p-th smallest remaining index, then the q-th
smallest of those left after it. That choice adds exactly p + q inversions,
so the sign is carried down as one parity bit, and the product of the
ordered prefix is carried down with it. Each permutation still adds its own
term, read from the matrix entries at (x, y) and (y, x) alike, into the
running total of its parity, and the odd total is negated once at the end;
nothing is merged through skew-symmetry, no entry or product is stored per
set of used indices, and nothing is factored across permutations. The last
three levels run as C-level products: when six indices remain (four at
n = 4), the tail's sub-grid is read once, and itemgetters planned once per
process and tail size (_tail_plan) give its ordered first pairs, the
second pairs after each, and after each (first, second) node the leaf that
keeps and the leaf that flips the parity; the prefix times the first
pairs is one list comprehension, the second level one map(mul, ...) and
each parity total one sum(map(mul, ...)).

Matrices whose every entry is an int or a Fraction (exact_arith._exact)
are put over one common denominator D first, the lcm of the entry
denominators: the permutation walk and the Bareiss elimination then run on
the ints D * entry, and D^(n/2) (for the Pfaffian) or D^n (for the
determinant) is divided out in the one final Fraction. The determinant
takes only ints and Fractions, never a bool, and reads their numerators
and denominators without converting them. The first-index expansion
walks the entries as they are, straight from the stored upper triangle:
every index tuple it expands is increasing.

A SkewMatrix is built once and whole, from one callable giving every entry
of its strict upper triangle, and every entry it holds is stored: nothing
reads as a default. An odd-size system is its caller's to close: the class
routes of prym_bn build theirs at even size, boundary index last.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, lcm
from operator import itemgetter, mul

from .exact_arith import _exact, _strict_int

__all__ = [
    "SkewMatrix",
    "det_fraction_free",
    "pfaffian_matchings",
    "pfaffian_permutations",
]


class SkewMatrix:
    """Square skew-symmetric matrix storing its whole strict upper triangle.

    SkewMatrix(n, entry) calls entry(i, j) once for every i < j, row by row
    (i, then j, increasing), and stores each value; n is an integer >= 0,
    by exact_arith._strict_int's rule, or ValidationError is raised. The
    method entry(i, j) returns the stored value for i < j, its negation
    for i > j and the int 0 on the diagonal, so skew-symmetry holds by
    construction.
    """

    __slots__ = ("_n", "_upper")

    def __init__(self, n: int, entry):
        self._n = n = _strict_int(n, "SkewMatrix: size", 0)
        self._upper = {(i, j): entry(i, j) for i in range(n) for j in range(i + 1, n)}

    @property
    def n(self) -> int:
        return self._n

    def entry(self, i: int, j: int):
        if not (0 <= i < self._n and 0 <= j < self._n):
            raise IndexError(f"SkewMatrix: index ({i}, {j}) out of range")
        if i == j:
            return 0
        if i < j:
            return self._upper[i, j]
        return -self._upper[j, i]

    def rows(self):
        """Full grid as a list of lists (diagonal entries are int 0), read
        straight from the stored triangle, as entry(i, j) reads it."""
        n, upper = self._n, self._upper
        return [[upper[i, j] if i < j else -upper[j, i] if i > j else 0 for j in range(n)] for i in range(n)]


def pfaffian_matchings(m: SkewMatrix):
    """Pfaffian by expansion along the first index, each sub-Pfaffian once.

    For an increasing index tuple S = (s_0, ..., s_(2r-1)),

        Pf(S) = sum over k = 1..2r-1 of (-1)^(k-1) * a(s_0, s_k) * Pf(S - {s_0, s_k}),

    with Pf(()) = 1 and Pf((i, j)) the entry a(i, j) itself. The
    sub-Pfaffians are memoised on their index tuples for the one call, and
    the memo is freed when the call returns, by reference counting: no
    reference cycle holds it. Each sub-Pfaffian is expanded once: a size n
    matrix takes
    sum over k = 0..n/2-2 of C(n-k, k) * (n-2k-1) products, 87 at n = 8
    and 1,055 at n = 12, where the (n-1)!! matchings hold 315 and 51,975
    (Rote, "Division-free algorithms for the determinant and the
    Pfaffian", 2001). Expanded out it is still the signed sum over perfect
    matchings, each term's factors in the order of their first indices.

    Every index tuple it expands is increasing, so every entry it reads,
    a(s_0, s_k) and the last pair, lies in the stored upper triangle: it
    reads m's stored values directly.
    """
    if m.n % 2:
        raise ValueError(f"pfaffian: size must be even, got {m.n}")
    return _sub_pfaffian(tuple(range(m.n)), m._upper, {(): 1})


def _sub_pfaffian(s, upper, memo):
    """Pf of the increasing index tuple s, of even length, from the stored
    triangle upper, expanded along s[0]; memo maps () to 1 and each tuple
    expanded so far to its Pfaffian. It takes its state as arguments, so
    no reference cycle holds the memo (see the module docstring)."""
    if len(s) == 2:
        return upper[s]
    if s not in memo:
        first, rest = s[0], s[1:]
        total = 0
        for k, partner in enumerate(rest):
            term = upper[first, partner] * _sub_pfaffian(rest[:k] + rest[k + 1 :], upper, memo)
            total = total + (-term if k % 2 else term)
        memo[s] = total
    return memo[s]


def perm_sign(seq) -> int:
    """Sign of the permutation given as an arrangement of distinct comparables.

    No route calls it, and it is not exported: the engines carry their
    signs as they walk, and so does the theorem route's matching walk. The
    tests' flat n! references sign with it, and the benchmark's tracer
    wraps it by name, until ROADMAP items 1b and 6.
    """
    seq = tuple(seq)
    inversions = 0
    for idx, x in enumerate(seq):
        for y in seq[idx + 1 :]:
            if y < x:
                inversions += 1
    return -1 if inversions % 2 else 1


@cache
def _tail_plan(k):
    """Itemgetters that run the last k/2 levels of the permutation walk.

    They read the row-major k x k sub-grid of a k-index tail, at tail-local
    positions (k = 4 or 6): first, the k(k-1) ordered first pairs (x, y);
    then, for k = 6, one (repeat, second) stage whose repeat getter gives
    each first pair's product once per second pair (u, v) after it, and
    whose second getter gives those 360 pairs; last, after each node of the
    deepest stage, the leaf that keeps and the leaf that flips the prefix's
    parity, at the node's own index. A node's parity is that of the p + q
    of its pairs, relative to the prefix's, and the leaf (u, v) adds 0 to
    it and (v, u) adds 1.
    """
    level = [(0, tuple(range(k)))]  # per node: parity and the unused indices
    stages = []
    for _ in range(k // 2 - 1):
        parents, pairs, below = [], [], []
        for node, (odd, left) in enumerate(level):
            for p, x in enumerate(left):
                rest = left[:p] + left[p + 1 :]
                for q, y in enumerate(rest):
                    parents.append(node)
                    pairs.append(x * k + y)
                    below.append((odd ^ ((p + q) & 1), rest[:q] + rest[q + 1 :]))
        stages.append((itemgetter(*parents), itemgetter(*pairs)))
        level = below
    keep = itemgetter(*(v * k + u if odd else u * k + v for odd, (u, v) in level))
    flip = itemgetter(*(u * k + v if odd else v * k + u for odd, (u, v) in level))
    return stages[0][1], stages[1:], keep, flip


def pfaffian_permutations(m: SkewMatrix):
    """Pfaffian as (1 / (2^(n/2) (n/2)!)) sum over all of S_n.

    The permutations are generated as sequences of ordered pairs (x, y):
    at each level x is the p-th smallest index not yet used and y the q-th
    smallest of those left after x, so the level adds p + q inversions and
    the sign is the parity of the sum of all p + q. The product of the
    entries of the pairs chosen so far is carried to the next level, so each
    of the n! permutations costs one multiplication and one addition into
    the running total of its parity; the odd total is negated once at the
    end. Entries are read once, with m.rows(). The walk is the module
    function _permutation_walk, so the grid and the two running totals live
    for the one call and are freed when it returns.

    The walk stops when six indices are left (four at n = 4). It reads the
    tail's 6 x 6 sub-grid with one list comprehension and runs the last
    three levels through the tail plan of _tail_plan, built once per
    process: the prefix times each of the 30 first pairs, then
    map(mul, ...) of those into the 360 second pairs after them, then one
    sum(map(mul, ...)) per parity of the 360 nodes into their leaves.
    Every permutation of the tail still takes its own product and
    addition, as many as the walk takes one level at a time. n = 2 adds
    its two leaves directly.

    When every entry is an int or a Fraction, the grid is first put over
    one common denominator D (the lcm of the entry denominators) and the
    walk runs on the ints D * entry; every term is a product of n/2
    entries, so Pf(D M) = D^(n/2) Pf(M), and D^(n/2) is divided out
    together with the normalization in the one final Fraction. Other entry rings walk as they
    are; they must contain the rationals, as the normalization is applied
    as an exact Fraction scale.
    """
    if m.n % 2:
        raise ValueError(f"pfaffian: size must be even, got {m.n}")
    if m.n == 0:
        return 1
    n = m.n
    half = n // 2
    grid = m.rows()
    norm = (1 << half) * factorial(half)
    if all(_exact(e) for row in grid for e in row):
        den = lcm(*(e.denominator for row in grid for e in row))
        grid = [[e.numerator * (den // e.denominator) for e in row] for row in grid]
        norm *= den**half
    if n == 2:
        # the two leaves (0, 1) and (1, 0): p + q is 0 and 1
        return (grid[0][1] + -grid[1][0]) * Fraction(1, norm)
    totals = [0, 0]  # sums of the even and of the odd permutations' terms
    _permutation_walk(tuple(range(n)), None, 0, grid, _tail_plan(min(n, 6)), totals)
    even, odd = totals
    return (even + -odd) * Fraction(1, norm)


def _permutation_walk(left, prefix, odd, grid, plan, totals):
    """Add the terms of every permutation of the indices left, after the
    ordered prefix of parity odd, into totals[0] (even) and totals[1] (odd).

    left: tuple of the unused indices in increasing order, of even length
    four or more; prefix: the product of the pairs chosen so far, None at
    the top. The walk stops at six indices (four when it starts at four)
    and runs the tail through plan, _tail_plan of that size. It takes its
    state as arguments, so no reference cycle holds the grid or the totals
    (see the module docstring).
    """
    if len(left) <= 6:
        first, stages, keep, flip = plan
        sub = [grid[x][y] for x in left for y in left]
        nodes = first(sub)
        if prefix is not None:
            nodes = [prefix * e for e in nodes]
        for repeat, pairs in stages:
            nodes = list(map(mul, repeat(nodes), pairs(sub)))
        totals[odd] = totals[odd] + sum(map(mul, nodes, keep(sub)))
        totals[odd ^ 1] = totals[odd ^ 1] + sum(map(mul, nodes, flip(sub)))
        return
    for p, x in enumerate(left):
        rest = left[:p] + left[p + 1 :]
        row = grid[x]
        for q, y in enumerate(rest):
            term = row[y] if prefix is None else prefix * row[y]
            _permutation_walk(rest[:q] + rest[q + 1 :], term, odd ^ ((p + q) & 1), grid, plan, totals)


def det_fraction_free(rows) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination, exact throughout.

    Entries must be ints or Fractions, by exact_arith._exact. Their
    numerators and denominators are read as they are, and any other entry,
    such as the str "1/2", the float 0.5, a Decimal or a bool, raises
    TypeError naming it; nothing is converted. The entries are put over
    one common denominator D (the lcm of their denominators) and the
    elimination runs on the ints D * entry. Every Bareiss quotient is
    exact, so each step divides with divmod and a nonzero remainder raises
    ArithmeticError; det(D A) = D^n det(A), and D^n is divided out in the
    one final Fraction.

    Independent of both Pfaffian routes; used as the Pf(M)^2 == det(M)
    cross-check oracle.
    """
    a = [list(row) for row in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("det_fraction_free: grid is not square")
    bad = [x for row in a for x in row if not _exact(x)]
    if bad:
        raise TypeError(f"det_fraction_free: entry {bad[0]!r} is not an int or a Fraction")
    if n == 0:
        return Fraction(1)
    den = lcm(*(x.denominator for row in a for x in row))
    a = [[x.numerator * (den // x.denominator) for x in row] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot, pivot_row = a[k][k], a[k]
        for i in range(k + 1, n):
            row, lead = a[i], a[i][k]
            for j in range(k + 1, n):
                quot, rem = divmod(row[j] * pivot - lead * pivot_row[j], prev)
                if rem:
                    raise ArithmeticError("det_fraction_free: inexact Bareiss step")
                row[j] = quot
        prev = pivot
    return Fraction(sign * a[n - 1][n - 1], den**n)
