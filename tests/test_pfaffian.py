import gc
import itertools
import random
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from prymck import cli, prym_bn, selfcheck
from prymck.pfaffian import (
    SkewMatrix,
    det_fraction_free,
    perm_sign,
    pfaffian_matchings,
    pfaffian_permutations,
)
from prymck.series_ring import ThetaPoly


def random_skew(rng, n, den=4):
    return SkewMatrix(n, lambda i, j: Fraction(rng.randint(-9, 9), rng.randint(1, den)))


def stored(n, upper):
    """The n x n matrix whose strict upper triangle is the dict upper."""
    return SkewMatrix(n, lambda i, j: upper[i, j])


def prime_skew(n):
    """The n x n matrix with a distinct prime at each upper cell, row by row."""
    primes = iter(PRIMES)
    return SkewMatrix(n, lambda i, j: next(primes))


def bordered(inner, boundary, last=True):
    """inner with one more index holding boundary[j] against inner's index j:
    last, at (j, n), or first, at (0, j + 1)."""
    n = inner.n
    if last:
        return SkewMatrix(n + 1, lambda i, j: boundary[i] if j == n else inner.entry(i, j))
    return SkewMatrix(n + 1, lambda i, j: boundary[j - 1] if i == 0 else inner.entry(i - 1, j - 1))


def reference_pfaffian_permutations(m):
    """The flat n! sum: every arrangement signed by perm_sign from scratch."""
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


PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
    47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107,
)


class Terms:
    """Formal sum of signed words of matrix positions, never merged or cancelled.

    A stored entry (i, j), i < j, is the one-letter word ((i, j),); its
    negation, which SkewMatrix returns at (j, i), keeps the letter and flips
    the coefficient. Sums concatenate the term lists and products multiply
    them out term by term, so the total of a Pfaffian engine lists every
    term it added, with the positions of its factors in order.
    """

    def __init__(self, terms):
        self.terms = tuple(terms)

    @classmethod
    def letter(cls, i, j):
        return cls([(Fraction(1), ((i, j),))])

    def __neg__(self):
        return Terms((-c, w) for c, w in self.terms)

    def __add__(self, other):
        if isinstance(other, int) and other == 0:
            return self
        return Terms(self.terms + other.terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, Terms):
            return Terms((c * d, w + v) for c, w in self.terms for d, v in other.terms)
        return Terms((c * other, w) for c, w in self.terms)


class Support:
    """Entry ring that keeps only the set of indices a value covers, and logs
    each product as the pair of its factors' sets, so an engine's log lists
    the products it took."""

    def __init__(self, indices, log):
        self.indices, self.log = frozenset(indices), log

    def __neg__(self):
        return self

    def __add__(self, other):
        if isinstance(other, int) and other == 0:
            return self
        assert other.indices == self.indices
        return self

    __radd__ = __add__

    def __mul__(self, other):
        self.log.append((self.indices, other.indices))
        return Support(self.indices | other.indices, self.log)


def test_two_by_two():
    a = Fraction(7, 3)
    m = SkewMatrix(2, lambda i, j: a)
    assert pfaffian_matchings(m) == a
    assert pfaffian_permutations(m) == a


def test_four_by_four_textbook_expansion():
    # distinct primes so every matching is distinguishable
    vals = {(0, 1): 2, (0, 2): 3, (0, 3): 5, (1, 2): 7, (1, 3): 11, (2, 3): 13}
    m = SkewMatrix(4, lambda i, j: Fraction(vals[i, j]))
    expected = Fraction(2 * 13 - 3 * 11 + 5 * 7)
    assert pfaffian_matchings(m) == expected
    assert pfaffian_permutations(m) == expected


def test_odd_size_rejected():
    m = SkewMatrix(3, lambda i, j: Fraction(1))
    with pytest.raises(ValueError):
        pfaffian_matchings(m)
    with pytest.raises(ValueError):
        pfaffian_permutations(m)


def test_empty_matrix():
    m = SkewMatrix(0, lambda i, j: Fraction(1))
    assert pfaffian_matchings(m) == 1
    assert pfaffian_permutations(m) == 1


def test_engines_agree_random():
    rng = random.Random(1234)
    for n in (2, 4, 6, 8):
        for _ in range(3):
            m = random_skew(rng, n)
            assert pfaffian_matchings(m) == pfaffian_permutations(m)


def test_pfaffian_squared_is_determinant():
    rng = random.Random(4321)
    for n in (2, 4, 6):
        for _ in range(5):
            m = random_skew(rng, n)
            pf = pfaffian_matchings(m)
            assert pf * pf == det_fraction_free(m.rows())


def test_odd_size_det_is_zero():
    rng = random.Random(99)
    for n in (3, 5):
        m = random_skew(rng, n)
        assert det_fraction_free(m.rows()) == 0


def swapped(m, i, j):
    """m with rows and columns i and j exchanged simultaneously."""
    perm = list(range(m.n))
    perm[i], perm[j] = perm[j], perm[i]
    return SkewMatrix(m.n, lambda a, b: m.entry(perm[a], perm[b]))


def test_row_swap_antisymmetry():
    rng = random.Random(777)
    for n in (2, 4, 6):
        m = random_skew(rng, n)
        for i in range(n):
            for j in range(i + 1, n):
                assert pfaffian_matchings(swapped(m, i, j)) == -pfaffian_matchings(m)


def test_constructor_calls_entry_once_per_upper_cell_row_major():
    # selfcheck's seeded random matrices draw their entries in this order
    for n in range(7):
        calls = []
        m = SkewMatrix(n, lambda i, j: calls.append((i, j)) or Fraction(i + 1, j + 1))
        assert calls == [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert m.rows() == [
            [0 if i == j else Fraction(i + 1, j + 1) if i < j else -Fraction(j + 1, i + 1) for j in range(n)]
            for i in range(n)
        ]


def test_augment_single():
    # a one-part system: the boundary index 1 alone against index 0
    a = Fraction(5, 2)
    m = bordered(SkewMatrix(1, lambda i, j: 0), [a])
    assert m.n == 2
    assert pfaffian_matchings(m) == a


def test_augment_three():
    m12, m13, m23 = Fraction(2), Fraction(3), Fraction(5)
    inner = stored(3, {(0, 1): m12, (0, 2): m13, (1, 2): m23})
    a, b, c = Fraction(7), Fraction(11), Fraction(13)
    m = bordered(inner, [a, b, c])
    assert m.rows()[3] == [-a, -b, -c, 0]
    assert pfaffian_matchings(m) == a * m23 - b * m13 + c * m12


def test_augment_with_first_row_is_singular():
    # repeating the inner first row as the boundary column makes that
    # column the negated first column
    rng = random.Random(2718)
    for _ in range(5):
        inner = random_skew(rng, 3)
        m = bordered(inner, [inner.entry(0, j) for j in range(3)])
        assert pfaffian_matchings(m) == 0
        assert det_fraction_free(m.rows()) == 0


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_boundary_last_has_the_boundary_first_pfaffian(n):
    # moving the boundary index from first to last is an odd permutation of
    # n + 1 indices, and storing its values at (j, n) rather than (n, j)
    # negates that row and column: the two signs cancel, in either engine
    rng = random.Random(3030 + n)
    inner = random_skew(rng, n, den=5)
    boundary = [Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 5)) for _ in range(n)]
    first, last = bordered(inner, boundary, last=False), bordered(inner, boundary)
    pf = pfaffian_matchings(first)
    assert pf != 0
    assert pfaffian_matchings(last) == pf
    assert pfaffian_permutations(last) == pfaffian_permutations(first) == pf


def test_matching_engine_reads_the_stored_triangle(monkeypatch):
    # pfaffian_matchings reads the stored upper triangle without entry():
    # on seeded int and Fraction matrices, and on the matrices of both class
    # routes, the values are those taken through entry()
    rng = random.Random(4242)
    even = [SkewMatrix(n, lambda i, j: rng.randint(-9, 9)) for n in (2, 4, 6, 8)]
    even += [random_skew(rng, n) for n in (2, 4, 6, 8)]
    partitions = list(prym_bn.strict_partitions(45, 5, 9))
    problems = selfcheck._suite_problems(7)

    def values():
        return (
            [pfaffian_matchings(m) for m in even],
            [prym_bn.chow_class_pfaffian(lam) for lam in partitions],
            [prym_bn.ch_k_class(p) for p in problems],
        )

    want = values()

    def refuse(self, i, j):
        raise AssertionError(f"entry({i}, {j}) read")

    monkeypatch.setattr(SkewMatrix, "entry", refuse)
    assert values() == want


@pytest.mark.parametrize("bad", ["1/2", 0.5, Decimal("0.5")], ids=["str", "float", "Decimal"])
def test_det_refuses_entries_that_are_not_int_or_fraction(bad):
    # Fraction() would take each of them; the determinant converts nothing
    with pytest.raises(TypeError, match=re.escape(f"entry {bad!r} is not an int or a Fraction")):
        det_fraction_free([[Fraction(1, 3), 2], [bad, -1]])


def test_proportional_rows_give_zero():
    # skew matrix with row 1 = 2 * row 0 (forces the (0,1) entry to be 0)
    c = Fraction(2)
    base = {(0, 2): Fraction(3), (0, 3): Fraction(5)}
    upper = dict(base)
    upper[(0, 1)] = Fraction(0)
    upper[(1, 2)] = c * base[(0, 2)]
    upper[(1, 3)] = c * base[(0, 3)]
    upper[(2, 3)] = Fraction(7)
    m = stored(4, upper)
    pf = pfaffian_matchings(m)
    assert det_fraction_free(m.rows()) == 0
    assert pf * pf == 0


@given(st.permutations(list(range(6))))
def test_perm_sign_multiplies_by_transpositions(p):
    # applying one more transposition flips the sign
    q = list(p)
    q[0], q[1] = q[1], q[0]
    assert perm_sign(q) == -perm_sign(p)


def test_perm_sign_basics():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((2, 0, 1)) == 1


@pytest.mark.parametrize("n", range(2, 16, 2))
def test_matching_engine_expands_each_sub_pfaffian_once(n):
    log = []
    m = SkewMatrix(n, lambda i, j: Support((i, j), log))
    assert pfaffian_matchings(m).indices == frozenset(range(n))
    # every product is a(s_0, s_k) * Pf(S - {s_0, s_k}) for one index set S,
    # none is taken twice, and each S expanded takes |S| - 1 of them, one
    # per partner of its first index
    assert len(set(log)) == len(log)
    expanded = Counter(pair | rest for pair, rest in log)
    assert all(times == len(s) - 1 for s, times in expanded.items())
    # the sets reached are the C(n - k, k) of size n - 2k >= 4
    assert Counter(map(len, expanded)) == {n - 2 * k: comb(n - k, k) for k in range(n // 2 - 1)}
    assert len(log) == (0, 3, 20, 87, 317, 1055, 3333)[n // 2 - 1] == cli._pfaffian_products(n)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_matching_engine_sums_each_signed_matching_once(n):
    m = SkewMatrix(n, Terms.letter)
    expected = Counter()
    for sigma in itertools.permutations(range(n)):
        pairs = tuple((sigma[2 * b], sigma[2 * b + 1]) for b in range(n // 2))
        if all(x < y for x, y in pairs) and list(pairs) == sorted(pairs):
            expected[(Fraction(perm_sign(sigma)), pairs)] += 1
    assert Counter(pfaffian_matchings(m).terms) == expected


def test_permutation_engine_matches_reference_random():
    rng = random.Random(2468)
    for n in range(0, 9, 2):
        for _ in range(1 if n == 8 else 4):
            m = random_skew(rng, n, den=7)
            assert pfaffian_permutations(m) == reference_pfaffian_permutations(m), n


def test_permutation_engine_distinct_primes_n8():
    # every entry a distinct prime, so no two signed terms can cancel by
    # accident and a wrong sign on any permutation changes the total
    m = prime_skew(8)
    pf = pfaffian_permutations(m)
    assert pf == reference_pfaffian_permutations(m)
    assert pf == pfaffian_matchings(m)
    assert pf.denominator == 1 and pf != 0


def test_permutation_engine_n10_walks_above_the_tail():
    # n = 10 is the smallest size whose walk carries a prefix through a
    # Python level above the six-index tail: 3,628,800 permutations
    m = random_skew(random.Random(1010), 10, den=5)
    pf = pfaffian_permutations(m)
    assert pf == pfaffian_matchings(m) != 0
    assert pf * pf == det_fraction_free(m.rows())


def test_permutation_engine_theta_poly_entries():
    rng = random.Random(1357)
    cap = 4
    for n in (4, 6):
        m = SkewMatrix(
            n,
            lambda i, j: ThetaPoly(
                cap, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cap + 1)]
            ),
        )
        pf = pfaffian_permutations(m)
        assert isinstance(pf, ThetaPoly)
        assert pf == reference_pfaffian_permutations(m)
        assert pf == pfaffian_matchings(m)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_permutation_engine_adds_one_term_per_permutation(n):
    m = SkewMatrix(n, Terms.letter)
    total = pfaffian_permutations(m)
    assert len(total.terms) == factorial(n)
    half = n // 2
    scale = Fraction(1, (1 << half) * factorial(half))
    expected = Counter()
    for sigma in itertools.permutations(range(n)):
        coeff, word = scale * perm_sign(sigma), []
        for b in range(half):
            x, y = sigma[2 * b], sigma[2 * b + 1]
            coeff = coeff if x < y else -coeff
            word.append((min(x, y), max(x, y)))
        expected[(coeff, tuple(word))] += 1
    assert Counter(total.terms) == expected


class Products:
    """Entry ring that logs the type of the right factor of each product, so
    an engine's log lists its entry products and its scalar scales in order."""

    def __init__(self, log):
        self.log = log

    def __neg__(self):
        return self

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __mul__(self, other):
        self.log.append(type(other))
        return Products(self.log)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_permutation_engine_takes_one_product_per_node(n):
    # each ordered pair after the first takes one product with its prefix,
    # at every node of the walk: sum over k = 2..n/2 of n!/(n - 2k)!, none
    # shared between nodes or factored out of two leaves, and then the one
    # normalization scale
    log = []
    pfaffian_permutations(SkewMatrix(n, lambda i, j: Products(log)))
    products = sum(factorial(n) // factorial(n - 2 * k) for k in range(2, n // 2 + 1))
    assert products == (0, 24, 1080, 62160)[n // 2 - 1]
    assert log == [Products] * products + [Fraction]


def prime_denominator_skew(rng, n):
    """n x n skew matrix whose upper entries have distinct prime denominators,
    so the common denominator is their product and not a power of 2."""
    upper = {}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for ij, p in zip(pairs, PRIMES):
        num = rng.randint(1, 9)
        num += num % p == 0  # keep p in the reduced denominator
        upper[ij] = Fraction(rng.choice((-1, 1)) * num, p)
    return stored(n, upper)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_permutation_engine_prime_denominators(n):
    m = prime_denominator_skew(random.Random(1000 + n), n)
    pf = pfaffian_permutations(m)
    assert isinstance(pf, Fraction)
    assert pf == reference_pfaffian_permutations(m)
    assert pf == pfaffian_matchings(m)


def test_permutation_engine_mixed_int_and_fraction_entries():
    rng = random.Random(8642)
    m = SkewMatrix(
        6,
        lambda i, j: rng.randint(-9, 9) if (i + j) % 2 else Fraction(rng.randint(-9, 9), 5),
    )
    pf = pfaffian_permutations(m)
    assert isinstance(pf, Fraction)
    assert pf == reference_pfaffian_permutations(m) == pfaffian_matchings(m)


def test_permutation_engine_zero_matrix():
    m = SkewMatrix(6, lambda i, j: 0)
    pf = pfaffian_permutations(m)
    assert isinstance(pf, Fraction) and pf == 0


class NoArithFraction(Fraction):
    """A Fraction whose +, * and their reflections raise: an engine that reads
    only numerator and denominator works on it, one doing Fraction arithmetic
    on the entries does not."""

    def _refuse(self, other):
        raise AssertionError("Fraction arithmetic on a matrix entry")

    __mul__ = __rmul__ = __add__ = __radd__ = _refuse


def test_permutation_engine_runs_on_ints_for_rational_entries():
    for n in (2, 4, 6, 8):
        plain = prime_denominator_skew(random.Random(2000 + n), n)
        guarded = SkewMatrix(n, lambda i, j: NoArithFraction(plain.entry(i, j)))
        # the matching-engine control from n = 4 on: at n = 2 it returns the
        # entry itself, with no arithmetic for the guard to refuse
        if n > 2:
            with pytest.raises(AssertionError):
                pfaffian_matchings(guarded)
        assert pfaffian_permutations(guarded) == pfaffian_matchings(plain)


def leibniz_det(rows):
    n = len(rows)
    total = Fraction(0)
    for sigma in itertools.permutations(range(n)):
        term = Fraction(perm_sign(sigma))
        for i in range(n):
            term *= rows[i][sigma[i]]
        total += term
    return total


def test_det_matches_leibniz_on_rational_matrices():
    rng = random.Random(97531)
    for n in range(1, 6):
        for _ in range(4):
            rows = [
                [Fraction(rng.randint(-9, 9), rng.choice(PRIMES[:6])) for _ in range(n)]
                for _ in range(n)
            ]
            det = det_fraction_free(rows)
            assert isinstance(det, Fraction)
            assert det == leibniz_det(rows), rows


def test_det_row_swap_on_zero_leading_pivot():
    rows = [
        [0, Fraction(2, 3), Fraction(-1, 5), 4],
        [Fraction(7, 2), 1, 0, Fraction(-3, 7)],
        [Fraction(1, 11), Fraction(5, 3), 2, Fraction(1, 2)],
        [-1, Fraction(4, 13), Fraction(9, 5), 0],
    ]
    det = det_fraction_free(rows)
    assert det == leibniz_det(rows) != 0
    # a zero pivot that no lower row can replace makes the matrix singular
    assert det_fraction_free([[0, Fraction(1, 3)], [0, Fraction(2, 7)]]) == 0


def cyclic_garbage(fn, *args):
    """fn(*args), run with the collector off after one collection, and the
    number of objects it left in reference cycles: the next collection finds
    them unreachable, where reference counting would have freed them."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        value = fn(*args)
        return value, gc.collect()
    finally:
        if enabled:
            gc.enable()


def theta_skew(rng, n, cap=4):
    return SkewMatrix(
        n,
        lambda i, j: ThetaPoly(cap, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(cap + 1)]),
    )


@pytest.mark.parametrize(
    "m",
    [
        prime_skew(8),
        random_skew(random.Random(4242), 8, den=7),
        theta_skew(random.Random(4343), 6),
    ],
    ids=["int", "Fraction", "ThetaPoly"],
)
def test_matching_engine_frees_its_memo_on_return(m):
    # the memo of sub-Pfaffians lives for the one call: nothing of it is
    # left in a reference cycle for the collector
    pf, garbage = cyclic_garbage(pfaffian_matchings, m)
    assert garbage == 0
    assert pf == pfaffian_permutations(m)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_permutation_engine_frees_its_grid_on_return(n):
    m = random_skew(random.Random(4444 + n), n, den=7)
    pf, garbage = cyclic_garbage(pfaffian_permutations, m)
    assert garbage == 0
    assert pf == pfaffian_matchings(m)


class Refused(Exception):
    """Raised by a Budgeted product once the budget is spent."""


class Budgeted:
    """Int entry ring whose products draw on one budget, a one-item list
    shared by the entries of a matrix, and raise Refused once it is spent,
    so an engine leaves mid-expansion, from inside its recursion."""

    def __init__(self, value, budget):
        self.value, self.budget = value, budget

    def __neg__(self):
        return Budgeted(-self.value, self.budget)

    def __add__(self, other):
        return Budgeted(self.value + getattr(other, "value", other), self.budget)

    __radd__ = __add__

    def __mul__(self, other):
        if not self.budget[0]:
            raise Refused
        self.budget[0] -= 1
        return Budgeted(self.value * getattr(other, "value", other), self.budget)


@pytest.mark.parametrize("engine", [pfaffian_matchings, pfaffian_permutations])
def test_engines_free_their_working_set_when_an_entry_raises(engine):
    # the sixth product raises, with the memo, or the grid and the totals,
    # half built: they go with the exception, so a cleanup that runs only
    # after a normal return would leave them to the collector
    budget, primes = [5], iter(PRIMES)
    m = SkewMatrix(8, lambda i, j: Budgeted(next(primes), budget))

    def expand_until_refused():
        try:
            engine(m)
        except Refused:
            return "refused"
        return "returned"

    assert cyclic_garbage(expand_until_refused) == ("refused", 0)
    assert budget == [0]
