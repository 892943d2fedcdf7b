"""Serre duality on the twisted Euler characteristics (ROADMAP item 15).

Riemann-Roch on the Prym variety P, whose Todd class is 1, turns the class
into the twisted Euler characteristics. With xi = theta'/2 the principal
polarization, int xi^h = h! and c_d the ch_k_class coefficients,

    chi(V, Xi^n) = sum_d c_d * 2^d * h!/(h - d)! * n^(h - d),

a polynomial in n whose value at n = 0 is chi. Where V is Gorenstein with
omega_V = O_V(k Xi), Serre duality gives chi(k - n) = (-1)^rho * chi(n),
rho = dim V. This is proved only for lambda = (1), where V is a divisor in
the class xi and adjunction gives k = 1. For every other lambda it is a
checked conjecture: with k = lambda_1 the symmetry holds exactly when every
addable cell of the shifted diagram of lambda lies on one antidiagonal, the
shifted analogue of Woo-Yong's Gorenstein criterion for Grassmannian
Schubert varieties. At rho <= 2 some other lambda are symmetric by
coincidence, so the window keeps rho >= 3.

The symmetry ties every coefficient of the class to the others, where the
two chi routes check only the top one and the closed product only the
lowest.
"""

from math import comb, factorial, lcm

from prymck.prym_bn import ch_k_class, problem_from_partition, strict_partitions


def _twisted_chi(problem):
    """The coefficients of n^0..n^h of chi(V, Xi^n), times a common positive
    int so that they are ints."""
    h = problem.dim_prym
    coeffs = ch_k_class(problem).coeffs
    terms = [coeffs[h - m] * 2 ** (h - m) * (factorial(h) // factorial(m)) for m in range(h + 1)]
    scale = lcm(*(c.denominator for c in terms))
    return [int(c * scale) for c in terms]


def _reflected(poly, k):
    """The coefficients of p(k - n), where poly holds those of p(n)."""
    return [
        (-1) ** j * sum(comb(m, j) * k ** (m - j) * poly[m] for m in range(j, len(poly)))
        for j in range(len(poly))
    ]


def _addable_cells_on_one_antidiagonal(lam) -> bool:
    # shifted row i holds columns i..i + lambda_i - 1; its addable cell, at
    # column i + lambda_i, exists in row 1 and wherever
    # lambda_i < lambda_(i-1) - 1, with lambda_(l+1) = 0
    parts = (*lam, 0)
    antidiagonals = {1 + (1 + lam[0])}
    for i in range(1, len(parts)):
        if parts[i] < parts[i - 1] - 1:
            antidiagonals.add(2 * (i + 1) + parts[i])
    return len(antidiagonals) == 1


def test_serre_duality_holds_exactly_on_the_shifted_gorenstein_partitions():
    symmetric = []
    checked = 0
    for g in range(2, 27):
        # rho = g - 1 - |lambda| >= 3
        for lam in strict_partitions(min(18, g - 4), 7, 2 * g - 2):
            if not lam:
                continue
            problem = problem_from_partition(g, lam)
            chi = _twisted_chi(problem)
            holds = _reflected(chi, lam[0]) == [(-1) ** problem.rho * c for c in chi]
            assert holds == _addable_cells_on_one_antidiagonal(lam), (g, lam)
            checked += 1
            if holds:
                symmetric.append(lam)
    assert (checked, len(symmetric)) == (2240, 297)
    assert (1,) in symmetric and (5, 4, 3, 2, 1) in symmetric
