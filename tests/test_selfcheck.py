"""The invariant registry in tier-1: every check run, its case count pinned.

selfcheck.CHECKS is the only place each invariant is written; these tests
run it and pin how many cases each check covers, so a check that silently
shrinks fails here as well as in `prymck selfcheck`.
"""

import random
from fractions import Fraction

import pytest

from prymck import selfcheck
from prymck.series_ring import ThetaPoly

# case counts, as `prymck selfcheck` prints them
CASES = {
    "pascal-rule": 465,
    "binomial-tail-identity": 66,
    "abel-series-crosscheck": 221,
    "series-ring-laws": 120,
    "series-vanishing": 20,
    "pfaffian-engines": 62,
    "pfaffian-closed-product": 381,
    "kclass-leading-term": 35,
    "oracle-equivalence": 41,
    "integrality": 41,
    "zero-dimensional-degree": 13,
    "emptiness": 50,
    "classical-recovery": 7,
    "interaction-specialization": 330,
    "json-roundtrip": 10,
}


def test_every_check_has_pinned_counts():
    assert [name for name, _ in selfcheck.CHECKS] == list(CASES)


# each check runs at its one, full size; the ids keep that "-full" suffix
@pytest.mark.parametrize("name, fn", selfcheck.CHECKS, ids=[f"{name}-full" for name, _ in selfcheck.CHECKS])
def test_registry_check(name, fn):
    assert fn() == (True, CASES[name])


_SERIES_CHECKS = {
    "series-ring-laws": selfcheck.check_series_laws,
    "series-vanishing": selfcheck.check_series_vanishing,
}
# ThetaPoly products each series check takes: 7 a case in the ring laws,
# with a * b taken once, and one a case in the vanishing check
_PRODUCTS = {"series-ring-laws": 7 * 120, "series-vanishing": 20}


@pytest.mark.parametrize("name", list(_SERIES_CHECKS))
def test_series_checks_multiply_int_rows(monkeypatch, theta_products, name):
    # both checks multiply int series, as the routes do, each product taken
    # once, and still catch a product that is wrong in its top slot
    check = _SERIES_CHECKS[name]
    assert selfcheck._tally(check()) == (True, CASES[name])
    assert len(theta_products) == _PRODUCTS[name]
    assert all(type(c) is int for pair in theta_products for x in pair for c in x.coeffs)
    true = ThetaPoly.__mul__

    def corrupted(self, other):
        out = true(self, other)
        if isinstance(other, ThetaPoly):
            out = ThetaPoly(out.cap, out.coeffs[:-1] + (out.coeffs[-1] + 1,))
        return out

    monkeypatch.setattr(ThetaPoly, "__mul__", corrupted)
    assert selfcheck._tally(check()) == (False, 0)


def test_reference_sums_run_on_ints(monkeypatch):
    # the Abel cross-check builds one Fraction a case, over the int sum of
    # its convolution, and the beta specialization none
    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(selfcheck, "Fraction", counting)
    cases = CASES["abel-series-crosscheck"]
    assert selfcheck._tally(selfcheck.check_abel_series()) == (True, cases)
    assert len(built) == cases
    built.clear()
    cases = CASES["interaction-specialization"]
    assert selfcheck._tally(selfcheck.check_interaction_specialization()) == (True, cases)
    assert built == []


def test_abel_check_builds_each_binomial_row_once(monkeypatch):
    # one binom_gen(s, 0..12) row an s, 17 * 13 calls, where summing each
    # convolution from scratch took 17 * (1 + 2 + ... + 13)
    calls = []
    true = selfcheck.binom_gen

    def counting(s, t):
        calls.append((s, t))
        return true(s, t)

    monkeypatch.setattr(selfcheck, "binom_gen", counting)
    assert selfcheck._tally(selfcheck.check_abel_series()) == (True, CASES["abel-series-crosscheck"])
    assert sorted(calls) == [(s, t) for s in range(-8, 9) for t in range(13)]


def _bump_cell(table, b, a):
    return table[:b] + (table[b][:a] + (table[b][a] + 1,) + table[b][a + 1 :],) + table[b + 1 :]


# (name in selfcheck, the arguments at which its value is wrong, the wrong
# value from the true one, the check, the cases that pass before it fails)
_WRONG_VALUES = {
    # case 11 * 13 + 5 of the (s, v) walk
    "abel": (
        "abel_coefficient", (3, 5), lambda x: x + Fraction(1, 2**6), selfcheck.check_abel_series, 148
    ),
    # the beta = 0 half hides v > 0 behind 0^v, so it shows at beta = -1,
    # after 66 + 99 cases at beta = 0, the 66 table cells and 6 * 11 + 3
    "prefactor": (
        "prefactor_expansion",
        (2, 10),
        lambda row: row[:3] + (row[3] + 1,) + row[4:],
        selfcheck.check_interaction_specialization,
        300,
    ),
    # cell b = 1, a = 3: at beta = -1 only, after 66 + 99 cases and the
    # columns a = 0, 1, 2 and the cell b = 0 of column 3
    "interaction": (
        "interaction_expansion",
        (10,),
        lambda table: _bump_cell(table, 1, 3),
        selfcheck.check_interaction_specialization,
        172,
    ),
}


@pytest.mark.parametrize("wrong", list(_WRONG_VALUES))
def test_int_reference_sums_catch_one_wrong_value(monkeypatch, wrong):
    name, at, bump, check, passed = _WRONG_VALUES[wrong]
    true = getattr(selfcheck, name)
    monkeypatch.setattr(selfcheck, name, lambda *args: bump(true(*args)) if args == at else true(*args))
    assert selfcheck._tally(check()) == (False, passed)


def test_pfaffian_engines_200_matrices():
    # the one check run larger than selfcheck runs it: 200 random matrices
    # up to 8 x 8, each engine pair compared
    plan = {2: 80, 4: 60, 6: 50, 8: 10}
    cases = selfcheck._pfaffian_engine_cases(random.Random(selfcheck._SEED), plan)
    assert selfcheck._tally(cases) == (True, 200)


def test_tally_stops_at_the_first_false():
    def verdicts():
        yield from (True, True, False)
        raise AssertionError("drawn a verdict after the first False")

    assert selfcheck._tally(verdicts()) == (False, 2)
    assert selfcheck._tally(iter(())) == (True, 0)


def test_empty_problems_refuse_a_short_list():
    # the generator stops at g = 7; a shorter list than asked for would let
    # the emptiness check pass on fewer cases than it reports wanting
    with pytest.raises(ValueError, match="expected-empty problems"):
        selfcheck._empty_problems(10**6)
