"""Hypothesis profiles: HYPOTHESIS_PROFILE=ci loads "ci", which derandomizes
the property tests, so every run and every Python draws the same cases and
a failure replays; without the variable the default profile applies.

broken_kernel_start corrupts the start of the oracle kernel's recurrence
for a test, off_by_one_walk the theorem route's matching totals, and
theta_products records the ThetaPoly products it takes."""

import os

import pytest
from hypothesis import settings

from prymck import operator_engine, prym_bn
from prymck.series_ring import ThetaPoly

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def broken_kernel_start(monkeypatch):
    """The kernel's j-side row with P_j[-1] set to 1, where the true row has
    a 0 below index 0. Row 0 of the recurrence, E_0[k] = P_i[0] * P_j[k],
    is then nonzero at k = -1, a cell below the base that the guard
    computes whenever base_j >= 1; the later rows carry it on."""
    true = operator_engine._padded

    def broken(prefactors, low):
        row = true(prefactors, low)
        return row[: low - 1] + (1,) + row[low:] if low else row

    monkeypatch.setattr(operator_engine, "_padded", broken)


@pytest.fixture
def off_by_one_walk(monkeypatch):
    """The theorem route's matching walk with 1 added to each total after
    the top-level walk, so that from four indices on no total M_d is a
    whole multiple of its denominator (one or two parts take no walk)."""
    true = prym_bn._matching_sum

    def shifted(rest, series, degrees, totals, *below):
        true(rest, series, degrees, totals, *below)
        if not below:  # the top-level call; the walk's own levels pass sign and prefix
            totals[:] = [m + 1 for m in totals]

    monkeypatch.setattr(prym_bn, "_matching_sum", shifted)


@pytest.fixture
def theta_products(monkeypatch):
    """The list of (left, right) operands of every ThetaPoly x ThetaPoly
    product the test takes, through a wrapper on ThetaPoly.__mul__."""
    products = []
    true = ThetaPoly.__mul__

    def recorded(self, other):
        if isinstance(other, ThetaPoly):
            products.append((self, other))
        return true(self, other)

    monkeypatch.setattr(ThetaPoly, "__mul__", recorded)
    return products
