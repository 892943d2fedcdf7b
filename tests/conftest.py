"""Hypothesis profiles: HYPOTHESIS_PROFILE=ci loads "ci", which derandomizes
the property tests, so every run and every Python draws the same cases and
a failure replays; without the variable the default profile applies.

broken_interaction corrupts the oracle's interaction series for a test, and
theta_products records the ThetaPoly products it takes."""

import os

import pytest
from hypothesis import settings

from prymck import operator_engine
from prymck.series_ring import ThetaPoly

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def broken_interaction(monkeypatch):
    """interaction_expansion with the cell of raise 0 and lowering 1 set to
    1, where the true series has 0, as b > a; the kernel's stage-1 tables
    are dropped before and after, so none built on it outlives the test."""
    true = operator_engine.interaction_expansion

    def broken(rows):
        table = [list(row) for row in true(rows)]
        table[1][0] = 1
        return tuple(map(tuple, table))

    operator_engine._raised_prefactor.cache_clear()
    monkeypatch.setattr(operator_engine, "interaction_expansion", broken)
    yield
    operator_engine._raised_prefactor.cache_clear()


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
