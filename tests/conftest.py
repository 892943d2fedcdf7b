"""Hypothesis profiles: HYPOTHESIS_PROFILE=ci loads "ci", which derandomizes
the property tests, so every run and every Python draws the same cases and
a failure replays; without the variable the default profile applies.

broken_first_stage corrupts the oracle kernel's first stage for a test, and
theta_products records the ThetaPoly products it takes."""

import os

import pytest
from hypothesis import settings

from prymck import operator_engine
from prymck.series_ring import ThetaPoly

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def broken_first_stage(monkeypatch):
    """The kernel's first stage with Q[0][1] set to 1, a cell with b > x
    where the true table has 0, as the interaction vanishes at b > a; only
    the guard reads that column. Tables are built per entry and never
    cached, so none built on it outlives the test."""
    true = operator_engine._first_stage

    def broken(prefactors, rows):
        table = true(prefactors, rows)
        table[0][1] = 1
        return table

    monkeypatch.setattr(operator_engine, "_first_stage", broken)


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
