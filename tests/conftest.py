"""Hypothesis profiles: HYPOTHESIS_PROFILE=ci loads "ci", which derandomizes
the property tests, so every run and every Python draws the same cases and
a failure replays; without the variable the default profile applies."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
