"""Smoke test of the benchmark harness: one short run of each workload.

    python3 -m pytest bench/test_bench.py -q

Each workload runs one untraced and one traced pass through the harness,
then one more traced pass. The test asserts that tracing leaves every
command's stdout byte-identical, that every output check passes, that every
metric BENCHMARK.json names is reported with its unit, and that every
``*.calls`` count repeats exactly between the two traced passes. It takes
about a minute.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

SPEC = run.load_spec()


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_smoke(workload):
    measured = run.measure(workload, seed=0, seconds=0, trace=True)
    assert measured["failures"] == []
    assert measured["attempted"] == 2 * len(measured["commands"])
    (plain,) = measured["plain"]
    (traced,) = measured["traced"]
    assert [c["stdout"] for c in traced["commands"]] == [c["stdout"] for c in plain["commands"]]
    for cmd in plain["commands"]:
        assert cmd["wall_s"] > 0 and cmd["ref_s"] > 0

    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        metrics = run.named_metrics(measured, trace, SPEC)
        assert list(metrics) == [m["name"] for m in SPEC[kind]]
        for m in SPEC[kind]:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert isinstance(metrics[m["name"]]["value"], (int, float))

    again = run.run_pass(measured["commands"], trace=True)["layers"]
    calls = {k: v for k, v in traced["layers"].items() if k.endswith(".calls")}
    assert calls == {k: v for k, v in again.items() if k.endswith(".calls")}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_seed_picks_inputs():
    for workload, build in run.WORKLOADS.items():
        assert build(run.seeded_picker(7)) == build(run.seeded_picker(7)), workload
    picks = {tuple(map(tuple, run.chi_verify(run.seeded_picker(s)))) for s in range(20)}
    assert len(picks) > 1


def test_reference_covers_every_command():
    reference = run.load_reference()
    assert sorted(" ".join(argv) for argv in run.every_command()) == sorted(reference)
