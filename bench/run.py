"""Benchmark of the prymck command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload chi-verify --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload in turn

The harness is a closed loop with one client: it starts the next pass only
after the previous one has ended. Each pass is a fresh interpreter running
``bench/one_pass.py`` with ``PRYM_THREADS`` unset, as a user would run the
tool; it times the import of ``prymck.cli`` as set-up and then runs the
workload's commands in order through ``prymck.cli.main``. Passes repeat
while a typical pass still ends within ``--seconds``, and each metric is
the median over the passes. Import-only processes between passes add
set-up samples. Times are in reference seconds: wall seconds corrected by
the speed gauge in ``one_pass.py`` for the machine's changing speed.

With ``--trace 0`` the result line holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` traced and untraced passes alternate and
it holds the per-layer metrics, taken from the traced passes, plus the
tracing overhead, and the spans of the last traced pass go to
``bench/spans/<workload>-seed<seed>.json``. Every command's stdout is checked: byte for byte against
``bench/reference.json`` (recorded from every partition a seed can pick),
and for any seed by the invariants in ``check_pass``. The last line of
stdout is the JSON result; the line before it holds the run metadata.

``python3 bench/run.py --record-reference`` rewrites the reference file
from the current source tree.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
ONE_PASS = os.path.join(BENCH_DIR, "one_pass.py")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SPANS_DIR = os.path.join(BENCH_DIR, "spans")

# import-only processes after each pass bring the set-up samples up to this
# many per second of the run so far; spread over the run, they sample the
# machine's slow and fast moments alike
SETUP_SAMPLES_PER_S = 1
PASS_TIMEOUT_S = 150

# ------------------------------------------------------------------ workloads


def strict_partitions(g, length, size):
    """Strict partitions with exactly `length` parts summing to `size`, parts
    at most 2g - 2 (the bound on a vanishing sequence), in sorted order."""

    def rec(remaining, parts_left, max_part):
        if parts_left == 0:
            if remaining == 0:
                yield ()
            return
        for p in range(min(max_part, remaining), 0, -1):
            for rest in rec(remaining - p, parts_left - 1, p - 1):
                yield (p,) + rest

    return sorted(rec(size, length, 2 * g - 2))


def problem_args(g, lam):
    """Arguments of the minimal vanishing sequence: the parts ascending."""
    a = ",".join(str(p) for p in sorted(lam))
    return ["--genus", str(g), "-r", str(len(lam) - 1), "--vanishing", a]


def seeded_picker(seed):
    """Rung (g, length, size) -> problem arguments; one choice per rung."""
    rng = random.Random(seed)
    chosen = {}

    def pick(g, length, size):
        key = (g, length, size)
        if key not in chosen:
            chosen[key] = rng.choice(strict_partitions(*key))
        return problem_args(g, chosen[key])

    return pick


def chi_verify(pick):
    cmds = [
        ["chi", *pick(g, ell, size), "--verify"]
        for g, ell, size in ((12, 3, 8), (16, 4, 12), (22, 5, 17), (25, 6, 23))
    ]
    # codimension 12 > g - 1 = 9: expected empty, both routes still compute 0
    cmds.append(["chi", *pick(10, 3, 12), "--verify", "--output", "json"])
    return cmds


def class_k(pick):
    return [
        ["class", *pick(24, 6, 21), "--beta", "-1"],
        ["class", *pick(28, 6, 24), "--beta", "-1", "--output", "json"],
        ["class", *pick(28, 6, 24), "--beta", "0"],
        ["class", *pick(20, 5, 16), "--beta", "symbolic"],
        ["class", *pick(24, 6, 21), "--beta", "symbolic", "--output", "latex"],
    ]


def table(pick):
    return [
        ["table", "--g-max", "10", "--max-len", "5", "--output", fmt]
        for fmt in ("plain", "json", "latex")
    ]


def selfcheck(pick):
    return [["selfcheck"]]


WORKLOADS = {
    "chi-verify": chi_verify,
    "class-k": class_k,
    "table": table,
    "selfcheck": selfcheck,
}


def every_command():
    """Each command any seed can produce: the k-th choice on every rung, for
    k up to the number of choices on the widest rung."""
    seen, k, more = {}, 0, True
    while more:
        more = False

        def pick(g, length, size):
            nonlocal more
            options = strict_partitions(g, length, size)
            more = more or k + 1 < len(options)
            return problem_args(g, options[k % len(options)])

        for build in WORKLOADS.values():
            for argv in build(pick):
                seen[" ".join(argv)] = argv
        k += 1
    return list(seen.values())


# --------------------------------------------------------------------- passes


class PassError(RuntimeError):
    """A pass process failed to produce a result."""


def pass_env():
    env = dict(os.environ)
    env.pop("PRYM_THREADS", None)
    # cache bytecode as an installed package does, so set-up is the import a
    # user pays and not a compile of every module, whatever the caller's env
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_pass(commands, trace=False):
    request = json.dumps({"commands": commands, "trace": trace})
    proc = subprocess.run(
        [sys.executable, ONE_PASS],
        input=request,
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=pass_env(),
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise PassError(f"pass exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


# --------------------------------------------------------------------- checks

_INTEGER = re.compile(r"-?\d+")


def _problem_key(argv):
    i = argv.index("--genus")
    return tuple(argv[i : i + 6])


def check_pass(result, reference):
    """Failure reasons, one list per command of the pass (empty = passed)."""
    commands = result["commands"]
    reasons = [[] for _ in commands]
    for k, cmd in enumerate(commands):
        argv, out = cmd["argv"], cmd["stdout"]
        if cmd["rc"] != 0:
            reasons[k].append(f"exit code {cmd['rc']}")
        if cmd["error"]:
            reasons[k].append(cmd["error"].strip().splitlines()[-1])
        want = reference.get(" ".join(argv))
        if want is not None and out != want:
            reasons[k].append("stdout differs from the reference")
        if argv[0] == "chi" and "--verify" in argv:
            try:
                chi = json.loads(out)["result"]["chi"] if "json" in argv else out.strip()
            except (ValueError, KeyError, TypeError):
                chi = None
            if not (isinstance(chi, str) and _INTEGER.fullmatch(chi)):
                reasons[k].append(f"chi is not an integer: {out.strip()[:80]!r}")
    # the degree-|lambda| coefficient of the Chern character expansion is the
    # cohomology class gamma printed by --beta 0 on the same problem
    gammas = {}
    for k, cmd in enumerate(commands):
        argv = cmd["argv"]
        if argv[0] == "class" and argv[-2:] == ["--beta", "0"]:
            m = re.search(r"^gamma: (\S+)$", cmd["stdout"], re.M)
            gammas[_problem_key(argv)] = m.group(1) if m else None
    for k, cmd in enumerate(commands):
        argv = cmd["argv"]
        if argv[0] != "class" or argv[-4:] != ["--beta", "-1", "--output", "json"]:
            continue
        key = _problem_key(argv)
        if key not in gammas:
            continue
        try:
            doc = json.loads(cmd["stdout"])
            lowest = doc["result"]["theta_poly"]["coeffs"][sum(doc["problem"]["lambda"])]
        except (ValueError, KeyError, IndexError, TypeError):
            lowest = None
        if lowest is None or lowest != gammas[key]:
            reasons[k].append(f"degree-|lambda| coefficient {lowest} != gamma {gammas[key]}")
    return reasons


# ------------------------------------------------------------------ measuring


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_s(result, clock="ref_s"):
    """Time of one pass over the commands, set-up excluded: reference
    seconds (see one_pass.py), or wall seconds with clock="wall_s"."""
    return sum(c[clock] for c in result["commands"])


def end_to_end(passes, setups):
    """End-to-end metrics of a run: medians over its passes."""
    per_command = zip(*([c["ref_s"] for c in r["commands"]] for r in passes))
    return {
        "run_s": statistics.median(run_s(r) for r in passes),
        # a short command slowed by a burst of machine noise in one pass is
        # outvoted by its other passes before the commands are combined
        "cmd_geomean_s": geomean([statistics.median(t) for t in per_command]),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in passes),
        "setup_s": statistics.median(setups),
    }


def measure(workload, seed, seconds, trace):
    """Run passes for `seconds`; return samples, checks and the passes.

    A pass starts only if a typical pass still ends within `seconds`, and
    import-only processes fill the time left, so a run lasts about
    `seconds` whatever the pass length; the first pass always runs."""
    commands = WORKLOADS[workload](seeded_picker(seed))
    reference = load_reference()
    setups = []
    plain, traced = [], []
    cycles = []
    attempted = failed = 0
    failures = []
    start = time.perf_counter()
    while not plain or time.perf_counter() - start + statistics.median(cycles) <= seconds:
        cycle_start = time.perf_counter()
        untraced = run_pass(commands)
        batch = [(plain, untraced)]
        if trace:
            batch.append((traced, run_pass(commands, trace=True)))
        for samples, result in batch:
            samples.append(result)
            setups.append(result["setup_s"])
            reasons = check_pass(result, reference)
            for why, cmd, plain_cmd in zip(reasons, result["commands"], untraced["commands"]):
                # tracing must leave every command's stdout byte-identical
                if cmd["stdout"] != plain_cmd["stdout"]:
                    why.append("traced stdout differs from untraced")
                attempted += 1
                if why:
                    failed += 1
                    failures.append((" ".join(cmd["argv"]), why))
        probes = math.ceil(SETUP_SAMPLES_PER_S * (time.perf_counter() - start)) - len(setups)
        setups.extend(run_pass([])["setup_s"] for _ in range(probes))
        cycles.append(time.perf_counter() - cycle_start)
    while time.perf_counter() - start < seconds:
        setups.append(run_pass([])["setup_s"])
    return {
        "commands": commands,
        "setups": setups,
        "plain": plain,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def summarize(run, trace):
    """Metric name -> value for the run."""
    if not trace:
        return end_to_end(run["plain"], run["setups"])
    layers = [r["layers"] for r in run["traced"]]
    # median_low keeps counts whole: it returns one of the samples
    out = {name: statistics.median_low(l[name] for l in layers) for name in layers[0]}
    out["trace.overhead_s"] = statistics.median(map(run_s, run["traced"])) - statistics.median(
        map(run_s, run["plain"])
    )
    return out


# ------------------------------------------------------------------- metadata


def git_commit(root):
    """Commit of the checkout, read from .git without running git; None when
    the tree is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metadata(workload, seed, seconds, trace, run):
    times = sorted(map(run_s, run["plain"]))
    wall = [run_s(r, "wall_s") for r in run["plain"]]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": git_commit(ROOT),
        "PRYM_THREADS": "unset",
        "passes": len(run["plain"]),
        "traced_passes": len(run["traced"]),
        "setup_samples": len(run["setups"]),
        "run_s_min_max": [times[0], times[-1]],
        # the same passes in wall seconds, and the speed gauge behind them
        "wall_run_s_median": statistics.median(wall),
        "wall_run_s_min_max": [min(wall), max(wall)],
        "gauge_median_s": statistics.median(r["gauge_median_s"] for r in run["plain"]),
        "gauge_samples": sum(r["gauge_samples"] for r in run["plain"]),
        "commands": [" ".join(c) for c in run["commands"]],
    }


# ------------------------------------------------------------------------ cli


def load_spec():
    with open(SPEC) as fh:
        return json.load(fh)


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def record_reference():
    outputs = {}
    for argv in every_command():
        cmd = run_pass([argv])["commands"][0]
        if cmd["rc"] != 0:
            raise PassError(f"{' '.join(argv)} exited with {cmd['rc']}")
        outputs[" ".join(argv)] = cmd["stdout"]
        print(f"recorded {' '.join(argv)}", file=sys.stderr)
    with open(REFERENCE, "w") as fh:
        json.dump(outputs, fh, indent=1, sort_keys=True)
        fh.write("\n")


def named_metrics(run, trace, spec):
    """The metrics BENCHMARK.json lists for this mode, with their units."""
    values = summarize(run, trace)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise PassError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}


def write_spans(workload, seed, run):
    """Write the spans of the run's last traced pass to bench/spans/."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"{workload}-seed{seed}.json")
    fields = ("name", "start", "end", "id", "parent")
    with open(path, "w") as fh:
        json.dump(
            {
                "commands": [" ".join(c) for c in run["commands"]],
                "spans": [dict(zip(fields, span)) for span in run["traced"][-1]["spans"]],
            },
            fh,
        )
    return path


def report(workload, seed, seconds, trace, spec):
    run = measure(workload, seed, seconds, trace)
    metrics = named_metrics(run, trace, spec)
    if trace:
        print(f"spans of the last traced pass: {os.path.relpath(write_spans(workload, seed, run), ROOT)}")
    for argv, why in run["failures"][:10]:
        print(f"FAILED {argv}: {'; '.join(why)}", file=sys.stderr)
    print(f"== {workload} (seed {seed}, trace {trace})")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    # failures are gated by "correct"; a ratio that is 0 at every sound
    # commit cannot carry a relative bound, so it is printed, not listed
    print(f"  {'fail_frac':48s} {run['failed'] / run['attempted']:.6g} 1")
    print(json.dumps({"meta": metadata(workload, seed, seconds, trace, run)}))
    print(
        json.dumps(
            {
                "correct": run["failed"] == 0,
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        ),
        flush=True,
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "prymck", "cli.py")):
        print("error: src/prymck is missing; run from a full checkout", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            report(name, args.seed, seconds, args.trace, spec)
    except (PassError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
