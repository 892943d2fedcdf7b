"""One pass of a benchmark workload, in a fresh interpreter.

Reads a JSON request ``{"commands": [argv, ...], "trace": bool}`` on stdin,
times the import of ``prymck.cli`` as set-up, then runs the commands in
order through ``prymck.cli.main`` with stdout captured, so caches warm
within the pass as they would inside one process. Prints one JSON object:
the set-up time, each command's exit code, times and stdout, the peak
resident memory of this process, and with tracing on the per-layer metrics
and the raw spans.

Every time is reported twice: as wall seconds and as reference seconds.
A shared virtual machine runs this interpreter at speeds that differ by up
to about 2x from one second to the next, so wall times of the same work
scatter widely. A speed gauge therefore times a fixed pure-Python kernel,
which does not touch prymck, every ``GAUGE_INTERVAL_S`` of wall time while
the commands run, and just before and after each timed step. A step's
reference seconds are its wall seconds times the mean speed the gauge saw
over the step, in units of a machine on which the kernel takes
``GAUGE_REF_S``: the time the step would take on that machine. The gauge's
own time is taken out of the wall time of the step it interrupted.

Only modules the interpreter has already loaded at start-up, and
``signal`` for the gauge, are imported before the timed import, so what
``prymck.cli`` pulls in (json, argparse, fractions, ...) is paid for inside
the set-up time as a user would pay for it.
"""

import os
import signal
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

GAUGE_INTERVAL_S = 0.025
# the kernel's time on a 2-vCPU virtual machine with Python 3.11 at its
# fast moments; it only sets the unit, scaling every reference time alike
GAUGE_REF_S = 250e-6
GAUGE_WARMUP = 20
# samples on each side of a command; a short command may hold no timer
# sample, and its time then rests on these alone
GAUGE_AROUND = 4
# samples on each side of the import; the interval timer is off during it,
# since a sample taken inside an import runs on caches the import evicted
GAUGE_SETUP_AROUND = 8


def _gauge_kernel():
    # big-int arithmetic, tuples and a dict, the mix prymck's exact
    # arithmetic spends its time on; builtins only, so it imports nothing
    acc = {}
    x = 1
    for i in range(1, 300):
        x = (x * 1103515245 + 12345) % 2305843009213693951
        a, b = divmod(x**3, i + 7)
        key = (i & 63, a & 7)
        acc[key] = acc.get(key, 0) + b
    return len(acc)


class SpeedGauge:
    """Samples how fast this interpreter runs while the pass runs."""

    def __init__(self):
        self.durations = []
        for _ in range(GAUGE_WARMUP):
            _gauge_kernel()

    def sample(self):
        start = time.perf_counter()
        _gauge_kernel()
        self.durations.append(time.perf_counter() - start)

    def start(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, GAUGE_INTERVAL_S, GAUGE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def time(self, fn, around=GAUGE_AROUND):
        """Run fn(); return its result, wall seconds and reference seconds.

        The gauge samples `around` times just before and just after fn."""
        for _ in range(around):
            self.sample()
        first = len(self.durations) - around
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            end = time.perf_counter()
            inside = len(self.durations)
            for _ in range(around):
                self.sample()
        window = self.durations[first:]
        wall = end - start - sum(self.durations[first + around : inside])
        speed = sum(GAUGE_REF_S / d for d in window) / len(window)
        return result, wall, wall * speed


def run_command(cli, argv, gauge):
    import contextlib
    import io
    import traceback

    buf = io.StringIO()
    error = None

    def call():
        nonlocal error
        try:
            with contextlib.redirect_stdout(buf):
                return cli.main(argv)
        except SystemExit as exc:  # argparse rejected an argument
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails this command, not the pass
            error = traceback.format_exc()
            return -1

    rc, wall_s, ref_s = gauge.time(call)
    return {
        "argv": argv,
        "rc": rc,
        "wall_s": wall_s,
        "ref_s": ref_s,
        "stdout": buf.getvalue(),
        "error": error,
    }


def peak_rss_mib():
    """Peak resident memory of this process, in MiB.

    Not ru_maxrss: Linux carries the parent's resident size at fork over
    exec into it, so a harness holding many results would inflate it.
    VmHWM belongs to the address space this interpreter runs in.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # reported in kB
    raise RuntimeError("VmHWM missing from /proc/self/status")


def pin_to_current_cpu():
    """Keep this process and its threads on the CPU it started on.

    The gauge runs in the main thread. Unpinned, the `table` command's pool
    threads run on another CPU than the one it samples, whose speed may
    differ; under the interpreter lock they gain nothing from a second CPU.
    """
    with open("/proc/self/stat") as fh:
        cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


def main():
    raw_request = sys.stdin.read()
    pin_to_current_cpu()
    sys.path.insert(0, SRC)
    gauge = SpeedGauge()
    _, setup_wall_s, setup_s = gauge.time(
        lambda: __import__("prymck.cli"), around=GAUGE_SETUP_AROUND
    )
    cli = sys.modules["prymck.cli"]
    gauge.start()

    import json

    request = json.loads(raw_request)
    tracer = None
    if request["trace"]:
        from layer_trace import Tracer

        tracer = Tracer()
        tracer.install()
    results = [run_command(cli, argv, gauge) for argv in request["commands"]]
    gauge.stop()
    out = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "commands": results,
        "peak_rss_mib": peak_rss_mib(),
        "gauge_samples": len(gauge.durations),
        "gauge_median_s": sorted(gauge.durations)[len(gauge.durations) // 2],
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers["cli.stdout_bytes"] = sum(len(r["stdout"].encode()) for r in results)
        out["layers"] = layers
        out["spans"] = tracer.spans
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
