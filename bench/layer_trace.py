"""Call counts and timed spans around the public functions of prymck's layers.

Nothing under ``src/`` is modified. After ``prymck.cli`` has been imported,
``Tracer.install`` replaces each traced function at every module-level
binding that refers to it, because callers bind names at import time:
``prym_bn`` imports ``apply_pair_operator``, ``perm_sign``,
``abel_coefficient`` and the other helpers by name, so patching only the
defining module would miss them. Methods are replaced on their class under
every attribute that holds the same function, which also catches aliases
bound at class creation such as ``BetaPoly.__rmul__ = __mul__``.

Hot leaves get count-only wrappers. Coarse boundaries also record a span
(name, start, end, parent) in memory; ``Tracer.metrics`` turns the spans
into per-layer self times once the pass is over. A layer's self time is the
duration of its spans minus the part of each span that its child spans
cover. Time spent in unwrapped code, and in count-only leaves, falls to the
innermost enclosing span: ``factorial`` inside ``g_coeff`` is theorem-route
time, ``BetaPoly`` arithmetic inside ``apply_pair_operator`` is operator
engine time.

Each layer is named after its module. Counters are ``itertools.count``
objects, whose ``next`` is a single C call and so loses no update when the
worker threads of ``table`` count at once; worker threads' outermost spans
take the span open on the installing thread as parent. Spans measure wall
time, so spans of overlapping worker threads include time spent waiting for
the interpreter lock.
"""

from __future__ import annotations

import collections
import functools
import itertools
import sys
import threading
import time

# layers reporting a self time; selfcheck reports the span of each check
SELF_TIME_LAYERS = ("exact_arith", "series_ring", "operator_engine", "pfaffian", "prym_bn", "cli")

# (layer, attribute) of every function that records a span.
SPANNED = (
    ("exact_arith", "abel_coefficient"),
    ("series_ring", "ThetaPoly.__mul__"),
    ("series_ring", "ThetaPoly.__rmul__"),
    ("operator_engine", "apply_pair_operator"),
    ("operator_engine", "prefactor_expansion"),
    ("operator_engine", "interaction_expansion"),
    ("pfaffian", "pfaffian_matchings"),
    ("pfaffian", "pfaffian_permutations"),
    ("pfaffian", "det_fraction_free"),
    ("prym_bn", "build_problem"),
    ("prym_bn", "problem_from_partition"),
    ("prym_bn", "strict_partitions"),
    ("prym_bn", "chow_class_closed"),
    ("prym_bn", "chow_class_pfaffian"),
    ("prym_bn", "ch_k_class"),
    ("prym_bn", "ck_class"),
    ("prym_bn", "class_result"),
    ("prym_bn", "classical_coefficient"),
    ("prym_bn", "euler_oracle"),
    ("prym_bn", "euler_theorem"),
    ("cli", "main"),
)

# (layer, attribute) of the hot leaves, which are only counted.
COUNTED = (
    ("exact_arith", "binom_gen"),
    ("series_ring", "ThetaPoly.__add__"),
    ("series_ring", "ThetaPoly.__radd__"),
    ("series_ring", "BetaPoly.__mul__"),
    ("series_ring", "BetaPoly.__add__"),
    ("pfaffian", "perm_sign"),
    ("prym_bn", "g_coeff"),
    ("prym_bn", "GTable.value"),
    ("prym_bn", "enumerate_f"),
)

# a product or sum is counted under one label whichever operand dispatched it
_DUNDER_LABELS = {"__mul__": "mul", "__rmul__": "mul", "__add__": "add", "__radd__": "add"}

# lru_cache'd expansions whose cache_info() gives the expansion cache hit ratio.
EXPANSION_CACHES = ("prefactor_expansion", "interaction_expansion")


def _label(layer, attr):
    owner, _, meth = attr.rpartition(".")
    if owner and meth in _DUNDER_LABELS:
        attr = f"{owner}.{_DUNDER_LABELS[meth]}"
    return f"{layer}.{attr}"


def _count_value(counter):
    # itertools.count exposes its next value only through its repr, "count(n)"
    return int(repr(counter)[len("count(") : -1])


def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    """Wrappers, spans and counters for one pass."""

    def __init__(self):
        self.spans = []  # (name, start, end, span_id, parent_id)
        self._ids = itertools.count(1)
        self._local = threading.local()  # .stack: ids of the thread's open spans
        self._home = None  # ident of the installing thread
        self._open_root = 0  # outermost open span on the installing thread
        self._counters = collections.defaultdict(itertools.count)
        self._f_sizes = []  # len() of each enumerate_f result
        self._caches = {}
        self._check_names = []

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, fn, name):
        local, spans, ids, clock = self._local, self.spans, self._ids, time.perf_counter
        tick, home = self._counters[name].__next__, self._home

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._open_root
            span_id = next(ids)
            outermost = not stack and threading.get_ident() == home
            if outermost:
                self._open_root = span_id
            stack.append(span_id)
            tick()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if outermost:
                    self._open_root = 0
                spans.append((name, start, end, span_id, parent))

        return wrapper

    def _count_wrapper(self, fn, name):
        tick = self._counters[name].__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return wrapper

    def _g_coeff_wrapper(self, fn, name):
        # g_coeff(m, i, j, ...) with i > j calls itself once with i and j
        # swapped; that call is antisymmetry, not a GTable miss
        tick, tick_swapped = self._counters[name].__next__, self._counters[name + ".swapped"].__next__

        @functools.wraps(fn)
        def wrapper(m, i, j, *args, **kwargs):
            tick()
            if i > j:
                tick_swapped()
            return fn(m, i, j, *args, **kwargs)

        return wrapper

    def _enumerate_f_wrapper(self, fn, name):
        tick, sizes = self._counters[name].__next__, self._f_sizes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            tick()
            sizes.append(len(out))
            return out

        return wrapper

    # --------------------------------------------------------- installation

    def install(self):
        """Wrap every traced binding of the already imported prymck modules."""
        self._home = threading.get_ident()
        engine = sys.modules["prymck.operator_engine"]
        self._caches = {n: getattr(engine, n) for n in EXPANSION_CACHES}
        modules = [m for n, m in sys.modules.items() if n == "prymck" or n.startswith("prymck.")]
        special = {"g_coeff": self._g_coeff_wrapper, "enumerate_f": self._enumerate_f_wrapper}
        for layer, attr in SPANNED:
            self._replace(modules, layer, attr, self._span_wrapper)
        for layer, attr in COUNTED:
            self._replace(modules, layer, attr, special.get(attr, self._count_wrapper))
        self._wrap_checks(sys.modules["prymck.selfcheck"])

    def _replace(self, modules, layer, attr, make):
        home = sys.modules[f"prymck.{layer}"]
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(home, cls_name)
            original = cls.__dict__[meth]
            wrapper = make(original, _label(layer, attr))
            for key, val in list(cls.__dict__.items()):
                if val is original:
                    setattr(cls, key, wrapper)
            return
        original = getattr(home, attr)
        wrapper = make(original, _label(layer, attr))
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)

    def _wrap_checks(self, selfcheck):
        # run() iterates the CHECKS registry, so each check is wrapped there
        checks = []
        for check, fn in selfcheck.CHECKS:
            checks.append((check, self._span_wrapper(fn, f"selfcheck.{check}")))
            self._check_names.append(check)
        selfcheck.CHECKS = tuple(checks)

    # -------------------------------------------------------------- results

    def counts(self):
        """Calls per wrapped name (spanned names included)."""
        return collections.Counter({n: _count_value(c) for n, c in self._counters.items()})

    def span_times(self):
        """Inclusive and self seconds per span name."""
        children = collections.defaultdict(list)
        for _name, start, end, _sid, parent in self.spans:
            children[parent].append((start, end))
        inclusive = collections.defaultdict(float)
        self_time = collections.defaultdict(float)
        for name, start, end, sid, _parent in self.spans:
            inclusive[name] += end - start
            self_time[name] += (end - start) - _covered(children.get(sid, ()), start, end)
        return inclusive, self_time

    def metrics(self):
        """Per-layer metrics of the pass, named as in BENCHMARK.json."""
        counts = self.counts()
        inclusive, self_time = self.span_times()
        out = {}
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = sum(
                (t for n, t in self_time.items() if n.startswith(layer + ".")), 0.0
            )
        for name in (
            "exact_arith.abel_coefficient",
            "exact_arith.binom_gen",
            "series_ring.ThetaPoly.mul",
            "series_ring.ThetaPoly.add",
            "series_ring.BetaPoly.mul",
            "operator_engine.apply_pair_operator",
            "pfaffian.perm_sign",
            "prym_bn.g_coeff",
            "prym_bn.GTable.value",
            "prym_bn.enumerate_f",
        ):
            out[f"{name}.calls"] = counts[name]
        for name in (
            "operator_engine.apply_pair_operator",
            "pfaffian.pfaffian_matchings",
            "pfaffian.pfaffian_permutations",
            "pfaffian.det_fraction_free",
            "prym_bn.euler_theorem",
        ):
            out[f"{name}.self_s"] = self_time[name]
        out["prym_bn.euler_oracle.s"] = inclusive["prym_bn.euler_oracle"]
        out["prym_bn.f_distributions"] = sum(self._f_sizes)
        lookups = counts["prym_bn.GTable.value"]
        misses = counts["prym_bn.g_coeff"] - counts["prym_bn.g_coeff.swapped"]
        out["prym_bn.gtable.hit_ratio"] = 1 - misses / lookups if lookups else 0.0
        hits = misses = 0
        for cached in self._caches.values():
            info = cached.cache_info()
            hits += info.hits
            misses += info.misses
        out["operator_engine.expansion_cache.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0
        )
        for check in self._check_names:
            out[f"selfcheck.{check}.s"] = inclusive[f"selfcheck.{check}"]
        return out
