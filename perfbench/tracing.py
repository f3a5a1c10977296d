"""In-memory span tracer that wraps histmatch functions at the names their
callers bind.

A *span* target records one span per call: name, start, end, parent span and
op id.  A *count* target is for per-item functions called thousands of times
per op (``quantize_geo``, ``build_histogram``, ``weight_l1``): it keeps only a
call count and a total time, and charges that time to the enclosing span so
the parent's self time stays exclusive.

Nothing is written while an op runs; ``per_op`` folds the spans into
per-layer self times when the run ends.
"""
from __future__ import annotations

import importlib
import itertools
from collections import defaultdict
from time import perf_counter

# (binding "module:attr", traced name, "span" or "count").  A traced name is
# "<layer>.<function>"; weight_matrix spans also carry the metric's name.
HARNESS_TARGETS = [
    ("histmatch.harness:run_experiment", "harness.run_experiment", "span"),
    ("histmatch.harness:sample_population", "synth.sample_population", "span"),
    ("histmatch.harness:generate_pair", "synth.generate_pair", "span"),
    ("histmatch.synth:build_histogram", "core.build_histogram", "count"),
    ("histmatch.harness:build_instance", "matcher.build_instance", "span"),
    ("histmatch.matcher:weight_matrix", "metrics.weight_matrix", "span"),
    ("histmatch.harness:match_min_weight", "matcher.a1", "span"),
    ("histmatch.harness:match_cardinality", "matcher.a2", "span"),
    ("histmatch.harness:microaggregate", "anonymize.microaggregate", "span"),
    ("histmatch.anonymize:weight_l1", "anonymize.weight_l1", "count"),
    ("histmatch.harness:information_loss", "anonymize.information_loss", "span"),
    ("histmatch.harness:verify_k_anonymity", "anonymize.verify", "span"),
    ("histmatch.harness:user_level_accuracy", "harness.score", "span"),
    ("histmatch.harness:cluster_level_accuracy", "harness.score", "span"),
    ("histmatch.harness:bootstrap_ci", "harness.bootstrap_ci", "span"),
]

CLI_TARGETS = [
    ("histmatch.cli:main", "cli.main", "span"),
    ("histmatch.io:read_histogram_set", "io.read_histogram_set", "span"),
    ("histmatch.io:read_event_log", "io.read_event_log", "span"),
    ("histmatch.io:read_aggregation_table", "io.read_aggregation_table", "span"),
    ("histmatch.io:write_histogram_set", "io.write_histogram_set", "span"),
    ("histmatch.io:write_truth", "io.write_truth", "span"),
    ("histmatch.io:write_match_result", "io.write_match_result", "span"),
    ("histmatch.cli:sample_population", "synth.sample_population", "span"),
    ("histmatch.cli:generate_pair", "synth.generate_pair", "span"),
    ("histmatch.synth:build_histogram", "core.build_histogram", "count"),
    ("histmatch.core:build_histogram", "core.build_histogram", "count"),
    ("histmatch.cli:quantize_geo", "core.quantize_geo", "count"),
    ("histmatch.cli:split_by_period", "core.split_by_period", "span"),
    ("histmatch.cli:filter_active_users", "core.filter_active_users", "span"),
    ("histmatch.cli:histograms_by_user", "core.histograms_by_user", "span"),
    ("histmatch.cli:aggregate_locations", "core.aggregate_locations", "count"),
    ("histmatch.cli:build_instance", "matcher.build_instance", "span"),
    ("histmatch.matcher:weight_matrix", "metrics.weight_matrix", "span"),
    ("histmatch.cli:match_min_weight", "matcher.a1", "span"),
    ("histmatch.cli:match_cardinality", "matcher.a2", "span"),
]


def _rows_of(hset) -> int:
    return sum(h.support_count for h in hset.histograms)


# Work counts read off a traced call's arguments or result after its span
# closes: traced name -> (count name, function of (args, result)).
COUNTS = {
    "io.read_histogram_set": ("io.histogram_rows_read", lambda a, r: _rows_of(r)),
    "io.read_event_log": ("io.events_read", lambda a, r: len(r)),
    "io.write_histogram_set": ("io.histogram_rows_written", lambda a, r: _rows_of(a[0])),
    "synth.generate_pair": (
        "synth.draws",
        lambda a, r: sum(h.sample_count for s in r[:2] for h in s.histograms),
    ),
    "matcher.a2": ("matcher.a2_r", lambda a, r: len(r.pairs)),
    "anonymize.microaggregate": ("anonymize.clusters", lambda a, r: r[0].g),
    "anonymize.information_loss": ("anonymize.info_loss", lambda a, r: r),
}


def _resolve(binding: str):
    module_name, attr = binding.split(":")
    return importlib.import_module(module_name), attr


class Patches:
    """Replace module attributes and put the originals back on ``restore``."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, binding: str, make_wrapper) -> None:
        module, attr = _resolve(binding)
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer:
    """Spans and counters of the ops run while it is installed."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op, counted_s)
        self.counts: dict[tuple[int, str], float] = defaultdict(float)  # (op, name) -> value
        self.errors: dict[str, int] = defaultdict(int)  # layer -> exceptions seen
        self.op: int | None = None
        self._stack: list[list] = []  # open spans: [id, counted child seconds]
        self._ids = itertools.count()
        self._patches = Patches()

    # -- installation -----------------------------------------------------
    def install(self, targets) -> None:
        for binding, name, kind in targets:
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            self._patches.replace(binding, lambda fn, name=name, make=make: make(fn, name))

    def uninstall(self) -> None:
        self._patches.restore()

    def begin_op(self, op: int) -> None:
        self.op = op

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, fn, name):
        tracer = self
        layer = name.split(".")[0]
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            full = name
            if name == "metrics.weight_matrix":
                full = f"{name}.{args[2].value}"
            stack = tracer._stack
            frame = [next(tracer._ids), 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((frame[0], full, start, end, parent, tracer.op, frame[1]))
            if count is not None:
                tracer.counts[(tracer.op, count[0])] += count[1](args, result)
            return result

        return traced

    def _count_wrapper(self, fn, name):
        tracer = self
        layer = name.split(".")[0]
        calls_key, time_key = f"{name}_calls", f"{name}_s"

        def counted(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.errors[layer] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                counts = tracer.counts
                counts[(tracer.op, calls_key)] += 1
                counts[(tracer.op, time_key)] += elapsed
                if tracer._stack:
                    tracer._stack[-1][1] += elapsed

        return counted

    # -- export -----------------------------------------------------------
    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": [[op, name, value] for (op, name), value in self.counts.items()],
            "errors": dict(self.errors),
        }


def per_op(dumps: list[dict]):
    """Fold traced spans into per-op self times, inclusive times and counts,
    plus the exceptions seen per layer.

    Several dumps (one per traced process) may share an op id; their values
    add up.  Self time is a span's duration minus its child spans and the
    counted calls made inside it.
    """
    self_s: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    total_s: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    errors: dict[str, int] = defaultdict(int)
    for dump in dumps:
        child_s: dict[int, float] = defaultdict(float)
        for sid, name, start, end, parent, op, counted in dump["spans"]:
            if parent is not None:
                child_s[parent] += end - start
        for sid, name, start, end, parent, op, counted in dump["spans"]:
            duration = end - start
            self_s[op][name] += duration - child_s[sid] - counted
            total_s[op][name] += duration
        for op, name, value in dump["counts"]:
            counts[op][name] += value
        for layer, n in dump["errors"].items():
            errors[layer] += n
    return self_s, total_s, counts, errors
