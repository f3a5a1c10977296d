"""Run one workload in this process: set up, time ops for a window, check
every op's output, and write the result as JSON.

Usage: worker.py <workload> <seed> <seconds> <trace 0|1> <workdir> <result.json> [--setup-only]

Started by run.py, which puts the package's ``src`` directory on the path.
Set-up and op times are reported at the reference speed of speed.py, with
the wall times beside them.
"""
from time import perf_counter

import speed

PROBE_BEFORE_SETUP = speed.probe_ms()
STARTED = perf_counter()  # set-up time counts from here, imports included

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FLOAT_RTOL = 1e-9
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _same(a, b) -> bool:
    """Equal, with floats compared to a relative 1e-9 (a kernel may reorder sums)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=FLOAT_RTOL, abs_tol=1e-12)
    return a == b


def _reference_problems(obs: dict, fixed: dict, recorded: dict | None) -> list[str]:
    problems = []
    shape = obs.get("shape", {})
    for key, value in fixed.items():
        if shape.get(key) != value:
            problems.append(f"shape {key} = {shape.get(key)!r}, BENCHMARK reference has {value!r}")
    if recorded is not None:
        for key in ("shape", "total_weight"):
            if not _same(obs.get(key), recorded[key]):
                problems.append(f"{key} {obs.get(key)!r} differs from the reference {recorded[key]!r}")
    return problems


def _median(values):
    return statistics.median(values) if values else 0.0


METRIC_KINDS = ("proposed", "l1", "cosine", "dot")
LAYERS = ("metrics", "matcher", "anonymize", "io", "core", "synth", "harness", "cli")

# Per-layer metric -> traced span whose self time per op it reports.
SELF_TIMES = {
    **{f"metrics.weight_matrix_s.{k}": f"metrics.weight_matrix.{k}" for k in METRIC_KINDS},
    "matcher.build_instance_s": "matcher.build_instance",
    "matcher.a1_s": "matcher.a1",
    "matcher.a2_s": "matcher.a2",
    "anonymize.microaggregate_s": "anonymize.microaggregate",
    "anonymize.information_loss_s": "anonymize.information_loss",
    "anonymize.verify_s": "anonymize.verify",
    "io.read_histogram_set_s": "io.read_histogram_set",
    "io.read_event_log_s": "io.read_event_log",
    "io.read_aggregation_table_s": "io.read_aggregation_table",
    "io.write_histogram_set_s": "io.write_histogram_set",
    "io.write_match_result_s": "io.write_match_result",
    "core.split_by_period_s": "core.split_by_period",
    "core.filter_active_users_s": "core.filter_active_users",
    "core.histograms_by_user_s": "core.histograms_by_user",
    "synth.sample_population_s": "synth.sample_population",
    "synth.generate_pair_s": "synth.generate_pair",
    "harness.run_experiment_s": "harness.run_experiment",
    "harness.score_s": "harness.score",
    "harness.bootstrap_ci_s": "harness.bootstrap_ci",
    "cli.main_s": "cli.main",
}

# Per-layer metric -> value the tracer counted per op.
COUNTED = {
    "matcher.a2_r": "matcher.a2_r",
    "anonymize.weight_l1_s": "anonymize.weight_l1_s",
    "anonymize.l1_calls": "anonymize.weight_l1_calls",
    "anonymize.clusters": "anonymize.clusters",
    "anonymize.info_loss": "anonymize.info_loss",
    "io.histogram_rows_read": "io.histogram_rows_read",
    "io.events_read": "io.events_read",
    "core.quantize_geo_s": "core.quantize_geo_s",
    "core.quantize_geo_calls": "core.quantize_geo_calls",
    "core.build_histogram_s": "core.build_histogram_s",
    "core.build_histogram_calls": "core.build_histogram_calls",
    "core.aggregate_locations_s": "core.aggregate_locations_s",
    "synth.draws": "synth.draws",
    "cli.import_s": "cli.import_s",
}

IO_ROWS = ("io.histogram_rows_read", "io.events_read", "io.histogram_rows_written")


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds else 0.0


def per_layer(wl, ops: list[dict], observed: dict) -> dict:
    """Per-layer metrics: the median over traced ops of each layer's self time
    per op, work counts and rates, plus the run's errors and tracing overhead.

    Set-up spans (op -1, the traced ``synth`` of match_cli) fill in the
    layers an op does not run."""
    self_s, total_s, counts, errors = tracing.per_op(wl.trace_dumps())
    rows = []
    for op in (o for o in ops if o["traced"]):
        s = {**self_s.get(-1, {}), **self_s.get(op["op"], {})}
        t = {**total_s.get(-1, {}), **total_s.get(op["op"], {})}
        c = {**counts.get(-1, {}), **counts.get(op["op"], {})}
        shape = observed.get(op["input"], {}).get("shape", {})
        row = {name: s.get(span, 0.0) for name, span in SELF_TIMES.items()}
        row.update({name: c.get(key, 0) for name, key in COUNTED.items()})
        cooc = shape.get("cooccurrences", 0)
        for kind in METRIC_KINDS:
            row[f"metrics.cooc_per_s.{kind}"] = _rate(cooc, row[f"metrics.weight_matrix_s.{kind}"])
        row["metrics.cooccurrences"] = cooc
        row["metrics.pairs"] = shape.get("N", 0) * shape.get("N_right", 0)
        row["metrics.mean_support"] = shape.get("mean_support", 0.0)
        io_seconds = sum(v for k, v in s.items() if k.startswith("io."))
        row["io.rows_per_s"] = _rate(sum(c.get(k, 0) for k in IO_ROWS), io_seconds)
        row["synth.draws_per_s"] = _rate(c.get("synth.draws", 0), t.get("synth.generate_pair", 0.0))
        rows.append(row)
    metrics = {key: _median([row[key] for row in rows]) for key in (rows[0] if rows else {})}
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = errors.get(layer, 0)
    traced = [o["ref_seconds"] for o in ops if o["traced"]]
    plain = [o["ref_seconds"] for o in ops if not o["traced"]]
    metrics["bench.op_p50_s_traced"] = _median(traced)
    metrics["bench.op_p50_s_untraced"] = _median(plain)
    overhead = _median(traced) - _median(plain)
    metrics["bench.trace_overhead_s"] = overhead
    metrics["bench.trace_overhead_pct"] = 100.0 * overhead / _median(plain) if plain else 0.0
    n_spans = sum(1 for d in wl.trace_dumps() for span in d["spans"] if span[5] >= 0)  # set-up is op -1
    metrics["bench.spans_per_op"] = n_spans / len(traced) if traced else 0.0
    return metrics


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def main(argv: list[str]) -> int:
    name, seed, seconds, trace, workdir, result_path = argv[:6]
    setup_only = "--setup-only" in argv[6:]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    wl = WORKLOADS[name](seed, Path.cwd(), Path(workdir), trace)
    wl.setup()
    setup_wall_s = perf_counter() - STARTED
    probe = speed.probe_ms()
    setup = {"setup_s": speed.at_reference(setup_wall_s, PROBE_BEFORE_SETUP, probe), "setup_wall_s": setup_wall_s}
    if setup_only:
        Path(result_path).write_text(json.dumps(setup), encoding="utf-8")
        return 0

    references = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    reference = references.get(name, {"fixed": {}, "seeds": {}})
    recording = "--record" in argv[6:]
    min_ops = wl.inputs if recording else max(wl.inputs, 4 if trace else 3)
    ops: list[dict] = []
    observed: dict[int, dict] = {}
    failed_inputs: set[int] = set()
    measured = 0.0
    while len(ops) < min_ops or measured + 0.5 * _median([o["seconds"] for o in ops]) < seconds:
        op_id = len(ops)
        j = op_id % wl.inputs
        traced = trace and op_id % 2 == 1  # traced and plain ops alternate
        start = perf_counter()
        try:
            out = wl.op(op_id, j, traced)
            error = None
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        before, probe = probe, speed.probe_ms()
        measured += elapsed
        record = {"op": op_id, "input": j, "seconds": elapsed,
                  "ref_seconds": speed.at_reference(elapsed, before, probe), "traced": traced, "problems": []}
        if error is not None:
            record["problems"].append(error)
        else:
            first = j not in observed
            try:
                obs, problems = wl.observe(j, out, first)
            except Exception as exc:  # a malformed output fails its op
                obs, problems = None, [f"output check raised {type(exc).__name__}: {exc}"]
            record["problems"] += problems
            if obs is not None and first:
                observed[j] = obs
                if not recording:
                    recorded = reference["seeds"].get(str(seed), {}).get(str(j))
                    record["problems"] += _reference_problems(obs, reference["fixed"], recorded)
                if record["problems"]:
                    failed_inputs.add(j)
            elif obs is not None:
                stable = {k: v for k, v in observed[j].items() if k != "shape"}
                if not all(_same(obs[k], v) for k, v in stable.items()):
                    record["problems"].append("output differs from an earlier op on the same input")
                elif j in failed_inputs:  # the first, full check of this output failed
                    record["problems"].append("output equals one that failed its check")
            if isinstance(out, dict) and "rss_kb" in out:
                record["rss_mb"] = out["rss_kb"] / 1024.0
        ops.append(record)

    plain = [o for o in ops if not o["traced"]]
    if wl.in_process:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak_rss_mb = _median([o["rss_mb"] for o in plain if "rss_mb" in o])
    inputs_seen = [observed[j] for j in sorted(observed)]
    result = {
        **setup,
        "op_seconds": [o["ref_seconds"] for o in plain],
        "op_wall_seconds": [o["seconds"] for o in plain],
        "peak_rss_mb": peak_rss_mb,
        "accuracy_pct": statistics.fmean(o["accuracy_pct"] for o in inputs_seen) if inputs_seen else 0.0,
        "ops": ops,
        "observed": {str(j): observed[j] for j in sorted(observed)},
        "versions": versions(),
    }
    if any("info_loss" in o for o in inputs_seen):
        result["info_loss"] = statistics.fmean(o["info_loss"] for o in inputs_seen)
    if trace:
        result["per_layer"] = per_layer(wl, ops, observed)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
