"""The benchmark's tracer wraps histmatch functions at the names their callers
bind (``perfbench/tracing.py``), and a traced run fails on the first name that
is gone.  The first test checks every such name without running the tracer,
so a deletion that would break ``perfbench/run.py --trace 1`` fails here; the
others install the tracer, unedited, over small harness and CLI runs and
check that every binding still sees a call."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_bindings_resolve_to_callables():
    tracing = _tracing_module()
    bindings = [binding for binding, _, _ in tracing.HARNESS_TARGETS + tracing.CLI_TARGETS]
    assert bindings
    missing = []
    for binding in bindings:
        module_name, attr = binding.split(":")
        if not callable(getattr(importlib.import_module(module_name), attr, None)):
            missing.append(binding)
    assert missing == []


def _traced_names(tracing, targets, run) -> set[str]:
    """Run ``run`` under the benchmark's ``Tracer`` with each binding traced
    under its own name, so two bindings that share a traced name are told
    apart, and return the bindings that recorded a call."""
    tracer = tracing.Tracer()
    tracer.install([(binding, binding, kind) for binding, _, kind in targets])
    try:
        run()
    finally:
        tracer.uninstall()
    assert dict(tracer.errors) == {}
    spans = {span[1] for span in tracer.spans}
    return spans | {name.removesuffix("_calls") for _, name in tracer.counts}


def test_harness_bindings_are_called():
    """A refactor that routes a call around the name the tracer patches leaves
    that layer untimed; each harness binding must see a call."""
    from histmatch import harness

    tracing = _tracing_module()
    configs = [
        harness.ExperimentConfig("overlap", repetitions=1, params={
            "r_values": [4], "n_left": 6, "n_right": 6, "alphabet_size": 20, "t": 30,
        }),
        # Three locations and two draws give at most six distinct histograms
        # for twelve users, so micro-aggregation meets the near-ties that
        # only ``weight_l1`` settles.
        harness.ExperimentConfig("kanon", repetitions=1, params={
            "k_values": [3], "n_users": 12, "alphabet_size": 3, "t": 2,
        }),
    ]
    called = _traced_names(tracing, tracing.HARNESS_TARGETS, lambda: [harness.run_experiment(c) for c in configs])
    assert [b for b, _, _ in tracing.HARNESS_TARGETS if b not in called] == []


def test_cli_bindings_are_called(tmp_path):
    from histmatch import cli

    tracing = _tracing_module()
    left, right = str(tmp_path / "l.csv"), str(tmp_path / "r.csv")
    events, table = tmp_path / "events.csv", tmp_path / "table.csv"
    events.write_text('user,timestamp,location\nu1,10,"39.9,116.3"\nu1,900,"39.9,116.3"\n')
    table.write_text("from,to\n0:0,X\n")
    runs = [
        ["synth", "--users", "6", "--alphabet", "20", "--t1", "30", "--t2", "30",
         "--out-left", left, "--out-right", right, "--out-truth", str(tmp_path / "t.csv")],
        ["ingest", "--events", str(events), "--boundary", "500", "--geo-grid", "100", "--geo-origin", "39.9,116.3",
         "--aggregate-table", str(table), "--out-left", str(tmp_path / "il.csv"), "--out-right", str(tmp_path / "ir.csv")],
        ["match", "--left", left, "--right", right, "--algorithm", "a1", "--out-pairs", str(tmp_path / "p1.csv")],
        ["match", "--left", left, "--right", right, "--algorithm", "a2:3", "--out-pairs", str(tmp_path / "p2.csv")],
    ]
    codes = []
    called = _traced_names(tracing, tracing.CLI_TARGETS, lambda: codes.extend(cli.main(argv) for argv in runs))
    assert codes == [0] * len(runs)
    assert [b for b, _, _ in tracing.CLI_TARGETS if b not in called] == []
