import contextlib
import csv
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
import textwrap
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from histmatch import cli
from histmatch import io as hio
from histmatch.cli import main
from histmatch.core import EARTH_RADIUS_M
from histmatch.harness import _SCENARIOS, SCENARIOS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _must_not_run(*args, **kwargs):
    raise AssertionError("work ran before the output paths were checked")


@pytest.fixture
def synth_files(tmp_path, capsys):
    left = tmp_path / "left.csv"
    right = tmp_path / "right.csv"
    truth = tmp_path / "truth.csv"
    meta = tmp_path / "meta.json"
    code, out, err = run_cli(
        capsys,
        "synth",
        "--users", "12",
        "--alphabet", "30",
        "--alpha", "0.3",
        "--t1", "300",
        "--t2", "300",
        "--seed", "7",
        "--out-left", str(left),
        "--out-right", str(right),
        "--out-truth", str(truth),
        "--out-meta", str(meta),
    )
    assert code == 0, err
    return left, right, truth, meta


class TestSynthCommand:
    def test_outputs(self, synth_files):
        left, right, truth, meta = synth_files
        lset = hio.read_histogram_set(left)
        rset = hio.read_histogram_set(right)
        t = hio.read_truth(truth)
        assert len(lset) == len(rset) == len(t) == 12
        data = json.loads(meta.read_text())
        assert data["generator"] == "numpy-pcg64"
        assert data["overlap"] == 12

    def test_partial_overlap(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys,
            "synth",
            "--n-left", "6", "--n-right", "8", "--overlap", "4",
            "--alphabet", "20", "--t1", "50", "--t2", "50", "--seed", "3",
            "--out-left", str(tmp_path / "l.csv"),
            "--out-right", str(tmp_path / "r.csv"),
            "--out-truth", str(tmp_path / "t.csv"),
        )
        assert code == 0
        t = hio.read_truth(tmp_path / "t.csv")
        assert len(t) == 4

    @pytest.mark.parametrize("side", ["--n-left", "--n-right"])
    def test_side_of_zero_users(self, tmp_path, capsys, side):
        code, out, err = run_cli(
            capsys,
            "synth", "--users", "5", side, "0", "--alphabet", "20", "--t1", "50", "--t2", "50",
            "--out-left", str(tmp_path / "l.csv"), "--out-right", str(tmp_path / "r.csv"),
            "--out-meta", str(tmp_path / "meta.json"),
        )
        assert code == 1 and out == ""
        n_left, n_right = (0, 5) if side == "--n-left" else (5, 0)
        assert json.loads(err) == {
            "error": "InvalidOverlapError",
            "message": f"each side needs at least one user, got n_left={n_left}, n_right={n_right}",
        }
        assert list(tmp_path.iterdir()) == []


class TestMatchCommand:
    def test_a1_recovers_truth(self, tmp_path, capsys, synth_files):
        left, right, truth, _ = synth_files
        pairs = tmp_path / "pairs.csv"
        summary = tmp_path / "summary.json"
        code, out, err = run_cli(
            capsys,
            "match",
            "--left", str(left),
            "--right", str(right),
            "--metric", "proposed",
            "--algorithm", "a1",
            "--out-pairs", str(pairs),
            "--out-summary", str(summary),
        )
        assert code == 0, err
        data = json.loads(summary.read_text())
        assert data["algorithm"] == "A1"
        assert data["cardinality"] == 12
        assert set(data["runtime_ms"]) == {"weights", "solve"}
        # compare the emitted pairs against the ground truth
        t = hio.read_truth(truth)
        lines = pairs.read_text().splitlines()[1:]
        matched = dict(line.split(",")[:2] for line in lines)
        correct = sum(1 for a, b in t.mapping.items() if matched.get(a) == b)
        assert correct == 12

    def test_a2_and_greedy(self, tmp_path, capsys, synth_files):
        left, right, _, _ = synth_files
        for algo, expect in [("a2:5", 5), ("greedy", 12)]:
            pairs = tmp_path / f"pairs_{expect}.csv"
            code, out, err = run_cli(
                capsys,
                "match",
                "--left", str(left), "--right", str(right),
                "--algorithm", algo,
                "--out-pairs", str(pairs),
            )
            assert code == 0, err
            assert json.loads(out)["cardinality"] == expect

    @pytest.mark.parametrize("algorithm", ["a1", "greedy"])
    def test_larger_left_side_is_one_swap_sides_error(self, tmp_path, capsys, algorithm):
        left, right = tmp_path / "l.csv", tmp_path / "r.csv"
        left.write_text("owner,location,probability\nu1,a,1.0\nu2,b,1.0\nu3,a,0.5\nu3,b,0.5\n")
        right.write_text("owner,location,probability\nv1,a,1.0\nv2,b,1.0\n")
        code, out, err = run_cli(capsys, "match", "--left", str(left), "--right", str(right),
                                 "--algorithm", algorithm, "--out-pairs", str(tmp_path / "p.csv"))
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "SwapSidesError",
            "message": "left side has 3 nodes but right side only 2; pass the smaller set as the left (unlabeled) side",
        }
        assert not (tmp_path / "p.csv").exists()

    def test_metric_is_case_insensitive(self, tmp_path, capsys, synth_files):
        left, right, _, _ = synth_files
        for metric in ("L1", "l1"):
            code, out, err = run_cli(
                capsys,
                "match",
                "--left", str(left), "--right", str(right),
                "--metric", metric,
                "--out-pairs", str(tmp_path / f"pairs_{metric}.csv"),
            )
            assert code == 0, err
        assert (tmp_path / "pairs_L1.csv").read_bytes() == (tmp_path / "pairs_l1.csv").read_bytes()

    def test_brute_on_small_sets(self, tmp_path, capsys):
        small_left = tmp_path / "sl.csv"
        small_right = tmp_path / "sr.csv"
        run_cli(
            capsys, "synth", "--users", "5", "--alphabet", "12", "--t1", "80", "--t2", "80",
            "--seed", "2", "--out-left", str(small_left), "--out-right", str(small_right),
        )
        pairs = tmp_path / "bf.csv"
        code, out, err = run_cli(
            capsys,
            "match",
            "--left", str(small_left), "--right", str(small_right),
            "--algorithm", "brute",
            "--out-pairs", str(pairs),
        )
        assert code == 0, err
        summary = json.loads(out)
        assert summary["algorithm"] == "BruteForce"
        assert summary["cardinality"] == 5

    def test_unknown_algorithm(self, tmp_path, capsys, synth_files):
        left, right, _, _ = synth_files
        code, out, err = run_cli(
            capsys,
            "match",
            "--left", str(left), "--right", str(right),
            "--algorithm", "simplex",
            "--out-pairs", str(tmp_path / "p.csv"),
        )
        assert code == 2
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("algorithm", ["a2:x", "brute:x", "a2:", "brute:", "a1:3", "a2"])
    def test_malformed_algorithm_is_usage_error(self, tmp_path, capsys, synth_files, algorithm):
        left, right, _, _ = synth_files
        code, out, err = run_cli(
            capsys,
            "match",
            "--left", str(left), "--right", str(right),
            "--algorithm", algorithm,
            "--out-pairs", str(tmp_path / "p.csv"),
        )
        assert code == 2
        assert json.loads(err)["error"] == "usage"
        assert not (tmp_path / "p.csv").exists()

    def test_missing_file_error_json(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys,
            "match",
            "--left", str(tmp_path / "absent.csv"),
            "--right", str(tmp_path / "absent2.csv"),
            "--out-pairs", str(tmp_path / "p.csv"),
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "FileNotFound"

    @pytest.mark.parametrize("bad_arg", ["--left", "--out-pairs"])
    def test_directory_path_is_a_json_error(self, tmp_path, capsys, synth_files, bad_arg):
        left, right, _, _ = synth_files
        args = {"--left": str(left), "--right": str(right), "--out-pairs": str(tmp_path / "p.csv")}
        args[bad_arg] = str(tmp_path)
        code, out, err = run_cli(capsys, "match", *(x for pair in args.items() for x in pair))
        assert code == 1
        assert json.loads(err)["error"] == "IsADirectoryError"

    @pytest.mark.parametrize("bad_arg, bad_path, kind", [
        ("--out-pairs", ".", "IsADirectoryError"),
        ("--out-summary", ".", "IsADirectoryError"),
        ("--out-pairs", "missing/p.csv", "FileNotFound"),
        ("--out-summary", "missing/s.json", "FileNotFound"),
    ])
    def test_output_paths_checked_before_reading(self, tmp_path, capsys, monkeypatch, synth_files, bad_arg, bad_path, kind):
        left, right, _, _ = synth_files
        monkeypatch.setattr(hio, "read_histogram_set", _must_not_run)
        monkeypatch.setattr(cli, "build_instance", _must_not_run)
        args = {"--left": str(left), "--right": str(right), "--out-pairs": str(tmp_path / "p.csv"),
                "--out-summary": str(tmp_path / "s.json")}
        args[bad_arg] = str(tmp_path / bad_path)
        code, out, err = run_cli(capsys, "match", *(x for pair in args.items() for x in pair))
        assert code == 1
        assert json.loads(err)["error"] == kind
        assert not (tmp_path / "p.csv").exists()


class TestAnonymizeCommand:
    def test_released_and_partition(self, tmp_path, capsys, synth_files):
        left, _, _, _ = synth_files
        released = tmp_path / "released.csv"
        partition = tmp_path / "partition.json"
        code, out, err = run_cli(
            capsys,
            "anonymize",
            "--input", str(left),
            "--k", "3",
            "--out-released", str(released),
            "--out-partition", str(partition),
        )
        assert code == 0, err
        stats = json.loads(out)
        assert stats["k"] >= 3
        assert 0.0 <= stats["L"] <= 1.0
        rel = hio.read_histogram_set(released)
        assert len(rel) == 12
        part = json.loads(partition.read_text())
        assert sum(len(c) for c in part["clusters"]) == 12

    def test_invalid_k(self, tmp_path, capsys, synth_files):
        left, _, _, _ = synth_files
        code, out, err = run_cli(
            capsys,
            "anonymize",
            "--input", str(left),
            "--k", "40",
            "--out-released", str(tmp_path / "rel.csv"),
        )
        assert code == 1
        assert json.loads(err)["error"] == "InvalidKError"


class TestReaderErrors:
    @pytest.mark.parametrize("command, rows, message", [
        ("match", ["u1,a,0.5", "u1,b,half"], ":3: probability 'half' is not a number"),
        ("anonymize", ["u1,a,0.5", "u2,a,1.0", "u1,b,0.25", "u1,a,0.25"], ":5: duplicate location 'a' for owner 'u1'"),
    ])
    def test_one_json_line_naming_the_line(self, tmp_path, command, rows, message):
        bad = tmp_path / "bad.csv"
        bad.write_text("owner,location,probability\n" + "\n".join(rows) + "\n")
        good = tmp_path / "good.csv"
        good.write_text("owner,location,probability\nv1,a,1.0\nv2,b,1.0\n")
        argv = {
            "match": ["--left", str(bad), "--right", str(good), "--out-pairs", str(tmp_path / "p.csv")],
            "anonymize": ["--input", str(bad), "--k", "1", "--out-released", str(tmp_path / "r.csv")],
        }[command]
        out = subprocess.run(
            [sys.executable, "-m", "histmatch.cli", command, *argv], capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 1
        assert out.stderr.splitlines() == [json.dumps({"error": "FileFormatError", "message": f"{bad}{message}"})]

    @pytest.mark.parametrize("body, message", [
        (f"u1,a,1.0\nu2,{'x' * (csv.field_size_limit() + 1)},1.0\n".encode(), ":3: field larger than field limit"),
        (b"u1,a,1.0\nu2,\xff,1.0\n", ": not UTF-8 text"),
    ], ids=["field-limit", "not-utf8"])
    def test_csv_and_decode_errors_name_the_file(self, tmp_path, body, message):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"owner,location,probability\n" + body)
        good = tmp_path / "good.csv"
        good.write_text("owner,location,probability\nv1,a,1.0\nv2,b,1.0\n")
        argv = ["match", "--left", str(bad), "--right", str(good), "--out-pairs", str(tmp_path / "p.csv")]
        out = subprocess.run([sys.executable, "-m", "histmatch.cli", *argv], capture_output=True, text=True, timeout=120)
        assert out.returncode == 1
        [line] = out.stderr.splitlines()  # one JSON line, no traceback
        error = json.loads(line)
        assert error["error"] == "FileFormatError"
        assert error["message"].startswith(f"{bad}{message}")


class TestIngestCommand:
    def test_split_filter_and_histograms(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        events.write_text(
            "user,timestamp,location\n"
            "u1,100,a\nu1,150,b\nu1,900,a\n"
            "u2,120,c\nu2,880,c\n"
            "u3,130,a\n"  # inactive in second period: dropped
        )
        left = tmp_path / "left.csv"
        right = tmp_path / "right.csv"
        code, out, err = run_cli(
            capsys,
            "ingest",
            "--events", str(events),
            "--boundary", "500",
            "--out-left", str(left),
            "--out-right", str(right),
        )
        assert code == 0, err
        info = json.loads(out)
        assert info["active_users"] == 2
        lset = hio.read_histogram_set(left)
        rset = hio.read_histogram_set(right)
        assert set(lset.owners) == {"u1", "u2"}
        assert lset.histogram("u1").mass == {"a": 0.5, "b": 0.5}
        assert rset.histogram("u1").mass == {"a": 1.0}

    def test_geo_quantization(self, tmp_path, capsys):
        origin = (39.9, 116.3)
        north = origin[0] + math.degrees(150.0 / EARTH_RADIUS_M)
        events = tmp_path / "events.csv"
        events.write_text(
            "user,timestamp,location\n"
            f'u1,10,"{origin[0]},{origin[1]}"\n'
            f'u1,900,"{north},{origin[1]}"\n'
        )
        left = tmp_path / "left.csv"
        right = tmp_path / "right.csv"
        code, out, err = run_cli(
            capsys,
            "ingest",
            "--events", str(events),
            "--boundary", "500",
            "--out-left", str(left),
            "--out-right", str(right),
            "--geo-grid", "100",
            "--geo-origin", f"{origin[0]},{origin[1]}",
        )
        assert code == 0, err
        lset = hio.read_histogram_set(left)
        rset = hio.read_histogram_set(right)
        assert lset.histogram("u1").mass == {"0:0": 1.0}
        assert rset.histogram("u1").mass == {"1:0": 1.0}

    def test_geo_bad_location(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        events.write_text("user,timestamp,location\nu1,10,39.9;116.3\nu1,900,39.9;116.3\n")
        code, out, err = run_cli(
            capsys,
            "ingest",
            "--events", str(events), "--boundary", "500",
            "--out-left", str(tmp_path / "l.csv"), "--out-right", str(tmp_path / "r.csv"),
            "--geo-grid", "100",
        )
        assert code == 1
        assert json.loads(err) == {
            "error": "HistmatchError", "message": "expected 'lat,lon', got '39.9;116.3'",
        }

    @pytest.mark.parametrize("side", ["inf", "nan"])
    def test_geo_grid_not_finite(self, tmp_path, capsys, side):
        # An infinite cell side once put every point in cell 0:0.
        events = tmp_path / "events.csv"
        events.write_text('user,timestamp,location\nu1,10,"39.9,116.3"\nu1,900,"40.9,116.3"\n')
        code, out, err = run_cli(
            capsys,
            "ingest",
            "--events", str(events), "--boundary", "500",
            "--out-left", str(tmp_path / "l.csv"), "--out-right", str(tmp_path / "r.csv"),
            "--geo-grid", side,
        )
        assert code == 1
        assert json.loads(err) == {
            "error": "ValueError", "message": f"cell_side must be positive and finite, got {float(side)!r}",
        }
        assert not (tmp_path / "l.csv").exists()

    @pytest.mark.parametrize("side", ["nan", "-5", "inf", "0"])
    def test_geo_grid_checked_on_empty_log(self, tmp_path, capsys, side):
        # A log with no points never reaches the per-point check.
        events = tmp_path / "events.csv"
        events.write_text("user,timestamp,location\n")
        code, out, err = run_cli(
            capsys,
            "ingest",
            "--events", str(events), "--boundary", "500",
            "--out-left", str(tmp_path / "l.csv"), "--out-right", str(tmp_path / "r.csv"),
            f"--geo-grid={side}",
        )
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "ValueError", "message": f"cell_side must be positive and finite, got {float(side)!r}",
        }
        assert not (tmp_path / "l.csv").exists()

    def test_geo_grid_checked_before_reading(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys,
            "ingest",
            "--events", str(tmp_path / "missing.csv"), "--boundary", "500",
            "--out-left", str(tmp_path / "l.csv"), "--out-right", str(tmp_path / "r.csv"),
            "--geo-grid=-5",
        )
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": "cell_side must be positive and finite, got -5.0"}

    @pytest.mark.parametrize("location, side", [("1e308,116.3", "100"), ("39.9,116.3", "1e-320")])
    def test_geo_cell_index_overflow(self, tmp_path, capsys, location, side):
        # A finite point far off, or a subnormal cell side, puts the point an infinite number of cells away.
        events = tmp_path / "events.csv"
        events.write_text(f'user,timestamp,location\nu1,10,"{location}"\nu1,900,"39.9,116.3"\n')
        code, out, err = run_cli(
            capsys,
            "ingest",
            "--events", str(events), "--boundary", "500",
            "--out-left", str(tmp_path / "l.csv"), "--out-right", str(tmp_path / "r.csv"),
            "--geo-grid", side,
        )
        assert code == 1 and out == ""
        lat, lon = map(float, location.split(","))
        assert json.loads(err) == {
            "error": "InvalidCoordinateError",
            "message": f"cell index of ({lat!r}, {lon!r}) overflows at cell side {float(side)!r}",
        }
        assert not (tmp_path / "l.csv").exists()

    @pytest.mark.parametrize("origin", ["nan,0", "inf,0"])
    def test_geo_origin_not_finite(self, tmp_path, capsys, origin):
        events = tmp_path / "events.csv"
        events.write_text('user,timestamp,location\nu1,10,"39.9,116.3"\nu1,900,"40.9,116.3"\n')
        code, out, err = run_cli(
            capsys,
            "ingest",
            "--events", str(events), "--boundary", "500",
            "--out-left", str(tmp_path / "l.csv"), "--out-right", str(tmp_path / "r.csv"),
            "--geo-grid", "100", "--geo-origin", origin,
        )
        assert code == 1
        assert json.loads(err) == {"error": "InvalidCoordinateError", "message": f"non-finite --geo-origin {origin!r}"}
        assert not (tmp_path / "l.csv").exists()

    def test_geo_origin_checked_before_reading(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys,
            "ingest",
            "--events", str(tmp_path / "missing.csv"), "--boundary", "500",
            "--out-left", str(tmp_path / "l.csv"), "--out-right", str(tmp_path / "r.csv"),
            "--geo-grid", "100", "--geo-origin", "x,y",
        )
        assert code == 1
        assert json.loads(err) == {"error": "HistmatchError", "message": "expected numeric 'lat,lon', got 'x,y'"}

    def test_aggregation_table(self, tmp_path, capsys):
        events = tmp_path / "events.csv"
        events.write_text(
            "user,timestamp,location\nu1,10,a\nu1,20,b\nu1,900,a\n"
        )
        table = tmp_path / "table.csv"
        table.write_text("from,to\na,X\nb,X\n")
        left = tmp_path / "left.csv"
        right = tmp_path / "right.csv"
        code, out, err = run_cli(
            capsys,
            "ingest",
            "--events", str(events), "--boundary", "500",
            "--out-left", str(left), "--out-right", str(right),
            "--aggregate-table", str(table),
        )
        assert code == 0, err
        lset = hio.read_histogram_set(left)
        assert lset.histogram("u1").mass == {"X": 1.0}


class TestExperimentCommand:
    def test_runs_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "scenario": "vary_n",
            "metrics": ["proposed", "l1"],
            "repetitions": 2,
            "seed": 5,
            "params": {"n_values": [8, 12]},
        }))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(
            capsys, "experiment", "--config", str(config), "--out-dir", str(out_dir)
        )
        assert code == 0, err
        assert (out_dir / "results.csv").exists()
        assert (out_dir / "metadata.json").exists()
        assert json.loads(out)["rows"] == 4

    def test_bad_config(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "warp"}))
        code, out, err = run_cli(
            capsys, "experiment", "--config", str(config), "--out-dir", str(tmp_path / "o")
        )
        assert code == 1
        assert json.loads(err)["error"] == "ConfigError"

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"scenario": "vary_n", "repetitions": "3"}, "repetitions must be of type int, got str"),
            ({"scenario": "vary_n", "repetitions": True}, "repetitions must be of type int, got bool"),
            ({"scenario": "vary_n", "workers": "2"}, "workers must be of type int, got str"),
            ({"scenario": "vary_n", "seed": 1.5}, "seed must be of type int, got float"),
            ({"scenario": 3}, "scenario must be of type str, got int"),
            ({"scenario": "vary_n", "params": [1]}, "params must be of type dict, got list"),
            ({"scenario": "vary_n", "params": {"n_values": 5}}, "n_values must be a non-empty list"),
            ({"scenario": "vary_n", "metrics": "proposed"}, "metrics must be of type list, got str"),
            ({"scenario": "vary_n", "metrics": ["proposed", 3]}, "unknown metric 3; expected one of"),
            ([1, 2], "config must be a JSON object, got list"),
            ({"scenario": "vary_n", "metrics": []}, "metrics must not be empty"),
            ({"scenario": "vary_t", "params": {"n_user": 5}}, "unknown param 'n_user' for scenario 'vary_t'"),
            ({"scenario": "vary_n", "params": {"event_log": "x.csv"}}, "unknown param 'event_log'"),
            ({"scenario": "vary_n", "params": {"t": "x"}}, "t must be of type int, got str"),
            ({"scenario": "vary_n", "params": {"alphabet_size": 2.5}}, "alphabet_size must be of type int, got float"),
            ({"scenario": "vary_n", "params": {"concentration": True}}, "concentration must be of type float, got bool"),
            ({"scenario": "kanon", "params": {"k_values": [2.5]}}, "k_values must be a non-empty list of positive ints"),
            ({"scenario": "vary_n", "params": {"n_values": [True]}}, "n_values must be a non-empty list of positive ints"),
            ({"scenario": "aggregate", "params": {"group_counts": [0]}}, "group_counts must be a non-empty list of positive"),
            (
                {"scenario": "aggregate", "params": {"event_log": "x.csv", "boundary": 1, "cell_sides": [0]}},
                "cell_sides must be a non-empty list of positive numbers",
            ),
            (
                {"scenario": "aggregate", "params": {"event_log": "x.csv", "boundary": 1, "cell_sides": [9], "geo_origin": [1]}},
                "geo_origin must be a list of two numbers",
            ),
        ],
    )
    def test_malformed_config_is_a_json_error(self, tmp_path, capsys, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run_cli(
            capsys, "experiment", "--config", str(path), "--out-dir", str(tmp_path / "o")
        )
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ConfigError"
        assert payload["message"].startswith(message)


    def test_uncountable_repetitions_fail_at_once(self, tmp_path, capsys):
        # No run of 10**30 repetitions could finish, so the config fails before any task is built.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": "kanon", "repetitions": 10**30}))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "experiment", "--config", str(path), "--out-dir", str(tmp_path / "o"))
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        [line] = err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ConfigError" and "exceeds sys.maxsize" in payload["message"]

    def test_out_dir_that_is_a_file_is_a_json_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "vary_n", "repetitions": 1, "params": {"n_values": [3]}}))
        code, out, err = run_cli(capsys, "experiment", "--config", str(config), "--out-dir", str(config))
        assert code == 1
        assert json.loads(err)["error"] == "FileExistsError"

    def test_out_dir_checked_before_any_repetition(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_experiment", _must_not_run)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "vary_n", "repetitions": 1, "params": {"n_values": [3]}}))
        code, out, err = run_cli(capsys, "experiment", "--config", str(config), "--out-dir", str(config))
        assert code == 1
        assert json.loads(err)["error"] == "FileExistsError"

    def test_out_dir_created_before_the_run(self, tmp_path, capsys, monkeypatch):
        seen = []

        def run_experiment(config, out_dir):
            seen.append(os.path.isdir(out_dir))
            return SimpleNamespace(rows=[])

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"scenario": "vary_n", "repetitions": 1, "params": {"n_values": [3]}}))
        out_dir = tmp_path / "a" / "b"
        code, out, err = run_cli(capsys, "experiment", "--config", str(config), "--out-dir", str(out_dir))
        assert code == 0, err
        assert seen == [True]


class TestOneLocationAlphabet:
    """A Dirichlet over one location draws [1.0] every time, so asking for two
    distinct users once never returned.  Each command runs in a subprocess so
    that a hang fails the test instead of the suite."""

    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "histmatch.cli", *map(str, argv)], capture_output=True, text=True, timeout=60,
        )

    def test_synth(self, tmp_path):
        out = self._run("synth", "--users", "3", "--alphabet", "1",
                        "--out-left", tmp_path / "l.csv", "--out-right", tmp_path / "r.csv")
        assert out.returncode == 1
        assert json.loads(out.stderr) == {
            "error": "ValueError", "message": "more than one user needs an alphabet of at least two locations",
        }

    def test_experiment(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "scenario": "vary_n", "repetitions": 1, "params": {"n_values": [3], "t": 10, "alphabet_size": 1},
        }))
        out = self._run("experiment", "--config", config, "--out-dir", tmp_path / "o")
        assert out.returncode == 1
        assert json.loads(out.stderr)["error"] == "ValueError"


class TestNonFiniteConcentration:
    """A NaN or infinite Dirichlet concentration once redrew its all-NaN rows
    forever.  Each command runs in a subprocess so that a hang fails the test
    instead of the suite."""

    _run = TestOneLocationAlphabet._run

    @pytest.mark.parametrize("alpha", ["nan", "inf"])
    def test_synth_concentration(self, tmp_path, alpha):
        out = self._run("synth", "--users", "3", "--alphabet", "5", "--alpha", alpha,
                        "--out-left", tmp_path / "l.csv", "--out-right", tmp_path / "r.csv")
        assert out.returncode == 1
        assert json.loads(out.stderr) == {
            "error": "ValueError", "message": "population parameters must be positive and finite",
        }

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_experiment_concentration(self, tmp_path, value):
        config = tmp_path / "c.json"
        config.write_text('{"scenario": "vary_n", "repetitions": 1, "params": {"concentration": %s}}' % value)
        out = self._run("experiment", "--config", config, "--out-dir", tmp_path / "o")
        assert out.returncode == 1
        assert json.loads(out.stderr) == {
            "error": "ConfigError", "message": f"concentration must be positive and finite, got {float(value)!r}",
        }


class TestExhaustedConcentration:
    """At --alpha 1e60 every Dirichlet draw is the uniform vector, and at
    1e-300 one of the ten one-hot vectors, so 20 distinct users were redrawn
    forever.  Each command runs in a subprocess so that a hang fails the test
    instead of the suite."""

    _run = TestOneLocationAlphabet._run

    @pytest.mark.parametrize("alpha, drawn", [("1e60", 1), ("1e-300", 10)])
    def test_synth(self, tmp_path, alpha, drawn):
        out = self._run("synth", "--users", "20", "--alphabet", "10", "--alpha", alpha,
                        "--out-left", tmp_path / "l.csv", "--out-right", tmp_path / "r.csv")
        assert out.returncode == 1
        error = json.loads(out.stderr)
        assert error["error"] == "InvalidPopulationError"
        assert f"only {drawn} of 20 distinct users" in error["message"]
        assert out.stdout == "" and not (tmp_path / "l.csv").exists()

    def test_experiment(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "scenario": "vary_n", "repetitions": 1,
            "params": {"n_values": [20], "alphabet_size": 10, "concentration": 1e300},
        }))
        out = self._run("experiment", "--config", config, "--out-dir", tmp_path / "o")
        assert out.returncode == 1
        assert json.loads(out.stderr)["error"] == "InvalidPopulationError"


class TestMemoryError:
    class _ArrayMemoryError(MemoryError):
        """What numpy raises when an array does not fit."""

    @pytest.mark.parametrize("exc, message", [
        (_ArrayMemoryError("Unable to allocate 7.45 GiB for an array"), "Unable to allocate 7.45 GiB for an array"),
        (MemoryError(), "out of memory"),
    ])
    def test_one_json_error(self, tmp_path, capsys, monkeypatch, exc, message):
        def exhausted(spec):
            raise exc

        monkeypatch.setattr(cli, "sample_population", exhausted)
        code, out, err = run_cli(capsys, "synth", "--users", "3",
                                 "--out-left", str(tmp_path / "l.csv"), "--out-right", str(tmp_path / "r.csv"))
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": "MemoryError", "message": message}


class TestMatrixTooLarge:
    """The dense 12 x 12 matrix takes 1152 bytes; a smaller address-space
    limit or physical memory refuses it before it is allocated."""

    @pytest.mark.parametrize("rlimit, pages", [(1000, 1 << 20), (-1, 100)])
    def test_match_prints_one_json_error(self, synth_files, tmp_path, capsys, monkeypatch, rlimit, pages):
        left, right, _, _ = synth_files
        monkeypatch.setattr(resource, "getrlimit", lambda which: (rlimit, -1))
        monkeypatch.setattr(os, "sysconf", lambda name: pages if name == "SC_PHYS_PAGES" else 10)
        code, out, err = run_cli(capsys, "match", "--left", str(left), "--right", str(right),
                                 "--out-pairs", str(tmp_path / "pairs.csv"))
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "MatrixTooLargeError"
        assert "a 12 x 12 weight matrix needs 1152 bytes" in error["message"]
        assert not (tmp_path / "pairs.csv").exists()


class TestOverflowingConcentration:
    """At --alpha 1e308 the gamma draws overflow and every Dirichlet row sums
    to 0; the first batch fails, naming the concentration."""

    @pytest.mark.parametrize("users, alphabet", [("1", "2"), ("3", "12")])
    def test_synth(self, tmp_path, capsys, users, alphabet):
        code, out, err = run_cli(capsys, "synth", "--users", users, "--alphabet", alphabet, "--alpha", "1e308",
                                 "--out-left", str(tmp_path / "l.csv"), "--out-right", str(tmp_path / "r.csv"))
        assert code == 1 and out == ""
        assert json.loads(err) == {
            "error": "InvalidPopulationError",
            "message": f"Dirichlet rows drawn at concentration 1e+308 over {alphabet} locations do not sum to 1",
        }
        assert not (tmp_path / "l.csv").exists()


class TestSynthMemory:
    def test_population_freed_before_the_sets_are_written(self, tmp_path, capsys, monkeypatch):
        batches, alive = [], []
        sample, write = cli.sample_population, hio.write_histogram_set

        def sample_and_watch(spec):
            population = sample(spec)
            batches.append(weakref.ref(population[0].base))
            return population

        def write_and_check(*args, **kwargs):
            alive.append(batches[-1]() is not None)
            return write(*args, **kwargs)

        monkeypatch.setattr(cli, "sample_population", sample_and_watch)
        monkeypatch.setattr(hio, "write_histogram_set", write_and_check)
        code, _, err = run_cli(capsys, "synth", "--users", "8", "--alphabet", "20", "--t1", "30", "--t2", "30",
                               "--out-left", str(tmp_path / "l.csv"), "--out-right", str(tmp_path / "r.csv"))
        assert code == 0, err
        assert alive == [False, False]


class TestSolverLoading:
    def test_no_command_loads_scipy_optimize(self, tmp_path):
        (tmp_path / "events.csv").write_text("user,timestamp,location\nu1,100,a\nu1,900,a\nu2,120,c\nu2,880,b\n")
        (tmp_path / "config.json").write_text(json.dumps({
            "scenario": "vary_n", "repetitions": 1, "params": {"n_values": [6], "t": 40, "alphabet_size": 20},
        }))
        script = textwrap.dedent("""
            import sys
            from histmatch import matcher
            from histmatch.cli import main
            d = sys.argv[1] + "/"
            assert main(["synth", "--users", "6", "--alphabet", "20", "--t1", "40", "--t2", "40",
                         "--out-left", d + "l.csv", "--out-right", d + "r.csv"]) == 0
            assert main(["ingest", "--events", d + "events.csv", "--boundary", "500",
                         "--out-left", d + "il.csv", "--out-right", d + "ir.csv"]) == 0
            assert main(["anonymize", "--input", d + "l.csv", "--k", "2", "--out-released", d + "rel.csv"]) == 0
            match = ["match", "--left", d + "l.csv", "--right", d + "r.csv", "--out-pairs", d + "p.csv"]
            assert main(match + ["--algorithm", "a1"]) == 0
            certified, calls = matcher._certified_min_weight, []
            matcher._certified_min_weight = lambda instance: calls.append(certified(instance)) or calls[-1]
            matcher.CERTIFIED_MIN_COOCCURRENCES = 0
            assert main(match + ["--algorithm", "a1"]) == 0
            assert len(calls) == 1 and calls[0] is not None, "a1 did not certify its matching"
            assert main(match + ["--algorithm", "a2:3"]) == 0
            assert main(match + ["--algorithm", "greedy"]) == 0
            assert "numpy.ma" not in sys.modules, "a match loaded numpy.ma"
            assert main(["experiment", "--config", d + "config.json", "--out-dir", d + "o"]) == 0
            assert "scipy.optimize" not in sys.modules, "a command loaded scipy.optimize"
            import scipy.optimize
            assert scipy.optimize.linear_sum_assignment is matcher._linear_sum_assignment()
        """)
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "p.csv").exists() and (tmp_path / "o" / "results.csv").exists()

    def test_no_command_loads_scipy_sparse(self, tmp_path):
        (tmp_path / "events.csv").write_text("user,timestamp,location\nu1,100,a\nu1,900,a\nu2,120,c\nu2,880,b\n")
        (tmp_path / "config.json").write_text(json.dumps({
            "scenario": "vary_n", "repetitions": 1, "metrics": ["proposed"],
            "params": {"n_values": [6], "t": 40, "alphabet_size": 20},
        }))
        (tmp_path / "kanon.json").write_text(json.dumps({
            "scenario": "kanon", "repetitions": 1, "metrics": ["proposed", "l1", "cosine", "dot"],
            "params": {"k_values": [2], "n_users": 12, "t": 40, "alphabet_size": 20},
        }))
        script = textwrap.dedent("""
            import sys
            from histmatch import matcher
            from histmatch.cli import main
            d = sys.argv[1] + "/"
            assert "scipy.sparse" not in sys.modules, "importing histmatch loaded scipy.sparse"
            assert main(["synth", "--users", "6", "--alphabet", "20", "--t1", "40", "--t2", "40",
                         "--out-left", d + "l.csv", "--out-right", d + "r.csv"]) == 0
            assert main(["ingest", "--events", d + "events.csv", "--boundary", "500",
                         "--out-left", d + "il.csv", "--out-right", d + "ir.csv"]) == 0
            assert main(["anonymize", "--input", d + "l.csv", "--k", "2", "--out-released", d + "rel.csv"]) == 0
            match = ["match", "--left", d + "l.csv", "--right", d + "r.csv", "--out-pairs", d + "p.csv"]
            assert main(match + ["--algorithm", "a1"]) == 0
            assert "scipy" not in sys.modules, "an a1 match imported the scipy package"
            certified, calls = matcher._certified_min_weight, []
            matcher._certified_min_weight = lambda instance: calls.append(certified(instance)) or calls[-1]
            matcher.CERTIFIED_MIN_COOCCURRENCES = 0
            assert main(match + ["--algorithm", "a1"]) == 0
            assert len(calls) == 1 and calls[0] is not None, "a1 did not certify its matching"
            assert main(match + ["--algorithm", "a1", "--metric", "l1"]) == 0
            assert main(match + ["--algorithm", "a2:3"]) == 0
            assert main(match + ["--algorithm", "greedy"]) == 0
            assert main(["experiment", "--config", d + "config.json", "--out-dir", d + "o"]) == 0
            for metric in ("cosine", "dot"):
                for algorithm in ("a1", "a2:3", "greedy"):
                    out = d + metric + "-" + algorithm.replace(":", "") + ".csv"
                    assert main(match[:-1] + [out, "--metric", metric, "--algorithm", algorithm]) == 0
            assert "scipy" not in sys.modules, "a cosine or dot match imported the scipy package"
            assert main(["experiment", "--config", d + "kanon.json", "--out-dir", d + "k"]) == 0
            assert "scipy.sparse" not in sys.modules, "a command loaded scipy.sparse"
            assert "multiprocessing" not in sys.modules, "a command loaded multiprocessing"
        """)
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "k" / "results.csv").exists()
        # The same cosine and dot pairs from a process that loaded scipy.sparse before histmatch.
        first = "import sys, scipy.sparse; from histmatch.cli import main; sys.exit(main(sys.argv[1:]))"
        for metric in ("cosine", "dot"):
            args = ["match", "--left", tmp_path / "l.csv", "--right", tmp_path / "r.csv", "--metric", metric]
            out = subprocess.run([sys.executable, "-c", first, *args, "--out-pairs", tmp_path / "first.csv"], capture_output=True, text=True, timeout=120)
            assert out.returncode == 0, out.stderr
            assert (tmp_path / "first.csv").read_bytes() == (tmp_path / f"{metric}-a1.csv").read_bytes()


class TestLazyModules:
    def test_match_and_synth_leave_anonymize_and_harness_unloaded(self, tmp_path):
        script = textwrap.dedent("""
            import sys
            from histmatch.cli import main
            d = sys.argv[1] + "/"
            assert main(["synth", "--users", "6", "--alphabet", "20", "--t1", "40", "--t2", "40",
                         "--out-left", d + "l.csv", "--out-right", d + "r.csv"]) == 0
            assert main(["match", "--left", d + "l.csv", "--right", d + "r.csv", "--out-pairs", d + "p.csv"]) == 0
            lazy = {"histmatch.anonymize", "histmatch.harness"}
            assert lazy.isdisjoint(sys.modules), sorted(lazy & set(sys.modules))
            from histmatch import microaggregate, run_experiment
            from histmatch import anonymize, harness
            import histmatch
            assert run_experiment is harness.run_experiment and microaggregate is anonymize.microaggregate
            assert histmatch.ClusterPartition is anonymize.ClusterPartition and histmatch.harness is harness
            assert main(["anonymize", "--input", d + "l.csv", "--k", "2", "--out-released", d + "rel.csv"]) == 0
        """)
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "rel.csv").exists()

    def test_unknown_names_raise_attribute_error(self):
        import histmatch

        for module in (histmatch, cli):
            with pytest.raises(AttributeError):
                module.no_such_name


class TestConsoleScript:
    def test_entrypoint_runs(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "histmatch.cli", "--help"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "ingest" in out.stdout and "experiment" in out.stdout


# Field texts the fuzz test draws from: numbers at the float edges, and text
# that is no number at all.
_NUMBER_TEXTS = ["1", "1.0", "0.5", " 0.25 ", "nan", "inf", "-inf", "1e308", "1e-320", "-0.0", "0", "-1", "x", ""]
_SIZES = st.integers(-1, 6)
# True one time in four: most examples get past the checks to the work.
_RARELY = st.sampled_from([False, False, False, True])


@st.composite
def _histogram_csv(draw) -> bytes:
    """A histogram CSV of at most 6 owners over at most 12 locations: a valid
    set, one with masses at the float edges, rows of any field texts, or the
    header alone, each then perhaps quoted, cut short, written with CRLF or
    spoiled by a byte that is not UTF-8."""
    kind = draw(st.sampled_from(["valid", "valid", "valid", "extreme", "rows", "header", "empty"]))
    rows = []
    if kind in ("valid", "extreme"):
        for i in range(draw(st.integers(1, 6))):
            locations = draw(st.lists(st.integers(0, 11), min_size=1, max_size=4, unique=True))
            weights = draw(st.lists(st.integers(1, 5), min_size=len(locations), max_size=len(locations)))
            rows += [(f"u{i}", f"L{loc}", repr(w / sum(weights))) for loc, w in zip(locations, weights)]
        if kind == "extreme":  # a valid set with every mass at one float edge
            edge = draw(st.sampled_from(["1e308", "1e-320", "-0.0", "nan", "inf"]))
            rows = [(owner, location, edge) for owner, location, _ in rows]
    elif kind == "rows":
        field = st.sampled_from(["u0", "u1", "u5", "", " u2 ", "L0", "L11", "a,b"])
        rows = draw(st.lists(st.tuples(field, field, st.sampled_from(_NUMBER_TEXTS)), min_size=1, max_size=12))
    lines = [] if kind == "empty" else [("owner", "location", "probability"), *rows]
    if draw(_RARELY):
        lines = [tuple(f'"{f}"' for f in line) for line in lines]
    data = draw(st.sampled_from(["\n", "\r\n"])).join(",".join(line) for line in lines).encode()
    if data and draw(_RARELY):
        data = data[: draw(st.integers(0, len(data)))]
    if draw(_RARELY):
        data += draw(st.sampled_from([b"\xff", b"u9,\xfe,1.0\n", b"\0"]))
    return data


@st.composite
def _event_csv(draw) -> bytes:
    """An event log of at most 12 events by at most 6 users at ids or quoted
    ``lat,lon`` points, with timestamps and coordinates at the edges."""
    coordinate = st.sampled_from(["0", "39.9", "116.3", "90", "-180", "1e308", "nan", "inf", "1e-320", "-0.0", "x"])
    location = st.one_of(st.sampled_from(["a", "b", "c"]), st.builds(lambda a, b: f'"{a},{b}"', coordinate, coordinate))
    timestamp = st.one_of(st.sampled_from(["0", "10", "500", "900"]), st.sampled_from(["-1", str(2**63), "1.5", "x", ""]))
    rows = draw(st.lists(st.tuples(st.sampled_from(["u0", "u1", "u5"]), timestamp, location), max_size=12))
    data = "\n".join(",".join(row) for row in [("user", "timestamp", "location"), *rows]).encode()
    if draw(_RARELY):
        data = data[: draw(st.integers(0, len(data)))]
    return data + draw(st.sampled_from([b"", b"\n", b"\n", b"\xff\n"]))


# Concentrations whose draws can repeat a row: at more than one user, synth
# redraws about 2^18 times before it gives up (``TestExhaustedConcentration``).
_REPEATING_CONCENTRATIONS = [1e-300, 1e-320, 1e60, 1e308]
_CONCENTRATIONS = [0.1, 1.0, 2.5, 0.0, -0.0, -1.0, math.nan, math.inf]


@st.composite
def _config(draw, tmp: Path) -> str:
    """An experiment config within 6 users, 12 locations, t 20, 2 repetitions
    and 1 worker, with every size the scenario reads set; perhaps with a field
    or param of another type or an unknown key; or text that is no JSON object."""
    scenario = draw(st.sampled_from([*SCENARIOS, "bogus"]))
    concentration = draw(st.sampled_from(_CONCENTRATIONS[:3] + _REPEATING_CONCENTRATIONS))
    one_user = concentration in _REPEATING_CONCENTRATIONS
    small = st.integers(1, 6)
    grid = st.lists(small, min_size=1, max_size=2)
    params = {"alphabet_size": draw(st.integers(1, 12)), "t": draw(st.integers(1, 20)),
              "n_users": 1 if one_user else draw(small), "concentration": concentration}
    params.update({
        "vary_n": {"n_values": [1] if one_user else draw(grid)},
        "vary_t": {"t_values": draw(st.lists(st.integers(1, 20), min_size=1, max_size=2))},
        "overlap": {"r_values": [1], "n_left": 1, "n_right": 1} if one_user else
                   {"r_values": draw(grid), "n_left": draw(small), "n_right": draw(small)},
        "aggregate": {"group_counts": draw(st.lists(st.integers(1, 12), min_size=1, max_size=2))},
        "suppress": {"keep_sizes": draw(st.lists(st.integers(1, 12), min_size=1, max_size=2))},
        "kanon": {"k_values": draw(st.lists(st.integers(1, 7), min_size=1, max_size=2))},
    }.get(scenario, {}))
    reads = _SCENARIOS[scenario].defaults if scenario in _SCENARIOS else params
    params = {key: value for key, value in params.items() if key in reads}
    if scenario == "aggregate" and draw(st.booleans()):
        (tmp / "events.csv").write_bytes(draw(_event_csv()))
        params = {"event_log": str(tmp / "events.csv"), "boundary": draw(st.sampled_from([-1, 0, 500, 2**63])),
                  "cell_sides": draw(st.lists(st.sampled_from([1e-320, 1.0, 100, 1e308]), min_size=1, max_size=2)),
                  "geo_origin": draw(st.sampled_from([[0, 0], [39.9, 116.3], [1e308, -1e308], [90, 0]]))}
    config = {"scenario": scenario, "metrics": draw(st.lists(st.sampled_from(["proposed", "L1", "cosine", "dot"]), min_size=1, max_size=2)),
              "repetitions": draw(st.integers(1, 2)), "seed": draw(st.sampled_from([0, 7, -1, 2**64, 10**30])), "workers": 1, "params": params}
    # No large number: a size, repetition count or concentration that large is
    # valid, and its run would take long or allocate much.
    wrong = st.sampled_from(["2", 2.5, True, None, -1, 0, [], {}, math.nan, math.inf])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        target = draw(st.sampled_from(["repetitions", "seed", "workers", "metrics", "scenario", "params", "param", "unknown"]))
        if target == "param":
            params[draw(st.sampled_from(sorted(params) + ["bogus"]))] = draw(wrong)
        else:
            config["bogus" if target == "unknown" else target] = draw(wrong)
    text = json.dumps(config)
    return draw(st.sampled_from([text] * 6 + [json.dumps([config]), text[:-1], "", "\xff"]))


class TestFuzzMain:
    """Every command, in-process, over small generated inputs: it exits 0, 1
    or 2, and on failure writes exactly one JSON error object and no traceback.
    An exception that escapes ``main`` fails the test with its traceback."""

    def _run(self, argv) -> None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        assert code in (0, 1, 2)
        if code == 0:
            assert err.getvalue() == ""
        else:
            line, = err.getvalue().splitlines()
            payload = json.loads(line)
            assert set(payload) == {"error", "message"} and all(isinstance(v, str) for v in payload.values())
        event(f"exit {code}" + (f" {payload['error']}" if code else ""))

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_match(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            left, right = Path(tmp, "l.csv"), Path(tmp, "r.csv")
            left.write_bytes(data.draw(_histogram_csv()))
            right.write_bytes(data.draw(_histogram_csv()))
            algorithm = data.draw(st.one_of(st.sampled_from(["a1", "A1", "a2:1", "greedy", "brute", "brute:2"]), st.sampled_from(
                ["a2:3", "a2:0", "a2:-1", "a2:99", "a2:", "a2:x", "brute:-1", "brute:99", "nope"])))
            metric = data.draw(st.sampled_from(["proposed", "L1", "cosine", "DOT", "proposed", "bogus"]))
            self._run(["match", "--left", left, "--right", right, "--metric", metric, "--algorithm", algorithm,
                       "--out-pairs", Path(tmp, "p.csv"), "--out-summary", Path(tmp, "s.json")])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_anonymize(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "h.csv").write_bytes(data.draw(_histogram_csv()))
            k = data.draw(st.one_of(st.sampled_from(["1", "2", "3"]), st.sampled_from(["-1", "0", "6", "7", str(2**70), "x", "1.5"])))
            self._run(["anonymize", "--input", Path(tmp, "h.csv"), "--k", k,
                       "--out-released", Path(tmp, "r.csv"), "--out-partition", Path(tmp, "p.json")])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_ingest(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "e.csv").write_bytes(data.draw(_event_csv()))
            argv = ["ingest", "--events", Path(tmp, "e.csv"), "--out-left", Path(tmp, "l.csv"), "--out-right", Path(tmp, "r.csv"),
                    "--boundary", data.draw(st.sampled_from(["-1", "0", "500", "500", "500", str(2**63), "1e3", "x"]))]
            if data.draw(st.booleans()):
                argv += ["--geo-grid", data.draw(st.sampled_from(["1e-320", "1", "100", "100", "1e308", "nan", "inf", "-1", "0"]))]
                argv += ["--geo-origin", data.draw(st.sampled_from(["0,0", "0,0", "39.9,116.3", "nan,0", "1e308,1e308", "91,0", "x", "1,2,3"]))]
            if data.draw(st.booleans()):
                table = data.draw(st.sampled_from(["from,to\na,X\nb,X\n", "from,to\na,X\na,Y\n", "from,to\n0:0,X\n", "from\na\n", ""]))
                Path(tmp, "t.csv").write_text(table)
                argv += ["--aggregate-table", Path(tmp, "t.csv")]
            self._run(argv)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_synth(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            alpha = data.draw(st.one_of(st.sampled_from(_CONCENTRATIONS[:3]), st.sampled_from(_CONCENTRATIONS + _REPEATING_CONCENTRATIONS)))
            users = 1 if alpha in _REPEATING_CONCENTRATIONS else data.draw(st.one_of(st.integers(1, 6), _SIZES))
            argv = ["synth", "--users", users, "--alphabet", data.draw(st.integers(-1, 12)), "--alpha", repr(alpha),
                    "--t1", data.draw(st.integers(-1, 20)), "--t2", data.draw(st.integers(-1, 20)),
                    "--seed", data.draw(st.sampled_from([0, 7, 7, 7, -1, 2**64, 2**70])),
                    "--out-left", Path(tmp, "l.csv"), "--out-right", Path(tmp, "r.csv"),
                    "--out-truth", Path(tmp, "t.csv"), "--out-meta", Path(tmp, "m.json")]
            if alpha not in _REPEATING_CONCENTRATIONS:
                for flag in ("--n-left", "--n-right", "--overlap"):
                    if data.draw(_RARELY):
                        argv += [flag, data.draw(st.integers(-1, 7))]
            self._run(argv)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_experiment(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "c.json").write_text(data.draw(_config(Path(tmp))))
            self._run(["experiment", "--config", Path(tmp, "c.json"), "--out-dir", Path(tmp, "out")])
