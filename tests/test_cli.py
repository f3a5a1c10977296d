import csv
import json
import math
import os
import subprocess
import sys
import textwrap
import weakref
from types import SimpleNamespace

import pytest

from histmatch import cli
from histmatch import io as hio
from histmatch.cli import main
from histmatch.core import EARTH_RADIUS_M


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


class TestConsoleScript:
    def test_entrypoint_runs(self, tmp_path):
        out = subprocess.run(
            [sys.executable, "-m", "histmatch.cli", "--help"],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "ingest" in out.stdout and "experiment" in out.stdout
