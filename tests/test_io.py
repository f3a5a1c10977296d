import json
import re
import tracemalloc

import numpy as np
import pytest

from histmatch import io as hio
from histmatch.anonymize import information_loss, microaggregate, verify_k_anonymity
from histmatch.core import GroundTruth, Histogram, HistogramSet
from histmatch.errors import FileFormatError
from histmatch.matcher import build_instance, match_min_weight
from histmatch.metrics import MetricKind, weight_matrix
from histmatch.synth import OverlapSpec, PopulationSpec, generate_pair, sample_population
from tests.conftest import random_histogram_set

H = Histogram.from_mass


class TestEventLog:
    def test_read(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("user,timestamp,location\nu1,100,a\nu1,200,b\nu2,150,a\n")
        log = hio.read_event_log(path)
        assert len(log) == 3
        assert log.users == ("u1", "u1", "u2")
        assert log.timestamps == (100, 200, 150)
        assert log.locations == ("a", "b", "a")

    def test_events_share_user_strings(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("user,timestamp,location\nuser-17,100,a\nuser-4,150,b\nuser-17,200,c\n")
        log = hio.read_event_log(path)
        assert log.users[0] == log.users[2] == "user-17"
        assert log.users[0] is log.users[2]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("usr,time,loc\nu1,100,a\n")
        with pytest.raises(FileFormatError):
            hio.read_event_log(path)

    def test_bad_timestamp(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("user,timestamp,location\nu1,12.5,a\n")
        with pytest.raises(FileFormatError):
            hio.read_event_log(path)

    def test_negative_timestamp(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("user,timestamp,location\nu1,-3,a\n")
        with pytest.raises(FileFormatError):
            hio.read_event_log(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("")
        with pytest.raises(FileFormatError):
            hio.read_event_log(path)


class TestAggregationTable:
    def test_read(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("from,to\na,X\nb,X\nc,Y\n")
        assert hio.read_aggregation_table(path) == {"a": "X", "b": "X", "c": "Y"}

    def test_duplicate_source(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("from,to\na,X\na,Y\n")
        with pytest.raises(FileFormatError):
            hio.read_aggregation_table(path)


class TestHistogramSet:
    def test_roundtrip_exact(self, tmp_path, rng):
        hset = random_histogram_set(rng, 6, 10)
        path = tmp_path / "h.csv"
        hio.write_histogram_set(hset, path)
        loaded = hio.read_histogram_set(path)
        assert loaded.owners == hset.owners
        for a, b in zip(loaded.histograms, hset.histograms):
            assert a.mass == b.mass

    def test_release_roundtrip_shares_rows_by_content(self, tmp_path):
        # Read back, every owner has a map of its own, yet equal maps still
        # pack to one row per cluster and give the in-memory release's weights.
        population = sample_population(PopulationSpec(40, 120, 1.0, 5))
        left, right, _ = generate_pair(population, 80, 80, OverlapSpec.full(40), 5)
        k = 4
        partition, released = microaggregate(left, k)
        path = tmp_path / "released.csv"
        hio.write_histogram_set(released, path)
        loaded = hio.read_histogram_set(path)
        assert len({id(h.mass) for h in loaded.histograms}) == len(loaded)
        assert loaded.row_classes[0].shape[0] == partition.g < len(loaded)
        assert verify_k_anonymity(loaded, k) and not verify_k_anonymity(loaded, 2 * k)
        for metric in MetricKind:
            assert weight_matrix(loaded, right, metric).tobytes() == weight_matrix(released, right, metric).tobytes()
            assert weight_matrix(right, loaded, metric).tobytes() == weight_matrix(right, released, metric).tobytes()

    def test_sum_tolerance_renormalizes(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("owner,location,probability\nu1,a,0.5000001\nu1,b,0.5\n")
        loaded = hio.read_histogram_set(path)
        mass = loaded.histogram("u1").mass
        assert abs(sum(mass.values()) - 1.0) <= 1e-9

    def test_sum_violation(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("owner,location,probability\nu1,a,0.6\nu1,b,0.5\n")
        with pytest.raises(FileFormatError):
            hio.read_histogram_set(path)

    def test_duplicate_cell(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("owner,location,probability\nu1,a,0.5\nu1,a,0.5\n")
        with pytest.raises(FileFormatError):
            hio.read_histogram_set(path)

    def test_nonpositive_probability(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("owner,location,probability\nu1,a,0.0\nu1,b,1.0\n")
        with pytest.raises(FileFormatError):
            hio.read_histogram_set(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("u1,b", ":3: expected 3 columns, got 2"),
            ("u1,b,0.5,x", ":3: expected 3 columns, got 4"),
            ("u1,b,half", ":3: probability 'half' is not a number"),
            ("u1,b,nan", ":3: probability must be finite and positive"),
            ("u1,b,inf", ":3: probability must be finite and positive"),
        ],
    )
    def test_error_names_line(self, tmp_path, row, message):
        path = tmp_path / "h.csv"
        path.write_text(f"owner,location,probability\nu1,a,0.5\n{row}\n")
        with pytest.raises(FileFormatError, match="^" + re.escape(f"{path}{message}")):
            hio.read_histogram_set(path)

    def test_line_numbers_skip_blank_lines(self, tmp_path):
        # Blank lines are skipped, but a row keeps its physical line number.
        path = tmp_path / "h.csv"
        path.write_text("owner,location,probability\nu1,a,0.5\n\n\nu1,b,oops\n")
        with pytest.raises(FileFormatError, match="^" + re.escape(f"{path}:5: probability 'oops'")):
            hio.read_histogram_set(path)

    def test_ungrouped_owner_rows_merge(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("owner,location,probability\nu1,a,0.25\nu2,c,1.0\nu1,b,0.75\n")
        loaded = hio.read_histogram_set(path)
        assert loaded.owners == ("u1", "u2")
        assert list(loaded.histogram("u1").mass.items()) == [("a", 0.25), ("b", 0.75)]
        assert loaded.histogram("u2").mass == {"c": 1.0}

    def test_owners_share_location_strings(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("owner,location,probability\nu1,cell-17,0.5\nu1,cell-4,0.5\nu2,cell-17,1.0\n")
        loaded = hio.read_histogram_set(path)
        assert next(iter(loaded.histogram("u1").mass)) is next(iter(loaded.histogram("u2").mass))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("")
        with pytest.raises(FileFormatError, match="empty file"):
            hio.read_histogram_set(path)

    def test_header_only_is_empty_set(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("owner,location,probability\n")
        assert hio.read_histogram_set(path).entries == ()

    def test_peak_memory_near_result_size(self, tmp_path, rng):
        # 60 owners x 80 locations: 4800 rows.  Holding every parsed row at
        # once would put the peak near three times the set returned.
        hset = HistogramSet(
            tuple(
                (f"o{i:03d}", H({f"L{j}": float(p) for j, p in enumerate(row)}))
                for i, row in enumerate(rng.dirichlet(np.ones(80), size=60))
            ),
        )
        path = tmp_path / "h.csv"
        hio.write_histogram_set(hset, path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            loaded = hio.read_histogram_set(path)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded == hset
        assert peak - base < 1.5 * (current - base)


class TestTruth:
    def test_roundtrip(self, tmp_path):
        truth = GroundTruth({"x1": "u1", "x2": "u2"})
        path = tmp_path / "truth.csv"
        hio.write_truth(truth, path)
        assert hio.read_truth(path) == truth

    def test_duplicate_left(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("left_owner,right_owner\nx1,u1\nx1,u2\n")
        with pytest.raises(FileFormatError):
            hio.read_truth(path)

    def test_duplicate_right(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("left_owner,right_owner\nx1,u1\n\nx2,u1\n")
        with pytest.raises(FileFormatError, match="^" + re.escape(f"{path}:4: duplicate right owner 'u1'")):
            hio.read_truth(path)


class TestMatchFiles:
    def test_pairs_and_summary(self, tmp_path, rng):
        left = random_histogram_set(rng, 3, 6)
        right = random_histogram_set(rng, 4, 6)
        inst = build_instance(left, right, MetricKind.PROPOSED)
        res = match_min_weight(inst)
        pairs_path = tmp_path / "pairs.csv"
        summary_path = tmp_path / "summary.json"
        hio.write_match_result(res, inst, pairs_path)
        hio.write_json(hio.match_summary(res, {"weights": 1.5, "solve": 0.5}), summary_path)

        lines = pairs_path.read_text().splitlines()
        assert lines[0] == "left_owner,right_owner,weight"
        assert len(lines) == 1 + len(res.pairs)
        owners = {line.split(",")[0] for line in lines[1:]}
        assert owners == set(left.owners)

        summary = json.loads(summary_path.read_text())
        assert summary["algorithm"] == "A1"
        assert summary["cardinality"] == 3
        assert summary["total_weight"] == pytest.approx(res.total_weight)
        assert summary["runtime_ms"] == {"weights": 1.5, "solve": 0.5}


class TestPartitionFile:
    def test_write(self, tmp_path, rng):
        hset = random_histogram_set(rng, 8, 10)
        partition, _ = microaggregate(hset, 3)
        loss = information_loss(partition, hset)
        path = tmp_path / "partition.json"
        hio.write_partition(partition, loss, path)
        data = json.loads(path.read_text())
        assert data["g"] == partition.g
        assert data["k"] == partition.k_achieved
        assert data["L"] == pytest.approx(loss)
        assert sorted(o for c in data["clusters"] for o in c) == sorted(hset.owners)


class TestJsonFile:
    def test_indent_and_trailing_newline(self, tmp_path):
        path = tmp_path / "payload.json"
        hio.write_json({"k": 2, "clusters": [["a", "b"]]}, path)
        assert path.read_text() == '{\n  "k": 2,\n  "clusters": [\n    [\n      "a",\n      "b"\n    ]\n  ]\n}\n'
