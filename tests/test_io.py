import csv
import io
import json
import math
import pickle
import re
import tracemalloc
from itertools import groupby
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histmatch import io as hio
from histmatch.anonymize import information_loss, microaggregate, verify_k_anonymity
from histmatch.core import MASS_ATOL, GroundTruth, Histogram, HistogramSet
from histmatch.errors import FileFormatError
from histmatch.io import HISTOGRAM_HEADER, HISTOGRAM_SUM_ATOL
from histmatch.matcher import build_instance, match_min_weight
from histmatch.metrics import MetricKind, weight_matrix
from histmatch.synth import OverlapSpec, PopulationSpec, generate_pair, sample_population
from tests.conftest import random_histogram_set


def H(mass):
    return Histogram(mass=dict(mass))


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
        # a synth set's maps were built from t samples; the read-back's from none
        left, _, _ = generate_pair(sample_population(PopulationSpec(20, 50, 1.0, 7)), 30, 30, OverlapSpec.full(20), 7)
        hio.write_histogram_set(left, path)
        assert hio.read_histogram_set(path) == left

    def test_numpy_masses_write_as_numbers(self, tmp_path):
        # under numpy 2 the repr of a numpy float is not a number a reader parses
        hset = HistogramSet((("u", H({"a": np.float64(0.25), "b": np.float64(0.75)})),))
        path = tmp_path / "h.csv"
        hio.write_histogram_set(hset, path)
        assert path.read_text().splitlines()[1:] == ["u,a,0.25", "u,b,0.75"]
        assert hio.read_histogram_set(path) == hset

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
        for name in ("data", "indices", "indptr"):
            assert getattr(loaded.rows, name).tobytes() == getattr(released.rows, name).tobytes()
        again = tmp_path / "again.csv"
        hio.write_histogram_set(loaded, again)
        assert again.read_bytes() == path.read_bytes()
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


# The dict-building histogram reader that ``read_histogram_set`` replaced,
# kept verbatim as the reference (its row helper renamed ``_oracle_read_rows``),
# but for one edit: a ``csv.Error`` or a decode error is a ``FileFormatError``
# naming the file, as every CSV reader of the package now raises it.
def _oracle_read_rows(path: str | Path, expected_header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield each non-empty row after a checked header with its physical line
    number, one at a time, so a reader holds only what it keeps of the file.
    Every row has as many columns as the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            try:
                header = next(reader)
            except StopIteration:
                raise FileFormatError(f"{path}: empty file, expected header {expected_header}") from None
            if [h.strip() for h in header] != expected_header:
                raise FileFormatError(f"{path}: header {header!r} does not match {expected_header}")
            for row in filter(None, reader):
                if len(row) != len(expected_header):
                    raise FileFormatError(f"{path}:{reader.line_num}: expected {len(expected_header)} columns, got {len(row)}")
                yield reader.line_num, row
        except csv.Error as exc:
            raise FileFormatError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _oracle_read_histogram_set(path: str | Path) -> HistogramSet:
    by_owner: dict[str, dict[str, float]] = {}
    # One string object per distinct location, shared by every owner's keys:
    # a set then keeps about half of what one string per row would cost.
    symbols: dict[str, str] = {}
    for lineno, row in _oracle_read_rows(path, HISTOGRAM_HEADER):
        owner, location, prob_text = row
        owner, location = owner.strip(), location.strip()
        location = symbols.setdefault(location, location)
        try:
            prob = float(prob_text)
        except ValueError:
            raise FileFormatError(f"{path}:{lineno}: probability {prob_text.strip()!r} is not a number") from None
        if not math.isfinite(prob) or prob <= 0.0:
            raise FileFormatError(f"{path}:{lineno}: probability must be finite and positive")
        mass = by_owner.setdefault(owner, {})
        if location in mass:
            raise FileFormatError(f"{path}:{lineno}: duplicate location {location!r} for owner {owner!r}")
        mass[location] = prob

    entries = []
    for owner, mass in by_owner.items():
        total = math.fsum(mass.values())
        if abs(total - 1.0) > HISTOGRAM_SUM_ATOL:
            raise FileFormatError(
                f"{path}: probabilities for owner {owner!r} sum to {total!r}, not 1 +/- {HISTOGRAM_SUM_ATOL}"
            )
        if abs(total - 1.0) > MASS_ATOL:
            mass = {loc: p / total for loc, p in mass.items()}
        # ``mass`` is built here and shared with nothing, so it is not copied.
        entries.append((owner, Histogram(mass=mass)))
    return HistogramSet(entries=tuple(entries))


def _outcome(read, path):
    """A read's set, or the type and message of what it raised."""
    try:
        return read(path), None
    except Exception as exc:  # noqa: BLE001 - every failure is compared
        return None, (type(exc), str(exc))


def _is_plain(path) -> bool:
    """Whether the byte tokenizer reads ``path`` itself: UTF-8, no quote, NUL
    or lone CR, the exact header, then lines of three comma-separated fields,
    none longer than the csv field limit, each mass ASCII, each owner's lines
    in one run.  The end of the file ends a line."""
    data = path.read_bytes()
    data += b"" if data.endswith(b"\n") else b"\n"
    if b'"' in data or b"\0" in data or data.count(b"\r") != data.count(b"\r\n"):
        return False
    try:
        data.decode()
    except UnicodeDecodeError:
        return False
    header, *lines = data[:-1].split(b"\n")
    rows = [line.split(b",") for line in lines]
    runs = [owner for owner, _ in groupby(row[0].decode().strip() for row in rows)]
    return (
        header.removesuffix(b"\r") == b"owner,location,probability"
        and all(len(row) == 3 and row[2].isascii() for row in rows)
        and all(len(field) <= csv.field_size_limit() for row in rows for field in row)
        and len(runs) == len(set(runs))
    )


def assert_reads_like_oracle(path):
    # the row-by-row reader runs exactly when the file fails or is not plain
    explained = []
    read_row_by_row = hio._read_row_by_row
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hio, "_read_row_by_row", lambda p: (explained.append(p), read_row_by_row(p))[1])
        got, got_error = _outcome(hio.read_histogram_set, path)
    want, want_error = _outcome(_oracle_read_histogram_set, path)
    assert got_error == want_error
    assert explained == ([path] if want_error or not _is_plain(path) else [])
    if want is None:
        return
    assert got.owners == want.owners
    assert got.locations == want.locations
    # every map, key order and masses bit for bit
    assert [[(k, p.hex()) for k, p in h.mass.items()] for h in got.histograms] == [
        [(k, p.hex()) for k, p in h.mass.items()] for h in want.histograms
    ]
    assert all(h.sample_count == 0 for h in got.histograms)
    for a, b in zip(_form(got), _form(want)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # one string object per location, that of ``locations``
    keys = {id(k) for h in got.histograms for k in h.mass}
    assert keys == {id(loc) for loc in got.locations}


def _form(hset):
    distinct, of_row = hset.row_classes
    return distinct.data, distinct.indices, distinct.indptr, of_row


def _write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


# The byte tokenizer's first block sizes under test: cuts inside fields and
# CRLF pairs, and the default.
BLOCK_SIZES = (1, 2, 3, 7, hio._BLOCK_BYTES)


class TestReaderMatchesOracle:
    def test_seeded_sets(self, tmp_path, rng):
        for n, alphabet, support in ((1, 1, 1), (6, 10, 4), (40, 30, 12), (25, 400, 150)):
            path = tmp_path / f"h{n}.csv"
            hio.write_histogram_set(random_histogram_set(rng, n, alphabet, support), path)
            assert_reads_like_oracle(path)

    def test_split_owner_runs_merge_in_first_appearance_order(self, tmp_path, rng):
        hset = random_histogram_set(rng, 8, 40, 10)
        rows = [(o, loc, repr(p)) for o, h in hset.entries for loc, p in h.mass.items()]
        order = rng.permutation(len(rows))
        path = tmp_path / "h.csv"
        hio.write_rows(path, HISTOGRAM_HEADER, [rows[i] for i in order])
        assert_reads_like_oracle(path)
        # later owners use earlier owners' locations first: the set's order differs from the file's
        _write(path, "owner,location,probability\nu1,a,0.5\nu2,c,0.5\nu2,b,0.5\nu1,b,0.5\n")
        assert_reads_like_oracle(path)
        assert hio.read_histogram_set(path).locations == ("a", "b", "c")

    @pytest.mark.parametrize("block", [1, 2, 3, 7, 128, hio._BLOCK_BYTES])
    def test_owner_straddles_steps(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(hio, "_BLOCK_BYTES", block)
        lines = [f"u{i},L{j},{1 / 5!r}" for i in range(4) for j in range(i, i + 5)]
        for end in ("\n", "\r\n"):  # small blocks cut fields and CRLF pairs
            path = _write(tmp_path / "h.csv", "owner,location,probability\n" + end.join(lines) + end)
            assert_reads_like_oracle(path)
            # no line end after the last line
            assert_reads_like_oracle(_write(tmp_path / "h.csv", "owner,location,probability\n" + end.join(lines)))
            # a repeat, bad rows and blank lines across block boundaries
            for bad in ("u1,L2,0.2", "u1,L9", "u1,L9,x", "u1,L9,-0.2", "\n\nu1,L1,0.2"):
                text = "owner,location,probability\n" + end.join(lines[:8] + [bad] + lines[8:]) + end
                assert_reads_like_oracle(_write(tmp_path / "bad.csv", text))

    def test_long_owner_across_default_steps(self, tmp_path):
        masses = [1 / 300] * 300
        lines = [f"w{k},x,1.0" for k in range(100)] + [f"big,L{j},{p!r}" for j, p in enumerate(masses)]
        path = _write(tmp_path / "h.csv", "owner,location,probability\n" + "\n".join(lines) + "\n")
        assert_reads_like_oracle(path)
        # the repeat comes 200 rows after its first row, in a later step
        repeat = _write(tmp_path / "r.csv", path.read_text() + "big,L3,0.1\n")
        assert_reads_like_oracle(repeat)
        # a repeat in an earlier step wins over a later bad row
        both = _write(tmp_path / "b.csv", "owner,location,probability\nw,a,0.5\nw,a,0.5\n" + "\n".join(lines) + "\nz,q,nan\n")
        assert_reads_like_oracle(both)
        with pytest.raises(FileFormatError, match=re.escape(f"{both}:3: duplicate location 'a' for owner 'w'")):
            hio.read_histogram_set(both)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_line_ends_and_blank_lines(self, tmp_path, end):
        body = ["u1,a,0.25", "", "u1,b,0.75", "", "", "u2,a,1.0"]
        path = _write(tmp_path / "h.csv", end.join(["owner,location,probability", *body]) + end)
        assert_reads_like_oracle(path)
        bad = _write(tmp_path / "bad.csv", end.join(["owner,location,probability", *body, "", "u3,a,zero"]) + end)
        assert_reads_like_oracle(bad)
        # a CR that ends a line where no LF does
        for odd in ("u4,a\r,1.0", "u4,a,1.0\r"):
            assert_reads_like_oracle(_write(tmp_path / "cr.csv", end.join(["owner,location,probability", "u1,a,1.0", odd]) + end))

    def test_empty_owner_and_location_fields(self, tmp_path):
        # both readers take an empty field as the owner or location ''
        plain = _write(tmp_path / "p.csv", "owner,location,probability\n,x,1\nu1,,0.5\nu1,y,0.5\n")
        quoted = _write(tmp_path / "q.csv", 'owner,location,probability\n"",x,1\n"u1","",0.5\nu1,y,0.5\n')
        for path in (plain, quoted):
            assert_reads_like_oracle(path)
            hset = hio.read_histogram_set(path)
            assert hset.owners == ("", "u1") and hset.locations == ("x", "", "y")
            assert hset.histogram("").mass == {"x": 1.0}

    def test_quoted_fields_and_whitespace(self, tmp_path):
        text = (
            "owner,location,probability\n"
            '" u1 ","lat,lon",0.5\n'
            '  u1  ,  "b"  ,  0.5  \n'
            'u2,"say ""hi""", 1.0\n'
            'u3,"two\nlines",1.0\n'
            'u3b,"cr\r\nlf",1.0\n'
        )
        path = _write(tmp_path / "h.csv", text)
        assert_reads_like_oracle(path)
        # quotes around fields that need none
        assert_reads_like_oracle(_write(tmp_path / "q.csv", "owner,location,probability\n\"u1\",a,1.0\nu2,\"b\",1.0\n"))
        # a row after a record that spans lines names its own physical line
        bad = _write(tmp_path / "bad.csv", text + "u4,a,nope\n")
        assert_reads_like_oracle(bad)
        with pytest.raises(FileFormatError, match=re.escape(f"{bad}:9: probability 'nope'")):
            hio.read_histogram_set(bad)

    @pytest.mark.parametrize("delta", [1e-9, 3e-9, 1e-8, 1e-7, 9.9e-7, 1e-6, 1.01e-6, -1e-9, -5e-7, -2e-6])
    def test_sums_off_by_a_little(self, tmp_path, delta):
        path = _write(tmp_path / "h.csv", f"owner,location,probability\nu1,a,0.25\nu1,b,{0.75 + delta!r}\nu2,a,1.0\n")
        assert_reads_like_oracle(path)

    @pytest.mark.parametrize(
        "rows",
        [
            ["u1,a,0.5", "u1,a,0.5"],
            ["u1,a,0.6", "u1,a,0.6"],  # a repeat fails before its owner's sum
            ["u1,a,0.5", "u2,b,1.0", "u1,a,0.5"],  # split runs
            ["u1,a,0.5", "u1,b,0.5", "u2,a,0.2"],  # a sum, after every row
            ["u1,a,0.5", "u1,b", "u1,b,x"],
            ["u1,a,x", "u1,b"],
            ["u1,a,0.5", "u1,a,0.5", "u1,b,x"],
            ["u1,a,-1", "u1,a,0.5"],
            ["u1,a,inf"],
            ["u1,a,inf", "u1,b,-inf"],
            ["u1,a,0.0"],
            ["u1,a,-0.0"],
            ["u1,a,1e-400"],
            ["u1,a,1,2,3"],
            [""],
            ["u1"],
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_malformed_first_failure_wins(self, tmp_path, monkeypatch, rows):
        path = _write(tmp_path / "h.csv", "owner,location,probability\n" + "\n".join(rows) + "\n")
        for block in BLOCK_SIZES:
            monkeypatch.setattr(hio, "_BLOCK_BYTES", block)
            assert_reads_like_oracle(path)

    def test_csv_error_after_a_bad_row(self, tmp_path, monkeypatch):
        # csv.reader's own error comes after the bad row in the same step
        huge = "x" * (csv.field_size_limit() + 1)
        path = _write(tmp_path / "h.csv", f"owner,location,probability\nu1,a,oops\nu1,{huge},0.5\n")
        assert_reads_like_oracle(path)
        plain = _write(tmp_path / "p.csv", f"owner,location,probability\nu1,a,1.0\nu1,{huge},0.5\n")
        assert_reads_like_oracle(plain)
        # a field over the limit in a valid file, and one at the limit
        for location in (huge, huge[1:]):
            assert_reads_like_oracle(_write(tmp_path / "one.csv", f"owner,location,probability\nu1,{location},1.0\n"))
        # bytes that are not UTF-8, decoded only after the rows before them
        padding = "".join(f"w{i},a,1.0\n" for i in range(3000))
        for bad_row in ("u1,a,oops\n", "", "u1,a,0.5\n"):  # a bad row, none, an owner whose sum is off
            path = tmp_path / "bytes.csv"
            path.write_bytes(f"owner,location,probability\n{bad_row}{padding}".encode() + b"u2,\xff,1.0\n")
            for block in BLOCK_SIZES:
                monkeypatch.setattr(hio, "_BLOCK_BYTES", block)
                assert_reads_like_oracle(path)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_property(self, tmp_path_factory, data):
        draw = data.draw
        # non-ASCII text, and fields that differ only by padding ("u1 ", "L2\t")
        owners = draw(st.lists(st.sampled_from(["u1", "u2", " u3", "u,4", 'q"5', "u6", "ü7", "u1 "]), min_size=1, max_size=4, unique=True))
        pool = ["a", "b", "c,d", ' e', 'f"g', "h\ni", "j\r\nk", "L1", "L2", "L3", "ß8", "L2\t"]
        lines = []
        for owner in owners:
            locs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5, unique=True))
            weights = draw(st.lists(st.integers(1, 9), min_size=len(locs), max_size=len(locs)))
            digits = draw(st.sampled_from(["r", ".7g", ".5g"]))
            for loc, w in zip(locs, weights):
                p = w / sum(weights)
                lines.append([owner, loc, repr(p) if digits == "r" else format(p, digits)])
        if draw(st.booleans()):
            lines = draw(st.permutations(lines))
        fault = draw(st.sampled_from([None, "text", "nan", "zero", "repeat", "short", "long", "sum"]))
        if fault is not None:
            at = draw(st.integers(0, len(lines) - 1))
            row = list(lines[at])
            if fault == "repeat":
                lines.insert(draw(st.integers(at + 1, len(lines))), row)
            elif fault == "short":
                lines[at] = row[:2]
            elif fault == "long":
                lines[at] = row + ["1"]
            else:
                row[2] = {"text": "p?", "nan": "nan", "zero": "0", "sum": "0.9"}[fault]
                lines[at] = row
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"])))
        writer.writerow(HISTOGRAM_HEADER)
        for row in lines:
            if draw(st.integers(0, 5)) == 0:
                buffer.write(writer.dialect.lineterminator)  # a blank line
            padded = [f" {f} " if draw(st.integers(0, 4)) == 0 and "\n" not in f and '"' not in f and "," not in f else f for f in row]
            writer.writerow(padded)
        path = tmp_path_factory.mktemp("prop") / "h.csv"
        _write(path, buffer.getvalue())
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hio, "_BLOCK_BYTES", draw(st.sampled_from(BLOCK_SIZES)))
            assert_reads_like_oracle(path)


class TestSetFromRows:
    def test_read_set_equals_dict_built_set(self, tmp_path, rng):
        hset = random_histogram_set(rng, 12, 30, 8)
        path = tmp_path / "h.csv"
        hio.write_histogram_set(hset, path)
        loaded = hio.read_histogram_set(path)
        assert len(loaded) == 12 and loaded.owners == hset.owners
        assert "entries" not in vars(loaded)
        assert loaded == hset and hset == loaded
        assert loaded != HistogramSet(hset.entries[1:])

    def test_pickles_without_maps_and_stays_read_only(self, tmp_path, rng):
        hset = random_histogram_set(rng, 10, 20, 6)
        path = tmp_path / "h.csv"
        hio.write_histogram_set(hset, path)
        loaded = hio.read_histogram_set(path)
        blob = pickle.dumps(loaded)
        assert "entries" not in vars(loaded)
        again = pickle.loads(blob)
        assert "entries" not in vars(again)
        for array in (again.rows.data, again.rows.indices, again.rows.indptr, *_form(again)):
            assert not array.flags.writeable
        for a, b in zip(_form(again), _form(loaded)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert again == hset


class TestWriterBytes:
    @staticmethod
    def reference_bytes(hset):
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        writer.writerow(HISTOGRAM_HEADER)
        writer.writerows([owner, loc, repr(p)] for owner, h in hset.entries for loc, p in h.mass.items())
        return buffer.getvalue().encode("utf-8")

    def test_quoting_matches_csv_writer(self, tmp_path):
        names = ["plain", "com,ma", 'quo"te', "cr\rlf", "line\nfeed", "crlf\r\nx", " lead", "trail ", "", "é"]
        hset = HistogramSet(
            tuple((owner, H({loc: 0.5, "x": 0.5} if loc != "x" else {loc: 1.0})) for owner, loc in zip(names, names[::-1]))
        )
        path = tmp_path / "h.csv"
        hio.write_histogram_set(hset, path)
        assert path.read_bytes() == self.reference_bytes(hset)
        # a set read from rows (its fields stripped) writes from its rows
        loaded = hio.read_histogram_set(path)
        again = tmp_path / "again.csv"
        hio.write_histogram_set(loaded, again)
        assert "entries" not in vars(loaded)
        assert again.read_bytes() == self.reference_bytes(loaded)

    def test_seeded_sets(self, tmp_path, rng):
        population = sample_population(PopulationSpec(30, 80, 0.5, 3))
        left, _, _ = generate_pair(population, 60, 60, OverlapSpec.full(30), 3)
        for hset in (left, random_histogram_set(rng, 20, 50, 10)):
            path = tmp_path / "h.csv"
            hio.write_histogram_set(hset, path)
            assert path.read_bytes() == self.reference_bytes(hset)
