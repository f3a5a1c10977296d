"""CSV and JSON serialization.

File formats:

* event log: headered CSV ``user,timestamp,location`` with integer epoch
  seconds (UTC);
* location aggregation table: headered CSV ``from,to``;
* histogram set: headered CSV ``owner,location,probability``; an owner's
  rows may be split into runs, merged in file order; each owner's
  probabilities must sum to 1 within 1e-6 on load (renormalized exactly when
  slightly off); a set read holds its rows and builds its maps on first use,
  one string per distinct location.  A plain file is tokenized as bytes, with
  no per-entry dict; a file with quotes, blank lines, lone CRs or split owners,
  or one that fails, is read row by row (3x slower), naming its error;
* ground truth: headered CSV ``left_owner,right_owner``, no owner repeating;
* match result: headered CSV ``left_owner,right_owner,weight`` plus a JSON
  summary ``{algorithm, cardinality, total_weight, runtime_ms}``;
* cluster partition: JSON ``{k, g, L, clusters}``.

Every CSV file but the histogram set is written by ``write_rows``, every JSON file by ``write_json``;
``write_histogram_set`` writes the same bytes in blocks of gathered owner, location and mass texts.
"""
from __future__ import annotations

import csv
import json
import math
from array import array
from itertools import chain
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .core import (
    MASS_ATOL,
    EventLog,
    GroundTruth,
    HistogramSet,
    PackedRows,
    _Codes,
    row_sums_off,
)
from .errors import FileFormatError
from .metrics import _distinct

if TYPE_CHECKING:
    from .anonymize import ClusterPartition
    from .matcher import BipartiteInstance, MatchResult

EVENT_HEADER = ["user", "timestamp", "location"]
AGGREGATION_HEADER = ["from", "to"]
HISTOGRAM_HEADER = ["owner", "location", "probability"]
TRUTH_HEADER = ["left_owner", "right_owner"]
MATCH_HEADER = ["left_owner", "right_owner", "weight"]

HISTOGRAM_SUM_ATOL = 1e-6

# Bytes of the byte tokenizer's first block; a later block is a sixteenth of
# the bytes read when that is more, so its tokens stay small next to the set.
_BLOCK_BYTES = 1 << 13
_NEWLINE_TO_COMMA = bytes.maketrans(b"\n", b",")
_WRITE_BLOCK = 1 << 14  # entries the histogram writer joins at a time


def _read_rows(path: str | Path, expected_header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield each non-empty row after a checked header with its physical line
    number, one at a time, so a reader holds only what it keeps of the file.
    Every row has as many columns as the header; a ``csv`` or decode error is a ``FileFormatError``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise FileFormatError(f"{path}: empty file, expected header {expected_header}")
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


def write_rows(path: str | Path, header: list[str], rows: Iterable) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_event_log(path: str | Path) -> EventLog:
    users: list[str] = []
    timestamps: list[int] = []
    locations: list[str] = []
    # One string object per distinct user, shared by all of that user's events.
    symbols: dict[str, str] = {}
    for lineno, row in _read_rows(path, EVENT_HEADER):
        user, ts, location = (c.strip() for c in row)
        try:
            timestamp = int(ts)
        except ValueError:
            raise FileFormatError(f"{path}:{lineno}: timestamp {ts!r} is not an integer") from None
        if timestamp < 0:
            raise FileFormatError(f"{path}:{lineno}: negative timestamp {timestamp}")
        users.append(symbols.setdefault(user, user))
        timestamps.append(timestamp)
        locations.append(location)
    return EventLog(tuple(users), tuple(timestamps), tuple(locations))


def _read_pairs(path: str | Path, header: list[str], key_name: str, value_name: str | None = None) -> dict[str, str]:
    """A two-column file as a map from its first column, which must not repeat;
    nor may its second column when ``value_name`` names it."""
    mapping: dict[str, str] = {}
    values: set[str] = set()
    for lineno, row in _read_rows(path, header):
        key, value = (c.strip() for c in row)
        if key in mapping:
            raise FileFormatError(f"{path}:{lineno}: duplicate {key_name} {key!r}")
        if value_name is not None:
            if value in values:
                raise FileFormatError(f"{path}:{lineno}: duplicate {value_name} {value!r}")
            values.add(value)
        mapping[key] = value
    return mapping


def read_aggregation_table(path: str | Path) -> dict[str, str]:
    return _read_pairs(path, AGGREGATION_HEADER, "source location")


class _FieldCodes(dict):
    """Each raw field's code: that of its decoded, stripped text in ``texts``."""

    def __init__(self):
        self.texts = _Codes()

    def __missing__(self, raw: bytes) -> int:
        self[raw] = code = self.texts[raw.decode().strip()]
        return code


class _NotPlain(Exception):
    """A histogram CSV that only the row-by-row reader reads."""


def read_histogram_set(path: str | Path) -> HistogramSet:
    """A histogram CSV as packed rows, tokenized as bytes if plain, else (or on failure) read row by row."""
    try:
        return _read_plain(path)
    except (_NotPlain, FileFormatError, ValueError, OSError):
        return _read_row_by_row(path)


def _read_plain(path: str | Path) -> HistogramSet:
    """The set of a plain file (``_tokenize``), read in blocks cut at their last line end."""
    owners, locations = _FieldCodes(), _FieldCodes()
    read = array("i"), array("i"), array("d")
    with open(path, "rb") as fh:
        if fh.readline() not in (b"owner,location,probability\n", b"owner,location,probability\r\n"):
            raise _NotPlain
        carry = b""
        while block := fh.read(max(_BLOCK_BYTES, fh.tell() // 16)):
            cut = block.rfind(b"\n") + 1
            if cut:
                _tokenize(carry + block[:cut], owners, locations, read)
                carry = b""
            carry += block[cut:]
        if carry:
            _tokenize(carry + b"\n", owners, locations, read)
    owner, columns, masses = (np.frombuffer(buffer, dtype=buffer.typecode) for buffer in read)
    if np.any(owner[1:] < owner[:-1]):
        raise _NotPlain  # an owner's rows are split into runs
    return _histogram_set(path, tuple(owners.texts), tuple(locations.texts), owner, columns, masses)


def _tokenize(lines: bytes, owners: _FieldCodes, locations: _FieldCodes, read: tuple[array, array, array]) -> None:
    """Append the owner codes, location codes and masses of ``lines`` (whole lines) to ``read``;
    raise ``_NotPlain`` unless ``csv`` splits them at commas alone: no quote or NUL, two commas
    a line, each ``\\r`` just before a ``\\n``, no field over ``csv.field_size_limit()``."""
    text = np.frombuffer(lines, dtype=np.uint8)
    ends = np.flatnonzero((text == ord(",")) | (text == ord("\n")))
    kinds = text[ends]
    if b'"' in lines or b"\0" in lines or kinds.size % 3 or np.any(kinds.reshape(-1, 3) != tuple(b",,\n")):
        raise _NotPlain
    crs = np.count_nonzero(text == ord("\r"))
    if crs != np.count_nonzero(text[ends[2::3] - 1] == ord("\r")) or np.diff(ends, prepend=-1).max() > csv.field_size_limit() + 1:
        raise _NotPlain
    fields = lines.translate(_NEWLINE_TO_COMMA, b"\r").split(b",")
    fields.pop()  # after the last line end
    count = len(fields) // 3
    mass = np.fromiter(map(float, fields[2::3]), dtype=np.float64, count=count)
    if not (mass.min() > 0.0 and mass.max() < math.inf):
        raise ValueError("a probability that is not finite and positive")
    owner = np.fromiter(map(owners.__getitem__, fields[0::3]), dtype=np.int32, count=count)
    column = np.fromiter(map(locations.__getitem__, fields[1::3]), dtype=np.int32, count=count)
    for buffer, values in zip(read, (owner, column, mass)):
        buffer.frombytes(values.view(np.uint8))


def _read_row_by_row(path: str | Path) -> HistogramSet:
    """A histogram CSV read row by row through ``csv``, raising its first failure:
    a row's columns, probability or repeated location, named by its physical
    line, then the first owner whose sum is off 1 by more than 1e-6."""
    by_owner: dict[str, dict[str, float]] = {}
    for lineno, row in _read_rows(path, HISTOGRAM_HEADER):
        owner, location, prob_text = (c.strip() for c in row)
        try:
            prob = float(prob_text)
        except ValueError:
            raise FileFormatError(f"{path}:{lineno}: probability {prob_text!r} is not a number") from None
        if not math.isfinite(prob) or prob <= 0.0:
            raise FileFormatError(f"{path}:{lineno}: probability must be finite and positive")
        mass = by_owner.setdefault(owner, {})
        if location in mass:
            raise FileFormatError(f"{path}:{lineno}: duplicate location {location!r} for owner {owner!r}")
        mass[location] = prob
    locations = _Codes()
    of_owner = np.repeat(np.arange(len(by_owner), dtype=np.int32), list(map(len, by_owner.values())))
    columns = np.fromiter(map(locations.__getitem__, chain.from_iterable(by_owner.values())), dtype=np.int32, count=of_owner.size)
    masses = np.fromiter(chain.from_iterable(m.values() for m in by_owner.values()), dtype=np.float64, count=of_owner.size)
    return _histogram_set(path, tuple(by_owner), tuple(locations), of_owner, columns, masses)


def _histogram_set(path, owners, locations, of_owner, columns, masses) -> HistogramSet:
    """The set of the rows read from ``path``, each owner's in one run in file order (int32 owner and
    location codes, writable float64 masses), and both readers' one check of each owner's sum: it raises
    at the first owner off 1 by more than ``HISTOGRAM_SUM_ATOL`` and renormalizes any other row off 1."""
    indptr = np.zeros(len(owners) + 1, dtype=np.int32 if masses.size < 2**31 else np.int64)
    np.cumsum(np.bincount(of_owner, minlength=len(owners)), out=indptr[1:])
    for i, total in row_sums_off(indptr, masses, MASS_ATOL):
        if abs(total - 1.0) > HISTOGRAM_SUM_ATOL:
            raise FileFormatError(f"{path}: probabilities for owner {owners[i]!r} sum to {total!r}, not 1 +/- {HISTOGRAM_SUM_ATOL}")
        masses[indptr[i] : indptr[i + 1]] /= total
    return HistogramSet.from_rows(owners, locations, PackedRows(indptr, columns, masses, len(locations)))


def write_histogram_set(hset: HistogramSet, path: str | Path) -> None:
    """The bytes ``csv.writer`` writes for the rows ``owner, location, repr(p)`` of ``hset.rows``: each
    distinct owner, location and mass formatted once (quoted by ``csv.writer``), and each block of
    ``_WRITE_BLOCK`` entries one join of the texts gathered by their rows, columns and mass codes."""
    rows = hset.rows
    owner_texts = np.array([field + "," for field in _csv_fields(hset.owners)], dtype=object)
    location_texts = np.array(_csv_fields(hset.locations), dtype=object)
    # A float64 array holds floats only, so equal masses have equal reprs.
    masses = _distinct(rows.data) if rows.nnz else rows.data
    mass_texts = np.array([f",{p!r}\r\n" for p in masses.tolist()], dtype=object)
    row_of = rows.row_of()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(HISTOGRAM_HEADER)
        for block in (slice(start, start + _WRITE_BLOCK) for start in range(0, rows.nnz, _WRITE_BLOCK)):
            texts = (owner_texts[row_of[block]], location_texts[rows.indices[block]], mass_texts[masses.searchsorted(rows.data[block])])
            fh.write("".join(np.stack(texts, axis=1).ravel().tolist()))


def _csv_fields(strings: Iterable[str]) -> list[str]:
    """Each string as ``csv.writer`` writes it as one field of a longer row."""
    lines: list[str] = []
    csv.writer(SimpleNamespace(write=lines.append)).writerows((s, "") for s in strings)
    return [line[:-3] for line in lines]  # drop the empty last field and the line end


def read_truth(path: str | Path) -> GroundTruth:
    return GroundTruth(mapping=_read_pairs(path, TRUTH_HEADER, "left owner", "right owner"))


def write_truth(truth: GroundTruth, path: str | Path) -> None:
    write_rows(path, TRUTH_HEADER, truth.mapping.items())


def write_match_result(result: MatchResult, instance: BipartiteInstance, path: str | Path) -> None:
    left, right = instance.left.owners, instance.right.owners
    write_rows(path, MATCH_HEADER, ([left[i], right[j], repr(w)] for i, j, w in result.pairs))


def match_summary(result: MatchResult, runtime_ms: dict[str, float]) -> dict:
    return {
        "algorithm": result.algorithm,
        "cardinality": len(result.pairs),
        "total_weight": result.total_weight,
        "runtime_ms": runtime_ms,
    }


def write_partition(partition: ClusterPartition, loss: float, path: str | Path) -> None:
    write_json({
        "k": partition.k_achieved,
        "g": partition.g,
        "L": loss,
        "clusters": [list(cluster) for cluster in partition.clusters],
    }, path)


def write_json(payload, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
