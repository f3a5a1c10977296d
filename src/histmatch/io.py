"""CSV and JSON serialization.

File formats:

* event log: headered CSV ``user,timestamp,location`` with integer epoch
  seconds (UTC);
* location aggregation table: headered CSV ``from,to``;
* histogram set: headered CSV ``owner,location,probability``; an owner's
  rows may be split into runs, merged in file order; each owner's
  probabilities must sum to 1 within 1e-6 on load (renormalized exactly when
  slightly off); a set read holds packed rows and builds its maps on first use;
* ground truth: headered CSV ``left_owner,right_owner``, no owner repeating;
* match result: headered CSV ``left_owner,right_owner,weight`` plus a JSON
  summary ``{algorithm, cardinality, total_weight, runtime_ms}``;
* cluster partition: JSON ``{k, g, L, clusters}``.
"""
from __future__ import annotations

import csv
import json
import math
from array import array
from itertools import chain, islice, repeat
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np
from scipy.sparse import csr_array

from .core import (
    MASS_ATOL,
    EventLog,
    GroundTruth,
    HistogramSet,
    row_sums_off,
)
from .errors import FileFormatError

if TYPE_CHECKING:
    from .anonymize import ClusterPartition
    from .matcher import BipartiteInstance, MatchResult

EVENT_HEADER = ["user", "timestamp", "location"]
AGGREGATION_HEADER = ["from", "to"]
HISTOGRAM_HEADER = ["owner", "location", "probability"]
TRUTH_HEADER = ["left_owner", "right_owner"]
MATCH_HEADER = ["left_owner", "right_owner", "weight"]

HISTOGRAM_SUM_ATOL = 1e-6

# Records the histogram reader parses per step: enough that numpy's per-call
# cost is spread thin, few enough that a step's strings stay small.
_CHUNK_ROWS = 128


def _checked_reader(fh, path: str | Path, expected_header: list[str]):
    """A ``csv.reader`` over ``fh`` positioned after its checked header."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise FileFormatError(f"{path}: empty file, expected header {expected_header}") from None
    if [h.strip() for h in header] != expected_header:
        raise FileFormatError(f"{path}: header {header!r} does not match {expected_header}")
    return reader


def _read_rows(path: str | Path, expected_header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield each non-empty row after a checked header with its physical line
    number, one at a time, so a reader holds only what it keeps of the file.
    Every row has as many columns as the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _checked_reader(fh, path, expected_header)
        for row in filter(None, reader):
            if len(row) != len(expected_header):
                raise FileFormatError(f"{path}:{reader.line_num}: expected {len(expected_header)} columns, got {len(row)}")
            yield reader.line_num, row


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


class _Codes(dict):
    """Each key's integer code, given in order of first use."""

    def __missing__(self, key):
        self[key] = code = len(self)
        return code


def read_histogram_set(path: str | Path) -> HistogramSet:
    """A histogram CSV as packed rows (``HistogramSet.from_rows``).

    ``csv.reader`` streams the file in steps of ``_CHUNK_ROWS`` records, each
    parsed into owner codes, location codes and float64 masses in a few
    vectorized calls, one string kept per distinct owner and location.  That
    pass only parses: on any failure, ``_raise_first_failure`` re-reads the file.
    """
    owners, locations = _Codes(), _Codes()
    read = array("i"), array("i"), array("d")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = _checked_reader(fh, path, HISTOGRAM_HEADER)
            while _parse_step(reader, owners, locations, read):
                pass
        return _histogram_set(tuple(owners), tuple(locations), *read)
    except (FileFormatError, csv.Error, ValueError, OSError) as exc:
        failure = exc
    _raise_first_failure(path)
    raise failure


def _parse_step(reader, owners: _Codes, locations: _Codes, read: tuple[array, array, array]) -> bool:
    """Append the owner codes, location codes and masses of the rows in
    ``reader``'s next ``_CHUNK_ROWS`` records to ``read``; false at the end of
    the file.  A row that fails raises ``ValueError``, naming no line."""
    records = list(islice(reader, _CHUNK_ROWS))
    if set(map(len, records)) != {3}:
        if not records:
            return False
        records = list(filter(None, records))  # blank lines are skipped
        if set(map(len, records)) - {3}:
            raise ValueError("a row without 3 columns")
    owner_texts, location_texts, prob_texts = zip(*records) if records else ((), (), ())
    count = len(records)
    mass = np.fromiter(map(float, prob_texts), dtype=np.float64, count=count)
    if count and not (mass.min() > 0.0 and mass.max() < math.inf):
        raise ValueError("a probability that is not finite and positive")
    owner = np.fromiter(map(owners.__getitem__, map(str.strip, owner_texts)), dtype=np.int32, count=count)
    column = np.fromiter(map(locations.__getitem__, map(str.strip, location_texts)), dtype=np.int32, count=count)
    for buffer, values in zip(read, (owner, column, mass)):
        buffer.frombytes(values.view(np.uint8))
    return True


def _raise_first_failure(path: str | Path) -> None:
    """Read a histogram CSV row by row and raise its first failure: a row's
    columns, probability or repeated location, named by its physical line,
    then the first owner whose sum is off 1 by more than ``HISTOGRAM_SUM_ATOL``."""
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
    for owner, mass in by_owner.items():
        total = math.fsum(mass.values())
        if abs(total - 1.0) > HISTOGRAM_SUM_ATOL:
            raise FileFormatError(
                f"{path}: probabilities for owner {owner!r} sum to {total!r}, not 1 +/- {HISTOGRAM_SUM_ATOL}"
            )


def _histogram_set(owners, locations, of_owner, columns, masses) -> HistogramSet:
    """The set of the rows read: each owner's rows in file order, rows off 1
    by at most ``HISTOGRAM_SUM_ATOL`` renormalized."""
    owner = np.frombuffer(of_owner, dtype=np.int32)
    indices = np.frombuffer(columns, dtype=np.int32)
    data = np.frombuffer(masses, dtype=np.float64)
    if np.any(owner[1:] < owner[:-1]):
        # An owner's rows are split: gather them, and code the locations in
        # the order the gathered rows first use them.
        order = np.argsort(owner, kind="stable")
        data = data[order]
        _, first = np.unique(indices[order], return_index=True)
        by_use = np.argsort(first)
        code = np.empty(len(locations), dtype=np.int32)
        code[by_use] = np.arange(len(locations), dtype=np.int32)
        indices = code[indices[order]]
        locations = tuple(map(locations.__getitem__, by_use.tolist()))
    indptr = np.zeros(len(owners) + 1, dtype=np.int32 if data.size < 2**31 else np.int64)
    np.cumsum(np.bincount(owner, minlength=len(owners)), out=indptr[1:])
    rows = csr_array((data, indices, indptr), shape=(len(owners), len(locations)))
    for i, total in row_sums_off(rows, MASS_ATOL):
        if abs(total - 1.0) > HISTOGRAM_SUM_ATOL:
            raise ValueError(f"probabilities for owner {owners[i]!r} sum to {total!r}")
        rows.data[rows.indptr[i] : rows.indptr[i + 1]] /= total
    return HistogramSet.from_rows(owners, locations, rows)


def write_histogram_set(hset: HistogramSet, path: str | Path) -> None:
    """The bytes ``csv.writer`` writes for the rows ``owner, location, repr(p)``,
    with each distinct owner and location quoted once, by ``csv.writer``, and,
    for a set built from rows, each distinct mass formatted once."""
    sizes, codes, masses = hset.cells()
    location_fields = _csv_fields(hset.locations)
    owner_fields = chain.from_iterable(map(repeat, _csv_fields(hset.owners), sizes))
    # A float64 array holds floats only, so equal masses have equal reprs.
    mass_fields = map(_Reprs().__getitem__, masses.tolist()) if isinstance(masses, np.ndarray) else map(repr, masses)
    fields = zip(owner_fields, repeat(","), map(location_fields.__getitem__, codes), repeat(","), mass_fields, repeat("\r\n"))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(HISTOGRAM_HEADER)
        fh.writelines(map("".join, fields))


class _Reprs(dict):
    """Each key's ``repr``, formatted at its first lookup."""

    def __missing__(self, key):
        self[key] = text = repr(key)
        return text


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
