"""CSV and JSON serialization.

File formats:

* event log: headered CSV ``user,timestamp,location`` with integer epoch
  seconds (UTC);
* location aggregation table: headered CSV ``from,to``;
* histogram set: headered CSV ``owner,location,probability`` with rows
  grouped by owner; each owner's probabilities must sum to 1 within 1e-6 on
  load (they are renormalized exactly when slightly off); a set read holds
  packed rows and builds its ``Histogram`` maps on first use;
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
from bisect import bisect_right
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

    ``csv.reader`` streams the file in steps of ``_CHUNK_ROWS`` records; each
    step's rows become location codes and float64 masses in a few vectorized
    calls, with one string object kept per distinct owner and location.  The
    first failing row names its physical line; a row repeating its owner's
    location fails where the repeat is, before any later failing row, and a
    wrong owner sum fails after every row error.
    """
    owners, locations = _Codes(), _Codes()
    # One item per row read, in file order.
    read = of_owner, columns, masses = array("i"), array("i"), array("d")
    # Per step: its first row and either the line before it, when each of its
    # records is one non-blank line, or each row's line.
    step_rows: list[int] = []
    step_lines: list[int | np.ndarray] = []
    stop: Exception | None = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _checked_reader(fh, path, HISTOGRAM_HEADER)
        while stop is None:
            before, records = reader.line_num, []
            try:
                records.extend(islice(reader, _CHUNK_ROWS))  # keeps the records read before a failure
            except (csv.Error, ValueError, OSError) as exc:
                stop = exc
            if not records:
                break
            step_rows.append(len(masses))
            one_line_each = reader.line_num - before == len(records) and all(records)
            step_lines.append(before if one_line_each else _record_ends(records, before))
            failure = _parse_step(records, owners, locations, read)
            if failure is not None:
                line = _line(step_rows, step_lines, len(masses))
                stop = FileFormatError(f"{path}:{line}: {failure}")
    owners, locations = tuple(owners), tuple(locations)
    try:
        if stop is not None:
            raise stop
        return _histogram_set(path, owners, locations, *read)
    except (FileFormatError, csv.Error, ValueError, OSError):
        # A row repeating its owner's location fails before every later failure.
        repeat = _first_repeat(of_owner, columns, len(locations))
        if repeat is None:
            raise
        owner, location = owners[of_owner[repeat]], locations[columns[repeat]]
        line = _line(step_rows, step_lines, repeat)
        raise FileFormatError(f"{path}:{line}: duplicate location {location!r} for owner {owner!r}") from None


def _parse_step(records: list[list[str]], owners: _Codes, locations: _Codes, read: tuple[array, array, array]) -> str | None:
    """Append the owner codes, location codes and masses of ``records``' rows
    to ``read``, up to the first failing row, and return that row's failure."""
    rows, good, failure = records, len(records), None
    if set(map(len, records)) != {3}:
        rows = list(filter(None, records))  # blank lines are skipped
        good = next((i for i, row in enumerate(rows) if len(row) != 3), len(rows))
        if good < len(rows):
            failure = f"expected 3 columns, got {len(rows[good])}"
    owner_texts, location_texts, prob_texts = zip(*rows[:good]) if good else ((), (), ())
    try:
        mass = np.fromiter(map(float, prob_texts), dtype=np.float64, count=good)
    except ValueError:
        good = next(i for i, text in enumerate(prob_texts) if not _is_float(text))
        failure = f"probability {prob_texts[good].strip()!r} is not a number"
        mass = np.fromiter(map(float, prob_texts[:good]), dtype=np.float64, count=good)
    if good and not (mass.min() > 0.0 and mass.max() < math.inf):
        good = int(np.flatnonzero(~((mass > 0.0) & (mass < math.inf)))[0])
        failure = "probability must be finite and positive"
    owner = np.fromiter(map(owners.__getitem__, map(str.strip, owner_texts[:good])), dtype=np.int32, count=good)
    column = np.fromiter(map(locations.__getitem__, map(str.strip, location_texts[:good])), dtype=np.int32, count=good)
    for buffer, values in zip(read, (owner, column, mass[:good])):
        buffer.frombytes(values.view(np.uint8))
    return failure


def _record_ends(records: list[list[str]], before: int) -> np.ndarray:
    """The physical line on which each non-blank record ends, the line before
    the first record being ``before``: a record spans one line plus one per
    line break inside its quoted fields, where CR LF, CR and LF each end a line."""
    spans = [1 + sum(f.count("\r") + f.count("\n") - f.count("\r\n") for f in record) for record in records]
    ends = before + np.cumsum(spans, dtype=np.int64)
    return ends[np.flatnonzero(list(map(len, records)))]


def _line(step_rows: list[int], step_lines: list[int | np.ndarray], row: int) -> int:
    """The physical line of a row read, by its index in file order."""
    step = bisect_right(step_rows, row) - 1
    lines, offset = step_lines[step], row - step_rows[step]
    return int(lines[offset]) if isinstance(lines, np.ndarray) else lines + 1 + offset


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _first_repeat(of_owner: array, columns: array, width: int) -> int | None:
    """The first row, in file order, whose owner and location an earlier row has."""
    keys = np.frombuffer(of_owner, dtype=np.int32).astype(np.int64) * width + np.frombuffer(columns, dtype=np.int32)
    order = np.argsort(keys, kind="stable")
    later = order[1:][keys[order[1:]] == keys[order[:-1]]]
    return int(later.min()) if later.size else None


def _histogram_set(path, owners, locations, of_owner, columns, masses) -> HistogramSet:
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
            raise FileFormatError(
                f"{path}: probabilities for owner {owners[i]!r} sum to {total!r}, not 1 +/- {HISTOGRAM_SUM_ATOL}"
            )
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
