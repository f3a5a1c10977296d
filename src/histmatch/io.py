"""CSV and JSON serialization.

File formats:

* event log: headered CSV ``user,timestamp,location`` with integer epoch
  seconds (UTC);
* location aggregation table: headered CSV ``from,to``;
* histogram set: headered CSV ``owner,location,probability`` with rows
  grouped by owner; each owner's probabilities must sum to 1 within 1e-6 on
  load (they are renormalized exactly when slightly off);
* ground truth: headered CSV ``left_owner,right_owner``, no owner repeating;
* match result: headered CSV ``left_owner,right_owner,weight`` plus a JSON
  summary ``{algorithm, cardinality, total_weight, runtime_ms}``;
* cluster partition: JSON ``{k, g, L, clusters}``.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from .core import (
    MASS_ATOL,
    EventLog,
    GroundTruth,
    Histogram,
    HistogramSet,
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


def _read_rows(path: str | Path, expected_header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Yield each non-empty row after a checked header with its physical line
    number, one at a time, so a reader holds only what it keeps of the file.
    Every row has as many columns as the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
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


def read_histogram_set(path: str | Path) -> HistogramSet:
    by_owner: dict[str, dict[str, float]] = {}
    # One string object per distinct location, shared by every owner's keys:
    # a set then keeps about half of what one string per row would cost.
    symbols: dict[str, str] = {}
    for lineno, row in _read_rows(path, HISTOGRAM_HEADER):
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


def write_histogram_set(hset: HistogramSet, path: str | Path) -> None:
    rows = ([owner, loc, repr(p)] for owner, hist in hset.entries for loc, p in hist.mass.items())
    write_rows(path, HISTOGRAM_HEADER, rows)


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
