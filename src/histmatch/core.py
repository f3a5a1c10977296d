"""Domain types and dataset transforms.

Histograms are stored sparsely (location id -> probability); the location
alphabet is implicit and absent ids carry probability zero.  Bulk kernels read
a histogram set as ``PackedRows`` over its locations, packed once per set into
one row per distinct map (``HistogramSet.row_classes``).  All types are immutable
after construction and all operations are pure functions.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    EmptyStringError,
    HistmatchError,
    InvalidCoordinateError,
    ZeroMassAfterSuppressionError,
)

# Absolute tolerance for "probabilities sum to one" checks.
MASS_ATOL = 1e-9

# Mean Earth radius in meters, used by the local equirectangular projection.
EARTH_RADIUS_M = 6_371_000.0


def _scipy_extension(name: str):
    """scipy's compiled module ``name`` loaded without importing the ``scipy`` package, whose path
    ``find_spec`` reads, and registered under its own name, so that a later import of the package binds
    this very module (though not as the package's attribute); a module that is not compiled is imported
    as usual."""
    module = sys.modules.get(name)
    if module is None:
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(root, *name.split(".")[1:-1])])
        if spec is None or not isinstance(spec.loader, importlib.machinery.ExtensionFileLoader):
            return importlib.import_module(name)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


@dataclass(frozen=True)
class EventLog:
    """Timestamped observations of users at locations, as three parallel columns: event i is
    ``users[i]`` at ``locations[i]`` at ``timestamps[i]`` (seconds since the epoch, UTC), checked
    once for equal lengths and non-negative timestamps.  Ordering carries no meaning."""

    users: tuple[str, ...]
    timestamps: tuple[float, ...]
    locations: tuple[str, ...]

    def __post_init__(self):
        if not len(self.users) == len(self.timestamps) == len(self.locations):
            raise ValueError("event log columns differ in length")
        if self.timestamps and min(self.timestamps) < 0:
            raise ValueError(f"negative timestamp {min(self.timestamps)!r}")

    def __len__(self) -> int:
        return len(self.users)


@dataclass(frozen=True, eq=False)
class PackedRows:
    """Rows of ``width`` columns packed as in CSR: row i stores the masses ``data[indptr[i]:indptr[i + 1]]``
    at the columns ``indices`` there.  The arrays are the ones given, made read-only, once checked: ``indptr``
    starts at 0, never decreases and ends at the number of entries, and every column lies in [0, width)."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    width: int

    def __post_init__(self):
        ptr = self.indptr
        if not (ptr.size and ptr[0] == 0 and np.all(ptr[1:] >= ptr[:-1]) and ptr[-1] == self.data.size == self.indices.size):
            raise ValueError("indptr must start at 0, never decrease and end at the number of entries")
        if self.indices.size and not (self.indices.min() >= 0 and self.indices.max() < self.width):
            raise ValueError(f"column indices must lie in [0, {self.width})")
        for array in (ptr, self.indices, self.data):
            array.flags.writeable = False

    def __reduce__(self):
        return PackedRows, (self.indptr, self.indices, self.data, self.width)

    @property
    def shape(self) -> tuple[int, int]:
        return self.indptr.size - 1, self.width

    @property
    def nnz(self) -> int:
        return self.data.size

    def row_of(self) -> np.ndarray:
        """The row of each entry, in the narrowest unsigned type."""
        return np.repeat(np.arange(self.shape[0], dtype=np.min_scalar_type(self.shape[0] - 1)), np.diff(self.indptr))

    def take(self, rows: np.ndarray) -> PackedRows:
        """The rows ``rows``, in that order, in new arrays."""
        counts = np.diff(self.indptr)[rows]
        indptr = np.zeros(len(rows) + 1, dtype=self.indptr.dtype)
        np.cumsum(counts, out=indptr[1:])
        at = np.arange(indptr[-1]) + np.repeat(self.indptr[rows] - indptr[:-1], counts)
        return PackedRows(indptr, self.indices[at], self.data[at], self.width)

    def sorted(self) -> PackedRows:
        """The rows with each one's entries in ascending column, in new arrays: a copy when they already
        ascend, else two stable radix sorts of narrow keys, by column and then by row.  A column twice in
        one row is a ``ValueError``."""
        row = self.row_of()
        new_row = row[1:] != row[:-1]
        if np.all((self.indices[1:] > self.indices[:-1]) | new_row):
            return PackedRows(self.indptr, self.indices.copy(), self.data.copy(), self.width)
        order = np.argsort(self.indices.astype(np.min_scalar_type(self.width - 1)), kind="stable")
        order = order[np.argsort(row[order], kind="stable")]
        indices = self.indices[order]
        if np.any((indices[1:] == indices[:-1]) & ~new_row):
            raise ValueError("a location appears twice in one histogram")
        return PackedRows(self.indptr, indices, self.data[order], self.width)

    def columns(self) -> PackedRows:
        """The transpose, each column's rows ascending as in scipy's ``tocsc``;
        a stable argsort of 16-bit columns is a radix sort."""
        order = np.argsort(self.indices.astype(np.min_scalar_type(self.width - 1)), kind="stable")
        indptr = np.zeros(self.width + 1, dtype=np.intp)
        np.cumsum(np.bincount(self.indices, minlength=self.width), out=indptr[1:])
        return PackedRows(indptr, self.row_of()[order], self.data[order], self.shape[0])


@dataclass(frozen=True)
class Histogram:
    """Sparse empirical distribution over location identifiers.

    Only strictly positive probabilities are stored.  ``sample_count`` is the
    number of observations the histogram was built from (0 when synthetic or
    externally supplied); equality ignores it, as the CSV form does not keep it.
    """

    mass: dict[str, float]
    sample_count: int = field(default=0, compare=False)

    def __post_init__(self):
        if not self.mass:
            raise ValueError("histogram must have at least one entry")
        # A NaN can hide from ``min``, but it makes the sum NaN, which fails too.
        if not min(self.mass.values()) > 0.0:
            raise ValueError("histogram entries must be strictly positive")
        total = math.fsum(self.mass.values())
        if not abs(total - 1.0) <= MASS_ATOL:
            raise ValueError(f"histogram mass sums to {total!r}, not 1")

    @property
    def support_count(self) -> int:
        return len(self.mass)


class HistogramSet:
    """Ordered collection of (owner id, histogram) pairs, immutable.

    A set is built from its entries, or by ``from_rows`` from one row per
    entry.  A set built from rows holds only arrays: its ``entries``,
    ``histograms`` and ``histogram()`` are ``Histogram`` views built on first
    use, which ``len``, ``owners``, ``locations``, ``rows`` and
    ``row_classes`` never need.
    """

    def __init__(self, entries: Iterable[tuple[str, Histogram]]):
        entries = tuple(entries)
        owners = tuple(o for o, _ in entries)
        if len(set(owners)) != len(owners):
            raise ValueError("owner ids must be unique within a histogram set")
        self.__dict__.update(entries=entries, owners=owners)

    @classmethod
    def from_rows(cls, owners: Iterable[str], locations: Iterable[str], rows: PackedRows) -> "HistogramSet":
        """The set whose entry i maps each column j of row i of ``rows`` to
        ``locations[j]``, under owner ``owners[i]``, in the row's stored order.

        ``locations`` are distinct and listed in the order the entries first
        use them, as the ``locations`` of the same maps built as ``Histogram``
        objects.  One vectorized pass checks that and what ``Histogram`` and
        ``__init__`` check: rows non-empty, masses positive and finite, each
        row's ``math.fsum`` within ``MASS_ATOL`` of 1, no column twice in a
        row, owners unique.  The set keeps ``rows`` as its ``rows`` and packs
        a copy at once (``row_classes``).
        """
        owners, locations = tuple(owners), tuple(locations)
        if rows.shape != (len(owners), len(locations)):
            raise ValueError(f"rows of shape {rows.shape} for {len(owners)} owners and {len(locations)} locations")
        if len(set(owners)) != len(owners):
            raise ValueError("owner ids must be unique within a histogram set")
        if len(set(locations)) != len(locations):
            raise ValueError("locations must be distinct")
        if not np.all(np.diff(rows.indptr) > 0):
            raise ValueError("histogram must have at least one entry")
        if rows.nnz and not (rows.data.min() > 0.0 and rows.data.max() < math.inf):
            raise ValueError("histogram entries must be strictly positive and finite")
        if not _in_first_use_order(rows.indices, len(locations)):
            raise ValueError("locations are not listed in the order the rows first use them")
        for _, total in row_sums_off(rows.indptr, rows.data, MASS_ATOL)[:1]:
            raise ValueError(f"histogram mass sums to {total!r}, not 1")
        distinct, of_row = _pack(rows)
        hset = cls.__new__(cls)
        hset.__dict__.update(owners=owners, locations=locations, rows=rows, row_classes=(distinct, of_row))
        return hset

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a HistogramSet is immutable")

    def __reduce__(self):
        """``from_rows`` of the set's arrays, however it was built (a map-built
        set's ``locations`` are its ``rows``' first-use order): an unpickled
        set packs again, read-only, and builds one ``Histogram`` per entry,
        with ``sample_count`` 0, only on use."""
        return HistogramSet.from_rows, (self.owners, self.locations, self.rows)

    def __eq__(self, other):
        if not isinstance(other, HistogramSet):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self) -> str:
        return f"HistogramSet(entries={self.entries!r})"

    def __len__(self) -> int:
        return len(self.owners)

    @cached_property
    def entries(self) -> tuple[tuple[str, Histogram], ...]:
        """Each owner with its map, built from the rows of a set built from them."""
        rows = self.rows
        keys = list(map(self.locations.__getitem__, rows.indices.tolist()))
        masses = rows.data.tolist()
        ptr = rows.indptr.tolist()
        return tuple(
            (owner, Histogram(mass=dict(zip(keys[a:b], masses[a:b]))))
            for owner, a, b in zip(self.owners, ptr, ptr[1:])
        )

    @cached_property
    def histograms(self) -> tuple[Histogram, ...]:
        return tuple(h for _, h in self.entries)

    @cached_property
    def _owner_index(self) -> dict[str, int]:
        return dict(zip(self.owners, range(len(self.owners))))

    def histogram(self, owner: str) -> Histogram:
        return self.entries[self._owner_index[owner]][1]

    @cached_property
    def locations(self) -> tuple[str, ...]:
        """Every location the set uses, in the order of first use (as the walk that packs ``rows`` codes them)."""
        self.rows
        return vars(self)["locations"]

    @cached_property
    def rows(self) -> PackedRows:
        """One row per entry over ``locations``, in set order, each row's columns (indices into
        ``locations``) in its map's key order; read-only.  The CSV writer, the anonymizer and the
        harness read it."""
        objects, of_object = self._object_rows()
        return objects if objects.shape[0] == len(of_object) else objects.take(of_object)

    @cached_property
    def row_classes(self) -> tuple[PackedRows, np.ndarray]:
        """The set's packed form: one row per distinct map over
        ``locations``, in order of first occurrence with each row's columns
        ascending, and each entry's row in it.  Each distinct histogram object
        is packed once (``_pack`` then keeps rows of equal maps once), or each
        row of ``rows`` once known, to the same arrays, read-only and shared."""
        if "rows" in vars(self):
            return _pack(self.rows)
        objects, of_object = self._object_rows()
        distinct, of_first = _pack(objects)
        of_row = of_first[of_object]
        of_row.flags.writeable = False
        return distinct, of_row

    def _object_rows(self) -> tuple[PackedRows, np.ndarray]:
        """New rows, one per distinct histogram object in order of first occurrence, each in its map's key
        order, and each entry's row among them, from one walk over the maps that codes each location at its
        first use and sets ``locations``.  Not kept: a set that reads ``row_classes`` first and ``rows`` later walks twice."""
        hists = self.histograms
        objects = {id(h): h for h in hists}
        position = dict(zip(objects, range(len(objects))))
        of_object = np.fromiter(map(position.__getitem__, map(id, hists)), dtype=np.intp, count=len(hists))
        column = _Codes()
        # int32 offsets, as the CSV reader's, while the rows gathered by entry fit them.
        indptr = np.zeros(len(objects) + 1, dtype=np.int32 if sum(len(h.mass) for h in hists) < 2**31 else np.int64)
        np.cumsum([len(h.mass) for h in objects.values()], out=indptr[1:])
        nnz = int(indptr[-1])
        locs = map(column.__getitem__, chain.from_iterable(h.mass for h in objects.values()))
        indices = np.fromiter(locs, dtype=np.int32, count=nnz)
        data = np.fromiter(chain.from_iterable(h.mass.values() for h in objects.values()), dtype=np.float64, count=nnz)
        vars(self).setdefault("locations", tuple(column))
        return PackedRows(indptr, indices, data, len(column)), of_object


class _Codes(dict):
    """Each key's integer code, given in order of first use."""

    def __missing__(self, key):
        self[key] = code = len(self)
        return code


def _in_first_use_order(columns: np.ndarray, width: int) -> bool:
    """Whether every column below ``width`` occurs, each first after every
    smaller one: the largest column so far then starts at 0 and grows by one
    at a time, up to ``width`` - 1."""
    if not columns.size:
        return width == 0
    largest = np.maximum.accumulate(columns)
    steps = np.count_nonzero(largest[1:] != largest[:-1])
    return columns.min() >= 0 and largest[0] == 0 and largest[-1] == steps == width - 1


def _pack(rows: PackedRows) -> tuple[PackedRows, np.ndarray]:
    """``rows`` with each row's columns ascending, one row per distinct row, in order of first occurrence,
    and each row's index among them: the one place that decides which entries share a row.  With
    ascending columns and positive, finite masses, two rows' bytes are equal exactly when their maps are,
    so a release packs one row per cluster whether its owners share a centroid object or were read from
    CSV.  Each row's first row of equal bytes is looked up by the hash of its bytes and compared with the
    rows of that hash; no row's bytes are kept.  The arrays returned are read-only."""
    rows = rows.sorted()
    ptr, indices, data = rows.indptr.tolist(), rows.indices, rows.data
    buckets: dict[int, list[int]] = {}
    of_first = np.empty(rows.shape[0], dtype=np.intp)
    for i, (a, b) in enumerate(zip(ptr, ptr[1:])):
        cols, vals = indices[a:b], data[a:b]
        bucket = buckets.setdefault(hash((cols.tobytes(), vals.tobytes())), [])
        same = (j for j in bucket if np.array_equal(cols, indices[ptr[j] : ptr[j + 1]])
                and np.array_equal(vals, data[ptr[j] : ptr[j + 1]]))
        of_first[i] = first = next(same, i)
        if first == i:
            bucket.append(i)
    kept = np.flatnonzero(of_first == np.arange(rows.shape[0]))
    distinct = rows if kept.size == rows.shape[0] else rows.take(kept)
    of_row = np.searchsorted(kept, of_first)
    of_row.flags.writeable = False
    return distinct, of_row


def row_sums_off(ptr: np.ndarray, data: np.ndarray, atol: float) -> list[tuple[int, float]]:
    """Each row of the packed masses ``data``, row i at ``ptr[i]:ptr[i + 1]``,
    whose ``math.fsum`` is farther than ``atol`` from 1, with that sum, in row
    order.  Rows must be non-empty and masses positive.

    The float64 sum of a row's n positive masses lies within about n 2^-53
    times itself of the exact sum, so a row is summed exactly only when its
    rounded sum misses 1 by more than ``atol`` less twice that margin.  A row
    whose float64 sum overflows sums to ``inf``, where ``math.fsum`` raises.
    """
    with np.errstate(over="ignore"):
        sums = np.add.reduceat(data, ptr[:-1]) if data.size else np.zeros(len(ptr) - 1)
    margin = np.diff(ptr) * np.finfo(np.float64).eps * sums
    near = np.flatnonzero(~(np.abs(sums - 1.0) + margin <= atol)).tolist()
    totals = (math.fsum(data[ptr[i] : ptr[i + 1]].tolist()) if sums[i] < math.inf else math.inf for i in near)
    return [(i, total) for i, total in zip(near, totals) if not abs(total - 1.0) <= atol]


@dataclass(frozen=True)
class GroundTruth:
    """Partial injective map from unlabeled owner ids to labeled owner ids."""

    mapping: dict[str, str]

    def __post_init__(self):
        values = list(self.mapping.values())
        if len(set(values)) != len(values):
            raise ValueError("ground-truth mapping must be injective")

    def __len__(self) -> int:
        return len(self.mapping)

    @cached_property
    def inverse(self) -> dict[str, str]:
        return {v: k for k, v in self.mapping.items()}


def union_rows(first: HistogramSet, second: HistogramSet) -> tuple[PackedRows, PackedRows]:
    """Both sets' distinct rows (``HistogramSet.row_classes``) over the union
    of their locations, ``first``'s and then the ones only ``second`` uses:
    ``first``'s own arrays, and ``second``'s ``data`` and ``indptr`` with each
    column remapped, so its rows need not ascend in the union, an order no kernel reads."""
    a, b = first.row_classes[0], second.row_classes[0]
    column = dict(zip(first.locations, range(len(first.locations))))
    for loc in second.locations:
        column.setdefault(loc, len(column))
    remap = np.fromiter(map(column.__getitem__, second.locations), dtype=np.intp, count=len(second.locations))
    return PackedRows(a.indptr, a.indices, a.data, len(column)), PackedRows(b.indptr, remap.astype(b.indices.dtype)[b.indices], b.data, len(column))


def build_histogram(events: Iterable[str]) -> Histogram:
    """Empirical distribution of a sequence of location ids (``Counter`` count / length).

    Locations with equal counts share one float object: t draws give far
    fewer distinct counts than locations."""
    counts = Counter(events)
    t = sum(counts.values())
    if t == 0:
        raise EmptyStringError("cannot build a histogram from an empty sequence")
    share = {c: c / t for c in set(counts.values())}
    mass = {loc: share[c] for loc, c in counts.items()}
    return Histogram(mass=mass, sample_count=t)


def split_by_period(log: EventLog, boundary: float) -> tuple[EventLog, EventLog]:
    """Split into events strictly before the boundary and events at or after
    it, each half in log order: one boolean mask, applied to each column by ``compress``."""
    before = [t < boundary for t in log.timestamps]
    after = [not b for b in before]
    columns = (log.users, log.timestamps, log.locations)
    first, second = (EventLog(*(tuple(compress(c, mask)) for c in columns)) for mask in (before, after))
    return first, second


def filter_active_users(a: EventLog, b: EventLog) -> set[str]:
    """Users with at least one event in each of the two logs."""
    return set(a.users) & set(b.users)


def histograms_by_user(log: EventLog, users: set[str] | None = None) -> HistogramSet:
    """Per-user histograms of an event log, optionally restricted to a user subset.

    Owners appear in sorted order so ingestion is reproducible.
    """
    sequences: dict[str, list[str]] = defaultdict(list)
    for user, location in zip(log.users, log.locations):
        if users is None or user in users:
            sequences[user].append(location)
    entries = tuple((u, build_histogram(sequences[u])) for u in sorted(sequences))
    return HistogramSet(entries=entries)


def aggregate_locations(h: Histogram, mapping: Mapping[str, str]) -> Histogram:
    """Merge probability mass along a location relabeling; unmapped ids self-map."""
    merged: dict[str, float] = defaultdict(float)
    for loc, p in h.mass.items():
        merged[mapping.get(loc, loc)] += p
    return Histogram(mass=dict(merged), sample_count=h.sample_count)


def parse_latlon(text: str) -> tuple[float, float]:
    """The latitude and longitude of a ``"lat,lon"`` location."""
    parts = text.split(",")
    if len(parts) != 2:
        raise HistmatchError(f"expected 'lat,lon', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise HistmatchError(f"expected numeric 'lat,lon', got {text!r}") from None


def quantize_geo(lat: float, lon: float, cell_side: float, origin: tuple[float, float]) -> str:
    """Grid-cell key ``"row:col"`` of a point under a local equirectangular projection.

    Offsets are measured in meters north and east of the origin with the
    meters-per-degree scale fixed at the origin latitude, then floor-divided
    by the cell side.
    """
    lat0, lon0 = origin
    if not all(map(math.isfinite, (lat, lon, lat0, lon0))):
        raise InvalidCoordinateError(f"non-finite coordinate ({lat!r}, {lon!r})")
    if not 0 < cell_side < math.inf:
        raise ValueError(f"cell_side must be positive and finite, got {cell_side!r}")
    north = math.radians(lat - lat0) * EARTH_RADIUS_M
    east = math.radians(lon - lon0) * EARTH_RADIUS_M * math.cos(math.radians(lat0))
    try:
        return f"{math.floor(north / cell_side)}:{math.floor(east / cell_side)}"
    except OverflowError:
        raise InvalidCoordinateError(f"cell index of ({lat!r}, {lon!r}) overflows at cell side {cell_side!r}") from None


def suppress_and_renormalize(h: Histogram, keep: set[str]) -> Histogram:
    """Restrict a histogram to the kept locations and rescale to total mass one."""
    if keep.issuperset(h.mass):
        return h
    kept = {loc: p for loc, p in h.mass.items() if loc in keep}
    total = math.fsum(kept.values())
    if not kept or total <= 0.0:
        raise ZeroMassAfterSuppressionError("histogram has no mass on the kept locations")
    mass = {loc: p / total for loc, p in kept.items()}
    return Histogram(mass=mass, sample_count=h.sample_count)
