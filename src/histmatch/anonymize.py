"""k-anonymization of histogram sets by fixed-size micro-aggregation.

Owners are partitioned into clusters of at least k members; the released set
replaces every histogram with its cluster centroid, so each released record is
exactly identical to at least k-1 others.  Cluster quality is scored by the
l1 distortion between members and their centroid, normalized by the distortion
of collapsing everything to the grand centroid.

Both steps run on the set's per-entry packed rows (``HistogramSet.rows``), and
every l1 distance that decides a cluster or enters the loss equals
``weight_l1``'s, which ``math.fsum`` rounds exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable

import numpy as np

from .core import Histogram, HistogramSet, PackedRows
from .errors import InvalidKError, PartitionCoverageError
from .metrics import weight_l1

# Unit roundoff of float64.
_U = np.finfo(np.float64).eps / 2


@dataclass(frozen=True)
class ClusterPartition:
    """Disjoint owner clusters covering a histogram set, with their centroids."""

    clusters: tuple[tuple[str, ...], ...]
    centroids: tuple[Histogram, ...]

    def __post_init__(self):
        if len(self.clusters) != len(self.centroids):
            raise ValueError("one centroid required per cluster")
        if any(len(c) == 0 for c in self.clusters):
            raise ValueError("clusters must be non-empty")
        owners = [o for cluster in self.clusters for o in cluster]
        if len(set(owners)) != len(owners):
            raise ValueError("clusters must be disjoint")

    @property
    def g(self) -> int:
        return len(self.clusters)

    @property
    def k_achieved(self) -> int:
        return min(len(c) for c in self.clusters)

    @cached_property
    def cluster_of(self) -> dict[str, int]:
        return {o: q for q, cluster in enumerate(self.clusters) for o in cluster}

    def owners(self) -> set[str]:
        return set(self.cluster_of)


def _mean_row(rows: PackedRows, live: np.ndarray) -> np.ndarray:
    """Dense centroid of the live rows: each column summed in row order from
    0.0, then scaled by 1 / count, as a walk over the rows' maps adds them."""
    entries = np.repeat(live, np.diff(rows.indptr))
    total = np.bincount(rows.indices[entries], weights=rows.data[entries], minlength=rows.shape[1])
    return total * (1.0 / np.count_nonzero(live))


def _centroids(histograms: HistogramSet, clusters: list[tuple[int, ...]]) -> tuple[Histogram, ...]:
    """Each cluster's mean histogram; a single member is its own centroid.

    A centroid's masses are those ``_mean_row`` gives over its members' rows,
    gathered in row order, so O(nnz + g M) in all; its keys come in their
    order of first use over the members' maps.
    """
    hists, rows = histograms.histograms, histograms.rows
    column = dict(zip(histograms.locations, range(rows.shape[1])))
    out = []
    for cluster in clusters:
        if len(cluster) == 1:
            out.append(hists[cluster[0]])
            continue
        members = rows.take(np.array(cluster))
        keys = dict.fromkeys(chain.from_iterable(hists[i].mass for i in cluster))
        at = np.fromiter(map(column.__getitem__, keys), dtype=np.intp, count=len(keys))
        out.append(Histogram(mass=dict(zip(keys, _mean_row(members, np.ones(len(cluster), dtype=bool))[at].tolist()))))
    return tuple(out)


def _l1_by_minima(sums: np.ndarray, total: float, minima: np.ndarray, n: int) -> tuple[np.ndarray, float]:
    """l1 distance of each row x to a center a from X = |x| (``sums``),
    A = |a| (``total``) and m, the sum of min(x_l, a_l) over the locations
    both use (``minima``), and a bound on its distance from ``weight_l1``'s
    value, where no sum has more than ``n`` terms.

    For nonnegative masses |x_l - a_l| = x_l + a_l - 2 min(x_l, a_l), so
    l1(x, a) = X + A - 2 m.  X, A and m are sums of at most n nonnegative
    terms, each computed within g(n) = n u / (1 - n u) of its value, and
    m <= (X + A) / 2.  So fl(X + A) lies within g(n + 1) (X + A) of X + A,
    2 fl(m) within g(n) (X + A) of 2 m, the subtraction rounds by under
    2 u (1 + g(n + 1)) (X + A), and ``math.fsum`` rounds ``weight_l1`` by
    u (X + A).  These add to under 3 g(n + 2) (X + A), and X + A < 4 for
    histograms and their means; clipping both to [0, 2] moves neither further
    apart.  The bound returned is 12 g(n + 2).
    """
    d = (sums + total) - 2.0 * minima
    np.clip(d, 0.0, 2.0, out=d)
    n += 2
    return d, 12.0 * n * _U / (1.0 - n * _U)


def _l1_to(rows: PackedRows, sums: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """l1 distance of every row to the dense vector ``v`` in O(nnz + M), and
    ``_l1_by_minima``'s bound; ``sums`` are the rows' ``np.add.reduceat`` sums."""
    at = v[rows.indices]
    np.minimum(rows.data, at, out=at)
    longest = int(np.diff(rows.indptr).max())
    return _l1_by_minima(sums, float(v.sum()), np.add.reduceat(at, rows.indptr[:-1]), max(v.size, longest))


def _l1_near(rows: PackedRows, columns: PackedRows, sums: np.ndarray, anchor: int) -> tuple[np.ndarray, float]:
    """l1 distance of every row to row ``anchor`` from the anchor's columns
    alone, in O(rows + entries in those columns), and ``_l1_by_minima``'s
    bound; ``columns`` is ``rows.columns()`` and ``sums`` as for ``_l1_to``."""
    a, b = rows.indptr[anchor], rows.indptr[anchor + 1]
    at = rows.indices[a:b]
    starts = columns.indptr[at]
    counts = columns.indptr[at + 1] - starts
    ends = np.cumsum(counts)
    entries = np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts)
    shared = np.minimum(columns.data[entries], np.repeat(rows.data[a:b], counts))
    minima = np.bincount(columns.indices[entries], weights=shared, minlength=rows.shape[0])
    return _l1_by_minima(sums, sums[anchor], minima, int(np.diff(rows.indptr).max()))


def microaggregate(histograms: HistogramSet, k: int) -> tuple[ClusterPartition, HistogramSet]:
    """Partition owners into clusters of size >= k and release the centroids.

    Fixed-size heuristic: repeatedly take the record farthest (in l1) from the
    centroid of the remaining records, group it with its k-1 nearest
    neighbours, and once fewer than 2k records remain they form the final
    cluster.  Every cluster size lies in [k, 2k-1].

    Each step reads only the live rows, gathered again with their column form
    whenever their count halves, so it costs O(live nnz + M): the centroid
    and the farthest record are passes over the live rows, and the anchor's
    neighbours come from its own columns alone (``_l1_near``), O(live rows +
    the entries in those columns).  Both distances are filters with the
    absolute error bound tol that ``_l1_by_minima`` derives.  Records within
    2 tol of the farthest are compared again with ``_exact_l1``, in
    O(nnz + M) however many tie.  Records more than 2 tol nearer than the
    (k-1)-th nearest are surely among the k-1; those within 2 tol of it are
    compared with ``weight_l1`` for the places left.  Ties go to the lowest
    index.  The partition is therefore the one exact distances give.
    """
    n = len(histograms)
    if not 1 <= k <= n:
        raise InvalidKError(f"k={k} outside 1..{n}")
    hists = histograms.histograms
    rows = histograms.rows
    # intp columns, which numpy's gathers and ``np.bincount`` take unconverted.
    live, ids = PackedRows(rows.indptr, rows.indices.astype(np.intp), rows.data, rows.width), np.arange(n)
    columns, sums = live.columns(), np.add.reduceat(live.data, live.indptr[:-1])
    alive = np.ones(n, dtype=bool)
    clusters: list[tuple[int, ...]] = []
    while (remaining := np.flatnonzero(alive)).size >= 2 * k:
        if 2 * remaining.size <= alive.size:
            live, ids, sums = live.take(remaining), ids[remaining], sums[remaining]
            columns, alive, remaining = live.columns(), np.ones(remaining.size, dtype=bool), np.arange(remaining.size)
        center = _mean_row(live, alive)
        d, tol = _l1_to(live, sums, center)
        d = d[remaining]
        top = remaining[d >= d.max() - 2.0 * tol]
        anchor = int(top[0])
        if top.size > 1:
            sub = live.take(top)
            exact = _exact_l1(sub, center[sub.indices], repeat(_exact_sum(center.tolist())))
            anchor = int(top[exact.index(max(exact))])
        alive[anchor] = False
        members = [anchor]
        if k > 1:
            others = remaining[remaining != anchor]
            d, tol = _l1_near(live, columns, sums, anchor)
            d = d[others]
            cut = np.partition(d, k - 2)[k - 2]
            low, high = cut - 2.0 * tol, cut + 2.0 * tol
            near, band = others[d < low], others[(d >= low) & (d <= high)]
            if near.size + band.size > k - 1:
                exact = [weight_l1(hists[i], hists[ids[anchor]]) for i in ids[band].tolist()]
                band = band[sorted(range(band.size), key=exact.__getitem__)[: k - 1 - near.size]]
            alive[near] = alive[band] = False
            members += near.tolist() + band.tolist()
        clusters.append(tuple(sorted(ids[members].tolist())))
    if remaining.size:
        clusters.append(tuple(ids[remaining].tolist()))

    centroids = _centroids(histograms, clusters)
    owners = histograms.owners
    partition = ClusterPartition(
        clusters=tuple(tuple(owners[i] for i in cluster) for cluster in clusters),
        centroids=centroids,
    )
    released = HistogramSet(tuple((owner, centroids[partition.cluster_of[owner]]) for owner in owners))
    return partition, released


def _exact_sum(values: list[float]) -> list[float]:
    """A few floats whose exact sum is the exact sum of ``values``."""
    parts: list[float] = []
    while (rest := math.fsum(values + [-p for p in parts])) != 0.0:
        parts.append(rest)
    return parts


def _exact_l1(rows: PackedRows, at: np.ndarray, totals: Iterable[list[float]]) -> list[float]:
    """``weight_l1`` of each row against its center, bit for bit, in O(nnz).

    ``at`` holds the center's mass at each stored entry of ``rows`` and
    ``totals`` each row's center mass as the parts ``_exact_sum`` returns.
    With c the center and s the row's support, the sum
    sum_s |x - c| + sum c - sum_s c is in exact arithmetic the sum that
    ``weight_l1`` hands to ``math.fsum``, and fsum rounds the two alike.
    """
    terms = np.empty(2 * at.size)
    terms[0::2] = np.abs(rows.data - at)
    terms[1::2] = -at
    ptr = (2 * rows.indptr).tolist()
    return [min(max(0.0, math.fsum(terms[a:b].tolist() + total)), 2.0) for a, b, total in zip(ptr, ptr[1:], totals)]


def information_loss(partition: ClusterPartition, histograms: HistogramSet) -> float:
    """Normalized information loss of a partitioning, in [0, 1].

    Within-cluster l1 distortion divided by the distortion of replacing every
    histogram with the grand centroid.  0 for the identity partition, 1 for a
    single cluster; if all inputs are identical no information can be lost and
    the result is 0 by convention.
    """
    if partition.owners() != set(histograms.owners):
        raise PartitionCoverageError("partition does not cover the histogram set's owners")
    rows, locations = histograms.rows, histograms.locations
    cluster_of = [partition.cluster_of[owner] for owner in histograms.owners]
    # Each stored entry's mass in its owner's centroid map.
    maps = map(repeat, (partition.centroids[q].mass for q in cluster_of), np.diff(rows.indptr).tolist())
    locs = np.array(locations, dtype=object)[rows.indices]
    at = np.fromiter(map(dict.get, chain.from_iterable(maps), locs, repeat(0.0)), dtype=np.float64, count=rows.nnz)
    totals = [_exact_sum(list(c.mass.values())) for c in partition.centroids]
    numerator = math.fsum(_exact_l1(rows, at, map(totals.__getitem__, cluster_of)))
    grand = _mean_row(rows, np.ones(len(histograms), dtype=bool))
    denominator = math.fsum(_exact_l1(rows, grand[rows.indices], repeat(_exact_sum(grand.tolist()))))
    if denominator == 0.0:
        return 0.0
    return numerator / denominator


def verify_k_anonymity(released: HistogramSet, k: int) -> bool:
    """True when every released histogram's sparse map is exactly equal to the
    maps of at least k-1 other released histograms: every distinct row of
    ``HistogramSet.row_classes`` is at least k entries' row."""
    return bool(np.all(np.bincount(released.row_classes[1]) >= k))
