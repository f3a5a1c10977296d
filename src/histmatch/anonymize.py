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

    A centroid's masses are those ``_mean_row`` gives over its members, which
    come in row order, and its keys come in their order of first use over the
    members' maps.
    """
    hists, rows = histograms.histograms, histograms.rows
    column = dict(zip(histograms.locations, range(rows.shape[1])))
    out = []
    for cluster in clusters:
        if len(cluster) == 1:
            out.append(hists[cluster[0]])
            continue
        members = np.zeros(len(hists), dtype=bool)
        members[list(cluster)] = True
        keys = dict.fromkeys(chain.from_iterable(hists[i].mass for i in cluster))
        at = np.fromiter(map(column.__getitem__, keys), dtype=np.intp, count=len(keys))
        out.append(Histogram(mass=dict(zip(keys, _mean_row(rows, members)[at].tolist()))))
    return tuple(out)


def _l1_to(rows: PackedRows, v: np.ndarray) -> tuple[np.ndarray, float]:
    """l1 distance of every row to the dense vector ``v`` in O(nnz + M), and a
    bound on its distance from ``weight_l1``'s value.

    A row x with support s gets sum_s |x - v| + (sum v - sum_s v).  Every sum
    has at most n = M + max|s| nonnegative terms, so it lies within
    g(n) = n u / (1 - n u) of its magnitude, and the magnitudes are at most
    |x| + S, S and S, with |x| < 2 and S = sum v.  The two roundings that
    combine them, and the one ``math.fsum`` makes, add under 5 u (2 + 4 S).
    The bound returned is g(n + 5) (2 + 4 S).
    """
    starts = rows.indptr[:-1]
    at = v[rows.indices]
    total = float(v.sum())
    d = np.add.reduceat(np.abs(rows.data - at), starts) + (total - np.add.reduceat(at, starts))
    np.clip(d, 0.0, 2.0, out=d)
    n = v.size + int(np.diff(rows.indptr).max()) + 5
    return d, n * _U / (1.0 - n * _U) * (2.0 + 4.0 * total)


def microaggregate(histograms: HistogramSet, k: int) -> tuple[ClusterPartition, HistogramSet]:
    """Partition owners into clusters of size >= k and release the centroids.

    Fixed-size heuristic: repeatedly take the record farthest (in l1) from the
    centroid of the remaining records, group it with its k-1 nearest
    neighbours, and once fewer than 2k records remain they form the final
    cluster.  Every cluster size lies in [k, 2k-1].

    Each step costs one vectorized l1 pass per choice over the packed rows.
    Records within twice ``_l1_to``'s error bound of the farthest are compared
    again with ``_exact_l1``, in O(nnz + M) however many tie; those within it
    of the (k-1)-th nearest, with ``weight_l1``.  Ties go to the lowest index.
    The partition is therefore the one exact distances give.
    """
    n = len(histograms)
    if not 1 <= k <= n:
        raise InvalidKError(f"k={k} outside 1..{n}")
    hists = histograms.histograms
    rows = histograms.rows
    alive = np.ones(n, dtype=bool)
    clusters: list[tuple[int, ...]] = []
    while (remaining := np.flatnonzero(alive)).size >= 2 * k:
        center = _mean_row(rows, alive)
        d, tol = _l1_to(rows, center)
        d = d[remaining]
        top = remaining[d >= d.max() - 2.0 * tol]
        anchor = int(top[0])
        if top.size > 1:
            sub = rows.take(top)
            exact = _exact_l1(sub, center[sub.indices], repeat(_exact_sum(center.tolist())))
            anchor = int(top[exact.index(max(exact))])
        alive[anchor] = False
        members = [anchor]
        if k > 1:
            others = remaining[remaining != anchor]
            a, b = rows.indptr[anchor], rows.indptr[anchor + 1]
            dense = np.zeros(rows.shape[1])
            dense[rows.indices[a:b]] = rows.data[a:b]
            d, tol = _l1_to(rows, dense)
            d = d[others]
            near = others[d <= np.partition(d, k - 2)[k - 2] + 2.0 * tol]
            if near.size > k - 1:
                exact = [weight_l1(hists[i], hists[anchor]) for i in near.tolist()]
                near = near[sorted(range(near.size), key=exact.__getitem__)[: k - 1]]
            alive[near] = False
            members.extend(near.tolist())
        clusters.append(tuple(sorted(members)))
    if remaining.size:
        clusters.append(tuple(remaining.tolist()))

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
