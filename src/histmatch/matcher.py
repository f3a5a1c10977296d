"""Weighted bipartite matching between histogram sets.

Solvers:

* ``match_min_weight`` (A1): exact minimum-weight maximal matching, i.e. an
  assignment covering every left node, via the Hungarian method.
* ``match_cardinality`` (A2): exact minimum-weight matching with a fixed
  number of pairs (minimum-cost imperfect matching), solved as one padded
  assignment problem.
* ``match_bruteforce``: exhaustive enumeration oracle for small instances.
* ``match_greedy``: cheap approximation that repeatedly takes the globally
  lightest remaining edge.

All solvers minimize; similarity weights are converted to distances when the
instance is built.  A1 and A2 import scipy's solver at their first call, so
a process that never solves does not load ``scipy.optimize``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import HistogramSet
from .errors import (
    InvalidCardinalityError,
    MetricMismatchError,
    SwapSidesError,
    TooLargeForOracleError,
)
from .metrics import MetricKind, shannon_entropy, weight_matrix

ORACLE_LIMIT = 8

TOTAL_WEIGHT_ATOL = 1e-9


@dataclass(frozen=True)
class MatchResult:
    """A partial injective assignment of left indices to right indices."""

    pairs: tuple[tuple[int, int, float], ...]
    total_weight: float
    algorithm: str

    def __post_init__(self):
        lefts = [i for i, _, _ in self.pairs]
        rights = [j for _, j, _ in self.pairs]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            raise ValueError("matching reuses a left or right index")
        if abs(self.total_weight - math.fsum(w for _, _, w in self.pairs)) > TOTAL_WEIGHT_ATOL:
            raise ValueError("total_weight disagrees with the sum of pair weights")

    def __len__(self) -> int:
        return len(self.pairs)

    def as_mapping(self) -> dict[int, int]:
        return {i: j for i, j, _ in self.pairs}


@dataclass(frozen=True)
class BipartiteInstance:
    """Two histogram sets plus their dense, distance-oriented weight matrix."""

    left: HistogramSet
    right: HistogramSet
    metric: MetricKind
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.shape != (len(self.left), len(self.right)):
            raise ValueError("weight matrix shape does not match the histogram sets")
        if not np.isfinite(self.weights).all():
            raise ValueError("weights must be finite")

    @property
    def n_left(self) -> int:
        return self.weights.shape[0]

    @property
    def n_right(self) -> int:
        return self.weights.shape[1]


def build_instance(
    left: HistogramSet,
    right: HistogramSet,
    metric: MetricKind,
) -> BipartiteInstance:
    """Compute all pairwise weights between two histogram sets."""
    if len(left) == 0 or len(right) == 0:
        raise ValueError("histogram sets must be non-empty")
    w = weight_matrix(left, right, metric)
    return BipartiteInstance(left=left, right=right, metric=metric, weights=w)


def _result(weights: np.ndarray, pairs: list[tuple[int, int]], algorithm: str) -> MatchResult:
    triples = tuple(
        (int(i), int(j), float(weights[i, j])) for i, j in sorted(pairs)
    )
    total = math.fsum(w for _, _, w in triples)
    return MatchResult(pairs=triples, total_weight=total, algorithm=algorithm)


def match_min_weight(instance: BipartiteInstance) -> MatchResult:
    """Exact minimum-weight maximal matching: every left node gets assigned."""
    n, m = instance.weights.shape
    if n > m:
        raise SwapSidesError(
            f"left side has {n} nodes but right side only {m}; "
            "pass the smaller set as the left (unlabeled) side"
        )
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(instance.weights)
    return _result(instance.weights, list(zip(rows, cols)), "A1")


def match_cardinality(instance: BipartiteInstance, r: int) -> MatchResult:
    """Exact minimum-weight matching with exactly ``r`` pairs.

    Solved as one rectangular assignment on the n x (m + n - r) matrix that
    appends n - r dummy columns to the weights, all holding one constant d
    below every weight.  Every row is assigned, so an assignment with k real
    pairs leaves n - k rows in dummy columns, and k >= r because there are
    only n - r of them.  Given k > r real pairs, moving one of them to a free
    dummy column changes the cost by d - w < 0, so an optimum fills every
    dummy column and keeps exactly r real pairs.  All such assignments pay
    the same (n - r) d for their dummies, so the real pairs of the optimum
    form a minimum-weight r-matching.  The argument only compares d with the
    weights, so it holds for any finite matrix, negative entries included.
    d sits below the smallest weight by more than the largest weight
    magnitude, so the gap survives rounding at any scale (a fixed gap of 1
    rounds away once the weights reach 2**53).
    """
    w = instance.weights
    n, m = w.shape
    if not 1 <= r <= min(n, m):
        raise InvalidCardinalityError(f"cardinality {r} outside 1..{min(n, m)}")
    lo, hi = float(w.min()), float(w.max())
    padded = np.empty((n, m + n - r))
    padded[:, :m] = w
    padded[:, m:] = lo - max(hi, -lo) - 1.0
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(padded)
    real = cols < m
    return _result(w, list(zip(rows[real], cols[real])), f"A2({r})")


@lru_cache(maxsize=None)
def _permutation_columns(m: int, r: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(m), r)), dtype=np.int64)


def match_bruteforce(instance: BipartiteInstance, r: int | None = None) -> MatchResult:
    """Exhaustive enumeration oracle over all matchings of the given cardinality.

    Defaults to maximal cardinality min(N, N').  Exact, but limited to
    instances with at most ``ORACLE_LIMIT`` nodes per side.
    """
    n, m = instance.weights.shape
    if n > ORACLE_LIMIT or m > ORACLE_LIMIT:
        raise TooLargeForOracleError(f"oracle handles at most {ORACLE_LIMIT} nodes per side")
    if r is None:
        r = min(n, m)
    if not 0 <= r <= min(n, m):
        raise InvalidCardinalityError(f"cardinality {r} outside 0..{min(n, m)}")
    if r == 0:
        return MatchResult(pairs=(), total_weight=0.0, algorithm="BruteForce")

    w = instance.weights
    cols = _permutation_columns(m, r)
    arange_r = np.arange(r)
    best_total = np.inf
    best: tuple[tuple[int, ...], np.ndarray] | None = None
    for rows in itertools.combinations(range(n), r):
        sub = w[np.asarray(rows)]
        totals = sub[arange_r[None, :], cols].sum(axis=1)
        k = int(np.argmin(totals))
        if totals[k] < best_total:
            best_total = float(totals[k])
            best = (rows, cols[k])
    assert best is not None
    rows, chosen = best
    return _result(w, list(zip(rows, chosen)), "BruteForce")


def match_greedy(instance: BipartiteInstance) -> MatchResult:
    """Greedy approximation: repeatedly take the lightest edge between unmatched
    nodes until every left node is covered.  Total weight is an upper bound on
    the exact optimum."""
    n, m = instance.weights.shape
    if n > m:
        raise SwapSidesError("pass the smaller set as the left side")
    order = np.argsort(instance.weights, axis=None, kind="stable")
    used_l = np.zeros(n, dtype=bool)
    used_r = np.zeros(m, dtype=bool)
    pairs: list[tuple[int, int]] = []
    for flat in order:
        i, j = divmod(int(flat), m)
        if used_l[i] or used_r[j]:
            continue
        used_l[i] = True
        used_r[j] = True
        pairs.append((i, j))
        if len(pairs) == n:
            break
    return _result(instance.weights, pairs, "Greedy")


def generalized_log_likelihood(
    instance: BipartiteInstance, assignment: MatchResult, sample_count: int
) -> float:
    """Log-likelihood of an assignment, maximized over the unknown per-user
    distributions, when every histogram was built from a string of length
    ``sample_count``.

    Equals ``-2 T * sum_i [H(left_i) + H(right_i) + w_i]`` over the matched
    pairs.  On square instances the entropy part is the same for every
    assignment, so ranking assignments by this score (descending) reproduces
    the minimum-total-weight ranking (ascending).
    """
    if instance.metric is not MetricKind.PROPOSED:
        raise MetricMismatchError("likelihood scoring requires the divergence metric")
    if sample_count <= 0:
        raise ValueError("sample_count must be positive")
    total = math.fsum(
        shannon_entropy(instance.left.histograms[i])
        + shannon_entropy(instance.right.histograms[j])
        + w
        for i, j, w in assignment.pairs
    )
    return -2.0 * sample_count * total
