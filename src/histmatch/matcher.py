"""Weighted bipartite matching between histogram sets.

Solvers:

* ``match_min_weight`` (A1): exact minimum-weight maximal matching, i.e. an
  assignment covering every left node, via the Hungarian method.  Under the
  divergence weight, on sets of distinct rows sharing at least
  ``CERTIFIED_MIN_COOCCURRENCES`` locations, it solves a matrix of lower
  bounds and computes exact weights only where the assignment lands, until
  it lands on exact weights alone, which certifies it optimal.  A set that
  repeats a row, as a k-anonymized release does, takes the dense path.
* ``match_cardinality`` (A2): exact minimum-weight matching with a fixed
  number of pairs (minimum-cost imperfect matching), solved as one padded
  assignment problem.
* ``match_bruteforce``: exhaustive enumeration oracle for small instances.
* ``match_greedy``: cheap approximation that repeatedly takes the globally
  lightest remaining edge.

All solvers minimize; similarity weights are converted to distances when the
instance is built.  A1 and A2 load scipy's compiled assignment solver alone
at their first call (``core._scipy_extension``), as ``weight_matrix`` loads
scipy's sparse kernels, so no command loads ``scipy.optimize`` or
``scipy.sparse``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .core import HistogramSet, _scipy_extension
from .errors import (
    InvalidCardinalityError,
    MetricMismatchError,
    SwapSidesError,
    TooLargeForOracleError,
)
from .metrics import MetricKind, PairDivergence, cooccurrences, shannon_entropy, weight_matrix

ORACLE_LIMIT = 8

# A1 under the divergence weight takes the certified path on sets of distinct
# rows that share at least this many locations (``metrics.cooccurrences``),
# the dense pass's own work; below it the dense path is faster.
CERTIFIED_MIN_COOCCURRENCES = 16_000_000

# Assignments the certified path solves before it falls back to the dense matrix.
CERTIFIED_ROUNDS = 8

# Bellman-Ford passes behind the rough duals that steer the certified path.
POTENTIAL_PASSES = 3

# Most entries of the matrix one block of ``_near_tight`` spans.
_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class MatchResult:
    """A partial injective assignment of left indices to right indices."""

    pairs: tuple[tuple[int, int, float], ...]
    algorithm: str

    def __post_init__(self):
        lefts = [i for i, _, _ in self.pairs]
        rights = [j for _, j, _ in self.pairs]
        if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
            raise ValueError("matching reuses a left or right index")

    @cached_property
    def total_weight(self) -> float:
        """The ``math.fsum`` of the pair weights."""
        return math.fsum(w for _, _, w in self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


class BipartiteInstance:
    """Two histogram sets and their dense, distance-oriented weight matrix:
    the one given, or ``weight_matrix`` of the sets, computed on first use."""

    def __init__(self, left: HistogramSet, right: HistogramSet, metric: MetricKind, weights: np.ndarray | None = None):
        self.__dict__.update(left=left, right=right, metric=metric)
        if weights is not None:
            self.__dict__.update(weights=self._checked(weights), certified=False)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a BipartiteInstance is immutable")

    def _checked(self, weights: np.ndarray) -> np.ndarray:
        if weights.shape != (len(self.left), len(self.right)):
            raise ValueError("weight matrix shape does not match the histogram sets")
        if not np.isfinite(weights).all():
            raise ValueError("weights must be finite")
        return weights

    @cached_property
    def weights(self) -> np.ndarray:
        return self._checked(weight_matrix(self.left, self.right, self.metric))

    @cached_property
    def certified(self) -> bool:
        """Whether A1 takes the certified path: under the divergence weight,
        on sets that repeat no row (checked before the count, which a release
        then skips), above the size rule.  An instance given a matrix is
        never certified."""
        return (
            self.metric is MetricKind.PROPOSED
            and all(s.row_classes[0].shape[0] == len(s) for s in (self.left, self.right))
            and cooccurrences(self.left, self.right) >= CERTIFIED_MIN_COOCCURRENCES
        )

    @property
    def n_left(self) -> int:
        return len(self.left)

    @property
    def n_right(self) -> int:
        return len(self.right)


def build_instance(
    left: HistogramSet,
    right: HistogramSet,
    metric: MetricKind,
) -> BipartiteInstance:
    """The instance of two histogram sets, with all pairwise weights computed,
    unless A1 would take the certified path, which computes few of them."""
    if len(left) == 0 or len(right) == 0:
        raise ValueError("histogram sets must be non-empty")
    instance = BipartiteInstance(left, right, metric)
    if not instance.certified:
        instance.weights  # computed here, so that callers time it as the build
    return instance


def _result(weights: np.ndarray, pairs: list[tuple[int, int]], algorithm: str) -> MatchResult:
    triples = tuple((int(i), int(j), float(weights[i, j])) for i, j in sorted(pairs))
    return MatchResult(pairs=triples, algorithm=algorithm)


def _linear_sum_assignment():
    """scipy's ``linear_sum_assignment`` from ``scipy.optimize._lsap`` alone,
    without the ``scipy.optimize`` package, which would also load
    ``scipy.linalg``, ``scipy.special`` and ``scipy.fft``."""
    return _scipy_extension("scipy.optimize._lsap").linear_sum_assignment


def match_min_weight(instance: BipartiteInstance) -> MatchResult:
    """Exact minimum-weight maximal matching: every left node gets assigned.

    On a ``certified`` instance, a matrix of lower bounds
    (``PairDivergence``) takes exact weights pair by pair:
    - first, in each row, every pair whose bound lies below the exact weight
      at the row's smallest bound, and that pair;
    - then, after each assignment that lands on bounds: the pairs it landed
      on; in each row that landed on a bound, every pair whose bound is at
      most the one it landed on; and every pair whose reduced cost under
      rough duals of the assignment is below the largest rise from a bound
      it landed on to its exact weight (``_near_tight``).
    It stops when the assignment lands on exact weights only.  That
    assignment is optimal for the exact matrix W: the mixed matrix is <= W
    entry by entry, so its optimum is at most W's, and this assignment costs
    the same under both.  After ``CERTIFIED_ROUNDS`` assignments it solves W.
    Where assignments tie exactly, it may return another optimum than the
    dense path, with the same total.
    """
    _check_sides(instance)
    if instance.certified:
        result = _certified_min_weight(instance)
        if result is not None:
            return result
    rows, cols = _linear_sum_assignment()(instance.weights)
    return _result(instance.weights, list(zip(rows, cols)), "A1")


def _check_sides(instance: BipartiteInstance) -> None:
    """Raise ``SwapSidesError`` when the left side is the larger, from the sizes alone."""
    if instance.n_left > instance.n_right:
        raise SwapSidesError(f"left side has {instance.n_left} nodes but right side only {instance.n_right}; "
                             "pass the smaller set as the left (unlabeled) side")


def _certified_min_weight(instance: BipartiteInstance) -> MatchResult | None:
    """A1 by the certified loop of ``match_min_weight``; None after
    ``CERTIFIED_ROUNDS`` assignments without a certificate."""
    divergence = PairDivergence(instance.left, instance.right)
    w = divergence.lower_bounds()
    n, m = w.shape
    rows = np.arange(n)
    first = w.argmin(axis=1)
    at_first = divergence.weights(rows, first)
    w[rows, first] = at_first
    i, j = np.nonzero(w < at_first[:, None])
    w[i, j] = divergence.weights(i, j)
    known = _union(rows * m + first, i * m + j)
    for _ in range(CERTIFIED_ROUNDS):
        r, c = _linear_sum_assignment()(w)
        landed = ~np.isin(r * m + c, known, assume_unique=True)
        if not landed.any():
            return _result(w, list(zip(r, c)), "A1")
        i, j = r[landed], c[landed]
        at_landed = divergence.weights(i, j)
        # Row by row, so that no temporary spans more than one row of ``w``.
        below = [k * m + np.flatnonzero(w[k] <= w[k, l]) for k, l in zip(i, j)]
        new = _union(*below, _near_tight(w, c, float((at_landed - w[i, j]).max())))
        w[i, j] = at_landed
        known = _union(known, i * m + j)
        new = np.setdiff1d(new, known, assume_unique=True)
        i, j = np.divmod(new, m)
        w[i, j] = divergence.weights(i, j)
        known = _union(known, new)
    return None


def _union(*parts: np.ndarray) -> np.ndarray:
    """The sorted distinct values of the arrays, as ``np.union1d`` returns
    them, without the ``np.unique`` that loads ``numpy.ma`` on first use."""
    merged = np.sort(np.concatenate(parts))
    keep = np.ones(merged.size, dtype=bool)
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


def _near_tight(w: np.ndarray, cols: np.ndarray, slack: float) -> np.ndarray:
    """Flat indices of the entries of ``w`` whose reduced cost is below
    ``slack`` under rough LP duals of the assignment of row i to ``cols[i]``.

    The column duals v come from ``POTENTIAL_PASSES`` Bellman-Ford passes
    over the cost of moving a row off its column, v_j = min(v_j,
    min_i v[cols[i]] + w[i, j] - w[i, cols[i]]) from v = 0, and the row
    duals u from the assigned entries.  They only steer which pairs get
    exact weights; the certificate never reads them.  Row blocks keep every
    temporary within ``_BLOCK_CELLS`` entries."""
    n, m = w.shape
    assigned = w[np.arange(n), cols]
    v = np.zeros(m)
    step = max(1, _BLOCK_CELLS // m)
    for _ in range(POTENTIAL_PASSES):
        move = v[cols] - assigned
        for start in range(0, n, step):
            np.minimum(v, (w[start : start + step] + move[start : start + step, None]).min(axis=0), out=v)
    u = assigned - v[cols]
    found = []
    for start in range(0, n, step):
        i, j = np.nonzero(w[start : start + step] - u[start : start + step, None] - v < slack)
        found.append((start + i) * m + j)
    return np.concatenate(found)


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

    scipy's solver takes rows in index order, and a row that finds every
    dummy column held must displace a row holding one.  So the padded matrix
    lists first the n - r rows whose smallest weight is largest, in
    descending order, ties by index, then every other row in index order:
    the rows likeliest to end on a dummy take the dummy columns before any
    other row searches.  Relabeling rows leaves the problem and its optimum
    unchanged, so the argument above stands, but where optima tie exactly,
    which one comes back depends on that order.  At r = n no row moves.
    """
    w = instance.weights
    n, m = w.shape
    if not 1 <= r <= min(n, m):
        raise InvalidCardinalityError(f"cardinality {r} outside 1..{min(n, m)}")
    lo, hi = float(w.min()), float(w.max())
    row_min = w.min(axis=1)
    first = np.argsort(-row_min, kind="stable")[: n - r]
    rest = np.ones(n, dtype=bool)
    rest[first] = False
    order = np.concatenate([first, np.flatnonzero(rest)])
    padded = np.empty((n, m + n - r))
    for k, i in enumerate(order):  # row by row: ``w[order]`` would copy all of w
        padded[k, :m] = w[i]
    padded[:, m:] = lo - max(hi, -lo) - 1.0
    rows, cols = _linear_sum_assignment()(padded)
    real = cols < m
    return _result(w, list(zip(order[rows[real]], cols[real])), f"A2({r})")


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
        return MatchResult(pairs=(), algorithm="BruteForce")

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
    _check_sides(instance)
    n, m = instance.weights.shape
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
