"""Pairwise histogram weights and their information-theoretic building blocks.

Four measures are supported: the divergence weight (sum of KL divergences to
the midpoint distribution), l1 distance, cosine distance, and the dot-product
similarity.  Logarithms are natural throughout, so divergence values are in
nats and the divergence weight lies in [0, 2 ln 2].

Pairwise functions accept either :class:`~histmatch.core.Histogram` objects or
plain ``{location: probability}`` mappings.  ``weight_matrix`` reads the two
sets' packed rows over the union of their locations
(:func:`~histmatch.core.union_rows`) and evaluates a whole set-against-set
weight matrix in time proportional to the co-occurring support instead of
N * N' * M: the dot and cosine weights as one sparse product of the packed
rows, the divergence and l1 weights by a walk over the columns both sets use.
That walk runs over blocks of left rows and scatters each column's terms
through flat indices.  Each weight is computed once per pair of distinct rows
(:attr:`~histmatch.core.HistogramSet.row_classes`), so a k-anonymized release
costs one row per cluster.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Mapping

import numpy as np
from scipy.sparse import csr_array

from .core import Histogram, HistogramSet, union_rows

LN2 = math.log(2.0)

# Upper bound of the divergence weight, attained on disjoint supports.
MAX_DIVERGENCE_WEIGHT = 2.0 * LN2

# Most bytes of the weight matrix one block of the divergence and l1 walk spans.
_BLOCK_BYTES = 4 << 20


class MetricKind(Enum):
    """Selectable pairwise measures.

    DOT is similarity-oriented (larger is closer); the others are distances.
    """

    PROPOSED = "proposed"
    L1 = "l1"
    COSINE = "cosine"
    DOT = "dot"

    @classmethod
    def from_token(cls, token: str) -> "MetricKind":
        try:
            return cls(str(token).lower())
        except ValueError:
            valid = ", ".join(k.value for k in cls)
            raise ValueError(f"unknown metric {token!r}; expected one of: {valid}") from None

    @property
    def is_similarity(self) -> bool:
        return self is MetricKind.DOT

    @property
    def max_distance(self) -> float:
        """Largest distance-oriented weight the metric can produce."""
        return _MAX_DISTANCE[self]


_MAX_DISTANCE = {
    MetricKind.PROPOSED: MAX_DIVERGENCE_WEIGHT,
    MetricKind.L1: 2.0,
    MetricKind.COSINE: 1.0,
    MetricKind.DOT: 1.0,  # stored as 1 - dot
}


def _mass(h: Histogram | Mapping[str, float]) -> Mapping[str, float]:
    return h.mass if isinstance(h, Histogram) else h


def shannon_entropy(p) -> float:
    """Shannon entropy -sum(p ln p) in nats."""
    return max(0.0, -math.fsum(pl * math.log(pl) for pl in _mass(p).values() if pl > 0.0))


def weight_proposed(p, q) -> float:
    """Divergence weight D(p || m) + D(q || m) with m the midpoint (p + q) / 2.

    Zero exactly when p equals q, 2 ln 2 when the supports are disjoint,
    symmetric in its arguments.
    """
    pm, qm = _mass(p), _mass(q)
    terms = []
    for loc, pl in pm.items():
        if pl <= 0.0:
            continue
        m = 0.5 * (pl + qm.get(loc, 0.0))
        terms.append(pl * math.log(pl / m))
    for loc, ql in qm.items():
        if ql <= 0.0:
            continue
        m = 0.5 * (ql + pm.get(loc, 0.0))
        terms.append(ql * math.log(ql / m))
    return min(max(0.0, math.fsum(terms)), MAX_DIVERGENCE_WEIGHT)


def weight_l1(p, q) -> float:
    """l1 distance over the support union."""
    pm, qm = _mass(p), _mass(q)
    terms = [abs(pl - qm.get(loc, 0.0)) for loc, pl in pm.items()]
    terms.extend(ql for loc, ql in qm.items() if loc not in pm)
    return min(max(0.0, math.fsum(terms)), 2.0)


def _dot(pm: Mapping[str, float], qm: Mapping[str, float]) -> float:
    if len(qm) < len(pm):
        pm, qm = qm, pm
    return math.fsum(pl * qm.get(loc, 0.0) for loc, pl in pm.items())


def _l2_norm(m: Mapping[str, float]) -> float:
    return math.sqrt(math.fsum(v * v for v in m.values()))


def weight_dot(p, q) -> float:
    """Dot-product similarity over the common support (larger means closer)."""
    return min(max(0.0, _dot(_mass(p), _mass(q))), 1.0)


def weight_cosine(p, q) -> float:
    """Cosine distance 1 - <p, q> / (|p| |q|); norms are positive on the simplex."""
    pm, qm = _mass(p), _mass(q)
    if pm == qm:
        return 0.0
    value = 1.0 - _dot(pm, qm) / (_l2_norm(pm) * _l2_norm(qm))
    return min(max(0.0, value), 1.0)


_PAIR_FUNCS = {
    MetricKind.PROPOSED: weight_proposed,
    MetricKind.L1: weight_l1,
    MetricKind.COSINE: weight_cosine,
    MetricKind.DOT: weight_dot,
}


def pair_distance(kind: MetricKind, p, q) -> float:
    """Distance-oriented value; similarities are flipped so smaller is closer."""
    value = _PAIR_FUNCS[kind](p, q)
    return 1.0 - value if kind.is_similarity else value


def _row_fsums(rows: csr_array, values: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row's slice of ``values``, one entry per stored
    element of ``rows``; fsum rounds exactly, so the entry order is immaterial."""
    ptr = rows.indptr.tolist()
    return np.array([math.fsum(values[a:b].tolist()) for a, b in zip(ptr, ptr[1:])])


def weight_matrix(left: HistogramSet, right: HistogramSet, metric: MetricKind) -> np.ndarray:
    """Dense distance-oriented weight matrix between two histogram sets.

    Numerically equivalent to calling ``pair_distance`` on every pair.
    """
    # Every weight adds each pair's terms in column order, the order in which
    # the left set first uses each location.  A1 picks among tied assignments
    # by the last bit, so this order is kept fixed.  A pair's weight depends on
    # its two rows alone, so it is computed once per pair of distinct rows.
    lrows, rrows = union_rows(left, right)
    if metric in (MetricKind.COSINE, MetricKind.DOT):
        dots = (lrows @ rrows.T).toarray()
        if metric is MetricKind.COSINE:
            lnorm = np.sqrt(_row_fsums(lrows, lrows.data * lrows.data))
            rnorm = np.sqrt(_row_fsums(rrows, rrows.data * rrows.data))
            dots /= np.outer(lnorm, rnorm)
        w = 1.0 - dots
    else:
        # Each weight starts from its value on disjoint supports, ln 2 (|p| + |q|)
        # for the divergence and |p| + |q| for l1; each shared column takes its terms off.
        w = np.add.outer(_row_fsums(lrows, lrows.data), _row_fsums(rrows, rrows.data))
        if metric is MetricKind.PROPOSED:
            w *= LN2
        _subtract_shared_columns(w, lrows, rrows, metric)
    np.clip(w, 0.0, metric.max_distance, out=w)
    if w.shape != (len(left), len(right)):
        w = w[np.ix_(left.row_classes[1], right.row_classes[1])]
    return w


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x, elementwise, in one new array."""
    out = np.log(x)
    out *= x
    return out


def _subtract_shared_columns(w: np.ndarray, lrows: csr_array, rrows: csr_array, metric: MetricKind) -> None:
    """Take each column's divergence or l1 terms off ``w`` for the pairs of
    rows that both have mass there, column by column in ascending order.

    The walk runs over blocks of left rows whose slice of ``w`` spans at most
    ``_BLOCK_BYTES``, so the slice stays in cache across the columns.  Each
    pair occurs once in a column and ``np.subtract.at`` applies a column's
    terms in index order, so every pair's terms come off in column order
    whatever the block size.
    """
    n, width = w.shape
    proposed = metric is MetricKind.PROPOSED
    rcols = rrows.tocsc()
    rptr = rcols.indptr.tolist()
    qlogq = _xlogx(rcols.data) if proposed else None
    step = max(1, _BLOCK_BYTES // (w.itemsize * max(width, 1)))
    for start in range(0, n, step):
        lcols = (lrows if step >= n else lrows[start : start + step]).tocsc()
        lptr = lcols.indptr.tolist()
        plogp = _xlogx(lcols.data) if proposed else None
        # A row slice of C-ordered ``w`` is contiguous, so this is a view.
        flat = w[start : start + step].reshape(-1)
        for la, lb, ra, rb in zip(lptr, lptr[1:], rptr, rptr[1:]):
            if la == lb or ra == rb:
                continue
            ps, qs = lcols.data[la:lb, None], rcols.data[None, ra:rb]
            if proposed:
                # (s ln s - p ln p) - q ln q, the order of the reference walk,
                # so that every weight keeps its last bit.
                terms = ps + qs
                terms *= np.log(terms)
                terms -= plogp[la:lb, None]
                terms -= qlogq[None, ra:rb]
            else:
                terms = np.minimum(ps, qs)
                terms *= 2.0
            # intp before the multiply, so that the flat index cannot wrap at
            # 2**31 however large the block is.
            offsets = lcols.indices[la:lb, None].astype(np.intp) * width
            np.subtract.at(flat, (offsets + rcols.indices[ra:rb]).ravel(), terms.ravel())
