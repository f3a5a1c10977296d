"""Pairwise histogram weights and their information-theoretic building blocks.

Four measures are supported: the divergence weight (sum of KL divergences to
the midpoint distribution), l1 distance, cosine distance, and the dot-product
similarity.  Logarithms are natural throughout, so divergence values are in
nats and the divergence weight lies in [0, 2 ln 2].

Pairwise functions accept either :class:`~histmatch.core.Histogram` objects or
plain ``{location: probability}`` mappings.  ``weight_matrix`` evaluates a
whole set-against-set matrix over the two sets' packed rows
(:func:`~histmatch.core.union_rows`) in time proportional to the co-occurring
support instead of N * N' * M: the dot and cosine weights as scipy's sparse
product, run by ``scipy.sparse._sparsetools`` alone, without the
``scipy.sparse`` package; the divergence and l1 weights by a walk over the
columns both sets use, in blocks of left rows.  Each weight is computed once
per pair of distinct rows (:attr:`~histmatch.core.HistogramSet.row_classes`),
so a k-anonymized release costs one row per cluster.

:class:`PairDivergence` serves a solver that needs few exact divergence
weights between distinct rows: a proven lower bound of every pair's weight
from a dense float32 product of the rows' square roots, and the exact weight
of chosen pairs, bit for bit as ``weight_matrix`` computes it.
"""
from __future__ import annotations

import math
import os
import resource
from enum import Enum
from typing import Mapping

import numpy as np

from .core import Histogram, HistogramSet, PackedRows, _scipy_extension, union_rows
from .errors import MatrixTooLargeError

LN2 = math.log(2.0)

# Upper bound of the divergence weight, attained on disjoint supports.
MAX_DIVERGENCE_WEIGHT = 2.0 * LN2

# Most bytes of the weight matrix one block of the divergence and l1 walk spans.
_BLOCK_BYTES = 4 << 20

# The divergence lower bound is shaved by SHAVE_PER_TERM * (k + SHAVE_TERMS)
# for pairs that share at most k locations (``PairDivergence`` derives it).
SHAVE_PER_TERM = 2.0**-23
SHAVE_TERMS = 4

# Cells of the lookup table ``PairDivergence.weights`` fills per block of pairs.
_TABLE_CELLS = 1 << 15

# Cells of the dense square roots ``PairDivergence.lower_bounds`` multiplies per block of right rows.
_ROOTS_CELLS = 1 << 18


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
        return _KINDS[self][1]


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


# Each metric's pair function and its largest distance-oriented weight.
_KINDS = {
    MetricKind.PROPOSED: (weight_proposed, MAX_DIVERGENCE_WEIGHT),
    MetricKind.L1: (weight_l1, 2.0),
    MetricKind.COSINE: (weight_cosine, 1.0),
    MetricKind.DOT: (weight_dot, 1.0),  # stored as 1 - dot
}


def pair_distance(kind: MetricKind, p, q) -> float:
    """Distance-oriented value; similarities are flipped so smaller is closer."""
    value = _KINDS[kind][0](p, q)
    return 1.0 - value if kind.is_similarity else value


def _row_fsums(rows: PackedRows, values: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row's slice of ``values``, one entry per stored
    element of ``rows``; fsum rounds exactly, so the entry order is immaterial."""
    ptr = rows.indptr.tolist()
    return np.array([math.fsum(values[a:b].tolist()) for a, b in zip(ptr, ptr[1:])])


def _check_dense_size(n: int, m: int) -> None:
    """Raise ``MatrixTooLargeError`` before an n x m float64 array is allocated
    whose bytes alone exceed the ``RLIMIT_AS`` soft limit or physical memory."""
    need = 8 * n * m
    limits = resource.getrlimit(resource.RLIMIT_AS)[0], os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    limit = min(x for x in limits if x >= 0)  # RLIM_INFINITY is -1
    if need > limit:
        raise MatrixTooLargeError(f"a {n} x {m} weight matrix needs {need} bytes, more than the {limit} this process may use")


def weight_matrix(left: HistogramSet, right: HistogramSet, metric: MetricKind) -> np.ndarray:
    """Dense distance-oriented weight matrix between two histogram sets.

    Numerically equivalent to calling ``pair_distance`` on every pair; every
    metric ends in one clip to ``[0, metric.max_distance]``.  A matrix larger
    than this process may allocate raises ``MatrixTooLargeError`` first.
    """
    _check_dense_size(len(left), len(right))
    # Every weight adds each pair's terms in column order, the order in which
    # the left set first uses each location.  A1 picks among tied assignments
    # by the last bit, so this order is kept fixed.  A pair's weight depends on
    # its two rows alone, so it is computed once per pair of distinct rows.
    lrows, rrows = union_rows(left, right)
    if metric in (MetricKind.COSINE, MetricKind.DOT):
        # scipy's sparse product defines these weights bit for bit.
        dots = _dot_products(lrows, rrows)
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


def _dot_products(lrows: PackedRows, rrows: PackedRows) -> np.ndarray:
    """scipy's ``(csr_array(lrows) @ csr_array(rrows).T).toarray()``: its own kernels on the same
    arrays, so the same sums in the same order, with ``rrows.columns()`` the transpose scipy
    converts to CSR, and int32 indices, int64 once N N' or an nnz reaches 2**31, as scipy's."""
    sparsetools = _scipy_extension("scipy.sparse._sparsetools")
    rcols = rrows.columns()
    n, m = lrows.shape[0], rrows.shape[0]
    index = np.int64 if max(n * m, lrows.nnz, rrows.nnz, lrows.width) >= 2**31 else np.int32
    a = lrows.indptr.astype(index), lrows.indices.astype(index)
    b = rcols.indptr.astype(index), rcols.indices.astype(index)
    nnz = sparsetools.csr_matmat_maxnnz(n, m, *a, *b)
    indptr, indices, data = np.empty(n + 1, index), np.empty(nnz, index), np.empty(nnz)
    sparsetools.csr_matmat(n, m, *a, lrows.data, *b, rcols.data, indptr, indices, data)
    dots = np.zeros((n, m))
    sparsetools.csr_todense(n, m, indptr, indices, data, dots)
    return dots


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x, elementwise, in one new array."""
    out = np.log(x)
    out *= x
    return out


def _divergence_term(p: np.ndarray, q: np.ndarray, plogp: np.ndarray, qlogq: np.ndarray) -> np.ndarray:
    """The divergence's term where both rows have mass, (s ln s - p ln p) - q ln q with s = p + q, in one new
    array; ``weight_matrix`` and ``PairDivergence.weights`` both take it off, so they agree bit for bit."""
    terms = p + q
    terms *= np.log(terms)
    terms -= plogp
    terms -= qlogq
    return terms


def _distinct(masses: np.ndarray) -> np.ndarray:
    """The distinct masses, ascending."""
    values = np.sort(masses)
    return values[np.concatenate(([True], values[1:] != values[:-1]))]


def _codes(values: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Each mass's index in ``values``, in the narrowest unsigned type."""
    return values.searchsorted(masses).astype(np.min_scalar_type(len(values) - 1))


def _takes_table(cells: int, cooccurrences: int) -> bool:
    """Whether a block of the divergence walk gathers its terms from a table of ``cells`` terms
    instead of forming each of its ``cooccurrences`` terms."""
    return cells < cooccurrences


def _subtract_shared_columns(w: np.ndarray, lrows: PackedRows, rrows: PackedRows, metric: MetricKind) -> None:
    """Take each column's divergence or l1 terms off ``w`` for the pairs of
    rows that both have mass there, column by column in ascending order.

    The walk runs over blocks of left rows whose slice of ``w`` spans at most
    ``_BLOCK_BYTES``, so the slice stays in cache across the columns.  The
    flat offsets are intp, which ``np.subtract.at`` takes without converting
    them.  Each pair occurs once in a column and ``np.subtract.at`` applies a
    column's terms in index order, so every pair's terms come off in column
    order whatever the block size.

    A divergence term depends on the two masses alone, and the masses of
    empirical histograms of t observations are counts over t, so a set holds
    few distinct masses.  A block whose distinct left masses times the right
    set's are fewer than its co-occurrences (sum over columns of
    |L_l| |R_l|) forms one table of ``_divergence_term`` over them, codes
    each entry by its mass's index there, and gathers each column's terms
    from the table; the same inputs through the same elementwise formula
    give the same bits.  Other blocks form each term from p ln p and q ln q.
    """
    n, width = w.shape
    proposed = metric is MetricKind.PROPOSED
    rcols = rrows.columns()
    rptr = rcols.indptr.tolist()
    rvals = _distinct(rcols.data) if proposed else None
    rcodes = qlogq = None
    step = max(1, _BLOCK_BYTES // (w.itemsize * max(width, 1)))
    for start in range(0, n, step):
        lcols = (lrows if step >= n else lrows.take(np.arange(start, min(n, start + step)))).columns()
        lptr = lcols.indptr.tolist()
        offsets = lcols.indices.astype(np.intp)
        offsets *= width
        table = None
        if proposed:
            lvals = _distinct(lcols.data)
            if _takes_table(len(lvals) * len(rvals), int(np.diff(lcols.indptr) @ np.diff(rcols.indptr))):
                rcodes = _codes(rvals, rcols.data) if rcodes is None else rcodes
                lcodes = _codes(lvals, lcols.data)
                table = _divergence_term(lvals[:, None], rvals, _xlogx(lvals)[:, None], _xlogx(rvals))
            else:
                qlogq = _xlogx(rcols.data) if qlogq is None else qlogq
                plogp = _xlogx(lcols.data)
        # A row slice of C-ordered ``w`` is contiguous, so this is a view.
        flat = w[start : start + step].reshape(-1)
        for la, lb, ra, rb in zip(lptr, lptr[1:], rptr, rptr[1:]):
            if la == lb or ra == rb:
                continue
            if table is not None:
                terms = table[lcodes[la:lb]][:, rcodes[ra:rb]]
            elif proposed:
                terms = _divergence_term(lcols.data[la:lb, None], rcols.data[ra:rb], plogp[la:lb, None], qlogq[ra:rb])
            else:
                terms = np.minimum(lcols.data[la:lb, None], rcols.data[ra:rb])
                terms *= 2.0
            np.subtract.at(flat, (offsets[la:lb, None] + rcols.indices[ra:rb]).ravel(), terms.ravel())


def cooccurrences(left: HistogramSet, right: HistogramSet) -> int:
    """Pairs of distinct rows, one from each set, that share a location,
    counted once per shared location: sum over locations l of |L_l| |R_l|.
    This is the work of ``weight_matrix``'s walk over shared columns."""
    lrows, rrows = union_rows(left, right)
    return int(np.bincount(lrows.indices, minlength=lrows.width) @ np.bincount(rrows.indices, minlength=lrows.width))


class PairDivergence:
    """The divergence weight between the distinct rows of two sets, pair by
    pair: a lower bound for every pair (``lower_bounds``) and exact weights
    for chosen pairs (``weights``), each pair indexing distinct rows.

    **The bound.**  With |p| and |q| the row sums and BC = sum_l sqrt(p_l q_l),
    w(p, q) >= ln 2 (|p| + |q| - 2 BC), which is 2 ln 2 H^2 for unit masses
    (H^2 = 1 - BC, the squared Hellinger distance).  Both sides are sums over
    locations, so it suffices at one location.  Both terms are symmetric and
    scale with (p, q), so take p = 1 and q = t^2, t in [0, 1].  The weight's
    term minus the bound's is then

        G(t) = 2 t ln 2 + 2 t^2 ln t - (1 + t^2) ln(1 + t^2),

    with G(0) = G(1) = 0 and G'(t) = 2 (ln 2 - h(t)), h(t) = t ln(1 + t^-2),
    h(0+) = 0, h(1) = ln 2.  With y = t^-2, h'(t) has the sign of
    k(y) = ln(1 + y) - 2y / (1 + y), where k(1) = ln 2 - 1 < 0,
    k'(y) = (y - 1) / (1 + y)^2 >= 0 and k -> inf.  So as t grows from 0 to
    1, h rises and then falls back to ln 2, staying above ln 2 once it
    reaches it.  Hence G first rises and then falls, and G >= 0 on [0, 1].  A
    location used by one side alone (t = 0) gives equality, so the bound is
    exact on disjoint supports.

    **The shave.**  Let u = 2^-53 and v = 2^-24, the float64 and float32
    unit roundoffs, and let a pair share k locations.  Row sums are within
    ``MASS_ATOL`` of 1, so BC <= 1.01, every partial sum below is under 2.01
    and every running weight under 1.39.
    - BC is summed in float32, in any order, from k products of square
      roots rounded to float32: within 1.02v (k + 2.01) of itself for k
      below 2^17, plus k 2^-148 where tiny masses underflow.  A fused
      multiply-add rounds once instead of twice, so it only shrinks the
      per-product error.  A location used by one side alone gives a product
      of exactly 0, which adds no error, so k stays the count of shared
      locations whatever the width of the dense product.  Doubled and scaled
      by ln 2: under 1.42v (k + 2.01) + k 2^-147.
    - The float64 steps of the bound (two sums, the product with ln 2, the
      shave's own subtraction) add under 9u.
    - ``weight_matrix``'s value departs from the exact weight by under
      u (1.39k + 44 ln k + 65): 5.6u for its start (|p| + |q|) ln 2, 1.39u
      per shared column for taking that column's term off, and
      11u (s|ln s| + p|ln p| + q|ln q|) + u (s + t) per term t, with
      s = p + q, if ``np.log`` errs by at most 4 ulp (numpy's float64 log
      measures under 1 ulp); over the shared columns sum s <= 2.01,
      sum t <= 1.39, and the entropy-like sums stay under 4 ln k + 5.1.
    The float64 errors together stay under 2^-29 v (5k + 175), so all of them
    stay under 1.43v k + 3v < 2v (k + 4) = 2^-23 (k + 4), the shave
    (``SHAVE_PER_TERM``, ``SHAVE_TERMS``).  k is taken as the smaller of the
    left row's support and the largest right support.  The shaved bound is
    clipped to [0, 2 ln 2], as weights are, which keeps it below them.
    """

    def __init__(self, left: HistogramSet, right: HistogramSet):
        lrows, rrows = self.rows = union_rows(left, right)
        self.sums = _row_fsums(lrows, lrows.data), _row_fsums(rrows, rrows.data)

    def lower_bounds(self) -> np.ndarray:
        """The shaved bound of every pair of distinct rows, as a new array.

        BC is summed in float32, as dense products of blocks of left and right rows'
        square roots.  A right block spans ``_ROOTS_CELLS`` cells, and a left block as
        many, or up to an eighth of the bytes of ``b``, so large sets densify few times."""
        lrows, rrows = self.rows
        lsum, rsum = self.sums
        n, m = lrows.shape[0], rrows.shape[0]
        _check_dense_size(n, m)
        rstep = max(1, _ROOTS_CELLS // lrows.width)
        lstep = max(rstep, n * m // (4 * lrows.width))
        b = np.empty((n, m))
        bc = np.empty((min(lstep, n), min(rstep, m)), dtype=np.float32)
        for lstart in range(0, n, lstep):
            lroots = _roots(lrows, lstart, lstep)
            for rstart in range(0, m, rstep):
                rroots = _roots(rrows, rstart, rstep)
                out = bc[: len(lroots), : len(rroots)]
                b[lstart : lstart + lstep, rstart : rstart + rstep] = np.matmul(lroots, rroots.T, out=out)
        b *= -2.0
        b += lsum[:, None]
        b += rsum
        b *= LN2
        shared = np.minimum(np.diff(lrows.indptr), np.diff(rrows.indptr).max())
        b -= (SHAVE_PER_TERM * (shared + SHAVE_TERMS))[:, None]
        return np.clip(b, 0.0, MAX_DIVERGENCE_WEIGHT, out=b)

    def weights(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The weights of pairs (i[k], j[k]) of distinct rows, each equal to
        ``weight_matrix``'s entry bit for bit: the same start from the same
        row sums, the same terms taken off in ascending union column, the
        same clip."""
        lrows, rrows = self.rows
        w = self.sums[0][i] + self.sums[1][j]
        w *= LN2
        # A block of pairs writes its right entries' positions into a table
        # of one row per pair and union column, and reads it at its left
        # entries, which ascend in column within each pair, so the shared
        # columns come out ascending too.
        step = max(1, _TABLE_CELLS // lrows.width)
        table = np.zeros((min(step, len(i)), lrows.width), dtype=rrows.indptr.dtype)
        for start in range(0, len(i), step):
            lblock, rblock = lrows.take(i[start : start + step]), rrows.take(j[start : start + step])
            lpair, rpair = lblock.row_of(), rblock.row_of()
            table[rpair, rblock.indices] = np.arange(1, rblock.nnz + 1)
            found = table[lpair, lblock.indices]
            table[rpair, rblock.indices] = 0
            shared = np.flatnonzero(found)
            p, q = lblock.data[shared], rblock.data[found[shared] - 1]
            np.subtract.at(w[start : start + step], lpair[shared], _divergence_term(p, q, _xlogx(p), _xlogx(q)))
        return np.clip(w, 0.0, MAX_DIVERGENCE_WEIGHT, out=w)


def _roots(rows: PackedRows, start: int, step: int) -> np.ndarray:
    """Rows ``start`` to ``start + step - 1`` as dense float32 square roots of their masses."""
    ptr = rows.indptr[start : start + step + 1]
    at = slice(ptr[0], ptr[-1])
    dense = np.zeros((len(ptr) - 1, rows.width), dtype=np.float32)
    dense[np.repeat(np.arange(len(ptr) - 1), np.diff(ptr)), rows.indices[at]] = np.sqrt(rows.data[at])
    return dense
