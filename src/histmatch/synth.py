"""Synthetic populations for reproducible matching experiments.

Each user owns a distinct habit distribution drawn from a symmetric Dirichlet
prior (small concentration gives sparse, individually distinctive habits).
Observation strings are sampled i.i.d. from those distributions and hashed
into histograms, with per-user derived seeds so generation order never
affects the output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GroundTruth, Histogram, HistogramSet, build_histogram
from .errors import InvalidOverlapError, InvalidPopulationError

# Recorded in emitted metadata so results can be reproduced statistically
# by other implementations of the same algorithm.
GENERATOR_NAME = "numpy-pcg64"

_SALT_POPULATION = 1
_SALT_STRUCTURE = 2
_SALT_LEFT = 3
_SALT_RIGHT = 4

_U32 = 0xFFFF_FFFF
_U64 = 0xFFFF_FFFF_FFFF_FFFF

# How far a distribution's sum may lie from 1: ``Generator.choice``'s tolerance.
_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def seeded_generator(*entropy: int) -> np.random.Generator:
    """Deterministic PCG64 generator keyed by a tuple of integers.

    Each integer, masked to 64 bits, enters the ``SeedSequence`` as one
    ``uint32`` array of its 32-bit words, low word first, one word below
    2**32 (0 included): the words ``SeedSequence`` itself makes of the tuple
    of masked ints, without its per-int conversion.
    """
    words = []
    for e in entropy:
        e = int(e) & _U64
        words.append(e & _U32)
        if e > _U32:
            words.append(e >> 32)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, dtype=np.uint32))))


@dataclass(frozen=True)
class PopulationSpec:
    """Parameters of a synthetic user population."""

    n_users: int
    alphabet_size: int
    concentration: float = 0.1
    seed: int = 0

    def __post_init__(self):
        # A NaN or infinite concentration draws all-NaN rows, each an exact repeat of the first.
        if self.n_users <= 0 or self.alphabet_size <= 0 or not 0 < self.concentration < math.inf:
            raise ValueError("population parameters must be positive and finite")
        if self.n_users > 1 and self.alphabet_size < 2:
            # A Dirichlet over one location always draws [1.0], so no second
            # distinct user can ever be drawn.
            raise ValueError("more than one user needs an alphabet of at least two locations")


@dataclass(frozen=True)
class OverlapSpec:
    """How many users appear on each side and in both (r)."""

    n_left: int
    n_right: int
    r: int

    def __post_init__(self):
        if min(self.n_left, self.n_right, self.r) < 0:
            raise InvalidOverlapError("overlap sizes must be nonnegative")
        if self.r > min(self.n_left, self.n_right):
            raise InvalidOverlapError(
                f"overlap r={self.r} exceeds a side ({self.n_left} x {self.n_right})"
            )

    @classmethod
    def full(cls, n: int) -> "OverlapSpec":
        return cls(n_left=n, n_right=n, r=n)

    @property
    def population_needed(self) -> int:
        return self.n_left + self.n_right - self.r


def location_ids(alphabet_size: int) -> list[str]:
    width = max(1, len(str(alphabet_size - 1)))
    return [f"L{i:0{width}d}" for i in range(alphabet_size)]


def sample_population(spec: PopulationSpec) -> list[np.ndarray]:
    """Draw pairwise-distinct habit distributions on the probability simplex.

    A batch holding a row whose sum lies further than ``_SUM_ATOL`` from 1
    (at a concentration near 1e308 the gamma draws overflow and rows sum to
    0) raises ``InvalidPopulationError`` naming the concentration.  Exact
    repeats are redrawn.  At an extreme concentration every draw is the
    uniform vector, or one of the M one-hot vectors, so N distinct rows may
    not exist: ``InvalidPopulationError`` is raised once max(2^18, 64 M)
    draws in a row have repeated a row.  While fewer than M one-hot vectors
    are drawn, each draw is new with probability at least 1/M, so a run of
    64 M repeats has probability below e^-64; a stream that finds a new row
    once in 20 000 draws runs 2^18 repeats with probability about e^-13.
    """
    rng = seeded_generator(spec.seed, _SALT_POPULATION)
    alpha = np.full(spec.alphabet_size, spec.concentration)
    patience = max(2**18, 64 * spec.alphabet_size)
    out: list[np.ndarray] = []
    # The rows by the hash of their bytes, compared byte for byte only within
    # a bucket; no row's bytes are kept.
    buckets: dict[int, list[np.ndarray]] = {}
    fruitless = 0
    # A batch of rows consumes the stream as that many single draws do, so a
    # pass that draws what is still missing yields the same rows.
    while len(out) < spec.n_users:
        batch = rng.dirichlet(alpha, size=spec.n_users - len(out))
        if not np.all(np.abs(batch.sum(axis=1) - 1.0) <= _SUM_ATOL):
            raise InvalidPopulationError(
                f"Dirichlet rows drawn at concentration {spec.concentration!r} over {spec.alphabet_size} locations "
                "do not sum to 1"
            )
        for p in batch:
            key = p.tobytes()
            bucket = buckets.setdefault(hash(key), [])
            if any(key == q.tobytes() for q in bucket):  # exact collision: redraw
                fruitless += 1
                continue
            fruitless = 0
            bucket.append(p)
            out.append(p)
        if fruitless >= patience:
            raise InvalidPopulationError(
                f"the last {fruitless} draws repeated earlier rows: only {len(out)} of {spec.n_users} distinct users "
                f"drawn at concentration {spec.concentration!r} over {spec.alphabet_size} locations"
            )
    return out


def _checked_population(distributions: list[np.ndarray]) -> list[np.ndarray]:
    """The distributions as float64 vectors, checked as ``Generator.choice``
    checks its ``p``: one length, no negative or NaN entry, and a sum within
    the square root of the float64 epsilon of 1, which no infinite entry has."""
    if not distributions:
        raise InvalidPopulationError("the population is empty")
    rows = [np.asarray(p, dtype=np.float64) for p in distributions]
    shape = (rows[0].size,)
    for user, p in enumerate(rows):
        if p.shape != shape:
            raise InvalidPopulationError(f"user {user}'s distribution has shape {p.shape}, not {shape}")
        if not p.min() >= 0.0:
            raise InvalidPopulationError(f"user {user}'s distribution has a negative or NaN entry")
        if not abs((total := float(p.sum())) - 1.0) <= _SUM_ATOL:
            raise InvalidPopulationError(f"user {user}'s distribution sums to {total!r}, not 1")
    return rows


def _draw(p: np.ndarray, length: int, gen: np.random.Generator) -> np.ndarray:
    """The indices ``gen.choice(len(p), size=length, p=p)`` returns, drawn by
    the same inverse CDF without its per-call checks.  The keys are searched
    in ascending order, which mispredicts fewer branches, and the indices put
    back in draw order."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    keys = gen.random(length)
    order = keys.argsort()
    idx = np.empty_like(order)
    idx[order] = cdf.searchsorted(keys[order], side="right")
    return idx


def generate_pair(
    distributions: list[np.ndarray],
    t1: int,
    t2: int,
    overlap: OverlapSpec,
    seed: int = 0,
) -> tuple[HistogramSet, HistogramSet, GroundTruth]:
    """Sample an unlabeled and a labeled histogram set over one population.

    Exactly ``overlap.r`` users appear in both sets; every present user
    contributes an independent i.i.d. string per side (length t1 left, t2
    right).  The unlabeled set comes out in shuffled order under opaque owner
    ids, and the returned truth maps those ids to the labeled owners for the
    shared users only.  A population that ``Generator.choice`` would refuse
    raises ``InvalidPopulationError``.
    """
    if t1 <= 0 or t2 <= 0:
        raise ValueError("string lengths must be positive")
    distributions = _checked_population(distributions)
    population = len(distributions)
    if overlap.population_needed > population:
        raise InvalidOverlapError(
            f"need {overlap.population_needed} users, population has {population}"
        )
    ids = np.array(location_ids(len(distributions[0])), dtype=object)

    def draw(user: int, length: int, side_salt: int) -> Histogram:
        idx = _draw(distributions[user], length, seeded_generator(seed, side_salt, user))
        return build_histogram(ids[idx].tolist())

    # One permutation of the population: the left side takes its first n_left
    # users, the right side its first r (the shared users) and the n_right - r
    # after the left's.
    rng = seeded_generator(seed, _SALT_STRUCTURE)
    chosen = rng.permutation(population).tolist()
    right_users = chosen[: overlap.r] + chosen[overlap.n_left : overlap.population_needed]
    right_entries = tuple((f"u{u:05d}", draw(u, t2, _SALT_RIGHT)) for u in right_users)

    left_entries = []
    truth: dict[str, str] = {}
    for anon_pos, src_pos in enumerate(rng.permutation(overlap.n_left).tolist()):
        user = chosen[src_pos]
        anon = f"x{anon_pos:05d}"
        left_entries.append((anon, draw(user, t1, _SALT_LEFT)))
        if src_pos < overlap.r:
            truth[anon] = f"u{user:05d}"

    return (
        HistogramSet(entries=tuple(left_entries)),
        HistogramSet(entries=right_entries),
        GroundTruth(mapping=truth),
    )
