import os

import numpy as np
import pytest
from hypothesis import settings

from histmatch.core import Histogram, HistogramSet
from histmatch.matcher import BipartiteInstance
from histmatch.metrics import MetricKind

# Under CI (which sets ``CI``) property tests draw the same examples on every
# run, and a failure prints the blob that reproduces it with ``@reproduce_failure``.
settings.register_profile("ci", print_blob=True, derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


def random_histogram(rng, alphabet_size, max_support=4, prefix="L"):
    size = int(rng.integers(1, min(max_support, alphabet_size) + 1))
    locs = rng.choice(alphabet_size, size=size, replace=False)
    if size == 1:
        masses = np.array([1.0])
    else:
        while True:
            masses = rng.dirichlet(np.ones(size))
            if (masses > 0).all():
                break
    return Histogram(
        mass={f"{prefix}{int(l)}": float(p) for l, p in zip(locs, masses)}
    )


def random_histogram_set(rng, n, alphabet_size, max_support=4):
    return HistogramSet(
        entries=tuple(
            (f"o{i:03d}", random_histogram(rng, alphabet_size, max_support)) for i in range(n)
        ),
    )


def instance_from_matrix(matrix, metric=MetricKind.PROPOSED):
    """Instance carrying an arbitrary weight matrix over dummy point-mass sets."""
    w = np.asarray(matrix, dtype=float)
    n, m = w.shape
    left = HistogramSet(
        tuple((f"l{i}", Histogram(mass={f"X{i}": 1.0})) for i in range(n))
    )
    right = HistogramSet(
        tuple((f"r{j}", Histogram(mass={f"Y{j}": 1.0})) for j in range(m))
    )
    return BipartiteInstance(left=left, right=right, metric=metric, weights=w)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
