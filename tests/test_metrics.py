import math
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histmatch import metrics
from histmatch.anonymize import microaggregate
from histmatch.core import Histogram, HistogramSet, union_rows
from histmatch.errors import MatrixTooLargeError
from histmatch.metrics import (
    LN2,
    MAX_DIVERGENCE_WEIGHT,
    MetricKind,
    pair_distance,
    shannon_entropy,
    weight_cosine,
    weight_dot,
    weight_l1,
    weight_matrix,
    weight_proposed,
)
from histmatch.synth import OverlapSpec, PopulationSpec, generate_pair, sample_population
from tests.conftest import random_histogram, random_histogram_set


def H(mass):
    return Histogram(mass=dict(mass))


POINT_A = H({"A": 1.0})
POINT_B = H({"B": 1.0})
HALF = H({"A": 0.5, "B": 0.5})
SKEW = H({"A": 0.75, "B": 0.25})


# Reference implementation: the inverted-index loops that computed the
# divergence and l1 weight matrices before the column walk, kept verbatim.
# ``weight_matrix`` must reproduce them bit for bit.


def _postings(hset: HistogramSet) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Inverted index: location -> (indices of histograms with mass there, masses)."""
    by_loc: dict[str, tuple[list[int], list[float]]] = {}
    for idx, (_, hist) in enumerate(hset.entries):
        for loc, pl in hist.mass.items():
            if pl <= 0.0:
                continue
            bucket = by_loc.setdefault(loc, ([], []))
            bucket[0].append(idx)
            bucket[1].append(pl)
    return {
        loc: (np.asarray(ix, dtype=np.int64), np.asarray(ps, dtype=np.float64))
        for loc, (ix, ps) in by_loc.items()
    }


def _oracle_weight_matrix(left: HistogramSet, right: HistogramSet, metric: MetricKind) -> np.ndarray:
    lpost = _postings(left)
    rpost = _postings(right)
    lsums = np.array([math.fsum(h.mass.values()) for h in left.histograms])
    rsums = np.array([math.fsum(h.mass.values()) for h in right.histograms])

    if metric is MetricKind.PROPOSED:
        w = LN2 * np.add.outer(lsums, rsums)
        for loc, (li, lp) in lpost.items():
            hit = rpost.get(loc)
            if hit is None:
                continue
            rj, rp = hit
            ps = lp[:, None]
            qs = rp[None, :]
            s = ps + qs
            w[np.ix_(li, rj)] -= s * np.log(s) - ps * np.log(ps) - qs * np.log(qs)
        np.clip(w, 0.0, MAX_DIVERGENCE_WEIGHT, out=w)
        return w

    if metric is MetricKind.L1:
        w = np.add.outer(lsums, rsums)
        for loc, (li, lp) in lpost.items():
            hit = rpost.get(loc)
            if hit is None:
                continue
            rj, rp = hit
            w[np.ix_(li, rj)] -= 2.0 * np.minimum(lp[:, None], rp[None, :])
        np.clip(w, 0.0, 2.0, out=w)
        return w


def assert_matches_oracle(left, right):
    for metric in (MetricKind.PROPOSED, MetricKind.L1):
        w = weight_matrix(left, right, metric)
        assert np.array_equal(w, _oracle_weight_matrix(left, right, metric))
        for i, p in enumerate(left.histograms):
            for j, q in enumerate(right.histograms):
                assert abs(w[i, j] - pair_distance(metric, p, q)) <= 1e-9


def as_set(masses):
    return HistogramSet(tuple((f"o{i}", H(m)) for i, m in enumerate(masses)))


@st.composite
def histogram_masses(draw, locations="ABCDEFGH"):
    """A histogram on a few named locations, sometimes with extra masses
    near 1e-300 on further locations."""
    support = draw(st.lists(st.sampled_from(locations), min_size=1, max_size=6, unique=True))
    counts = draw(st.lists(st.integers(1, 1000), min_size=len(support), max_size=len(support)))
    mass = {loc: c / sum(counts) for loc, c in zip(support, counts)}
    for loc in draw(st.lists(st.sampled_from("xyz"), max_size=2, unique=True)):
        mass[f"{loc}{locations[0]}"] = draw(st.floats(1e-305, 1e-295))
    return mass


def duplicate_cases():
    """Set pairs that repeat histograms: micro-aggregated releases on the
    left, on the right and on both sides, and a set that repeats one
    histogram next to copies of it moved by a few ulps, which stay apart."""
    population = sample_population(PopulationSpec(30, 80, 1.0, 7))
    left, right, _ = generate_pair(population, 100, 100, OverlapSpec.full(30), 7)
    released = microaggregate(left, 5)[1]
    entries = list(right.entries[:6])
    hist = entries[0][1]
    for i in range(1, 4):
        entries.append((f"copy{i}", hist))
        entries.append((f"moved{i}", H({loc: p * (1.0 + i * 2.0**-52) for loc, p in hist.mass.items()})))
    repeated = HistogramSet(tuple(entries))
    return [
        (released, right),
        (right, released),
        (released, microaggregate(right, 4)[1]),
        (repeated, left),
        (left, repeated),
        (repeated, repeated),
    ]


def random_pair(rng, alphabet_size=6, max_support=4):
    return (
        random_histogram(rng, alphabet_size, max_support),
        random_histogram(rng, alphabet_size, max_support),
    )


class TestEntropy:
    def test_point_mass(self):
        assert shannon_entropy(POINT_A) == 0.0

    def test_uniform(self):
        h = H({c: 0.25 for c in "ABCD"})
        assert shannon_entropy(h) == pytest.approx(math.log(4), abs=1e-12)

    def test_weighted(self):
        expected = -0.75 * math.log(0.75) - 0.25 * math.log(0.25)
        assert shannon_entropy(SKEW) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.562335, abs=1e-6)


class TestProposedWeight:
    def test_equal_is_zero(self):
        assert weight_proposed(HALF, HALF) == 0.0

    def test_disjoint_is_two_ln_two(self):
        assert weight_proposed(POINT_A, POINT_B) == pytest.approx(
            MAX_DIVERGENCE_WEIGHT, abs=1e-12
        )

    def test_half_overlap(self):
        # evaluate both divergence terms against the midpoint by hand
        m = {"A": 0.75, "B": 0.25}
        expected = 1.0 * math.log(1.0 / m["A"]) + (
            0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
        )
        assert weight_proposed(POINT_A, HALF) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(math.log(4 / 3) + 0.143841, abs=1e-6)

    def test_entropy_identity(self, rng):
        # w(p, q) == 2 H(m) - H(p) - H(q) for the midpoint m
        for _ in range(200):
            p, q = random_pair(rng)
            mid = {
                loc: 0.5 * (p.mass.get(loc, 0.0) + q.mass.get(loc, 0.0))
                for loc in set(p.mass) | set(q.mass)
            }
            expected = 2.0 * shannon_entropy(mid) - shannon_entropy(p) - shannon_entropy(q)
            assert weight_proposed(p, q) == pytest.approx(expected, abs=1e-9)

    def test_zero_iff_l1_zero(self, rng):
        for _ in range(300):
            p, q = random_pair(rng)
            assert (weight_proposed(p, q) == 0.0) == (weight_l1(p, q) == 0.0)
        assert weight_proposed(SKEW, SKEW) == 0.0 and weight_l1(SKEW, SKEW) == 0.0


class TestHeuristicWeights:
    def test_cosine_cases(self):
        assert weight_cosine(HALF, HALF) == 0.0
        assert weight_cosine(POINT_A, POINT_B) == 1.0
        assert weight_cosine(POINT_A, HALF) == pytest.approx(1 - 0.5 / math.sqrt(0.5), abs=1e-12)

    def test_cosine_scale_invariant_zero(self):
        # proportional histograms are at cosine distance zero
        p = H({"A": 0.5, "B": 0.5})
        q = H({"A": 0.5, "B": 0.5})
        assert weight_cosine(p, q) == 0.0

    def test_dot_cases(self):
        assert weight_dot(POINT_A, POINT_B) == 0.0
        assert weight_dot(POINT_A, POINT_A) == 1.0
        assert weight_dot(POINT_A, HALF) == 0.5

    def test_l1_cases(self):
        assert weight_l1(HALF, HALF) == 0.0
        assert weight_l1(POINT_A, POINT_B) == 2.0
        assert weight_l1(SKEW, HALF) == pytest.approx(0.5, abs=1e-12)

    def test_l1_triangle_inequality(self, rng):
        for _ in range(200):
            p, q = random_pair(rng)
            r = random_histogram(rng, 6)
            assert weight_l1(p, q) <= weight_l1(p, r) + weight_l1(r, q) + 1e-12


class TestMetricLaws:
    def test_symmetry_exact(self, rng):
        funcs = [weight_proposed, weight_l1, weight_cosine, weight_dot]
        for _ in range(500):
            p, q = random_pair(rng)
            for fn in funcs:
                assert fn(p, q) == fn(q, p)

    def test_ranges_over_random_pairs(self, rng):
        for _ in range(10_000):
            p, q = random_pair(rng)
            assert 0.0 <= weight_proposed(p, q) <= MAX_DIVERGENCE_WEIGHT
            assert 0.0 <= weight_l1(p, q) <= 2.0
            assert 0.0 <= weight_cosine(p, q) <= 1.0
            assert 0.0 <= weight_dot(p, q) <= 1.0

    def test_sparse_equals_dense_padding(self, rng):
        # explicit zeros over a larger alphabet change nothing
        alphabet = [f"L{i}" for i in range(10)]
        for _ in range(200):
            p, q = random_pair(rng, alphabet_size=6)
            pd = {loc: p.mass.get(loc, 0.0) for loc in alphabet}
            qd = {loc: q.mass.get(loc, 0.0) for loc in alphabet}
            assert weight_proposed(p, q) == weight_proposed(pd, qd)
            assert weight_l1(p, q) == weight_l1(pd, qd)
            assert weight_cosine(p, q) == weight_cosine(pd, qd)
            assert weight_dot(p, q) == weight_dot(pd, qd)
            assert shannon_entropy(p) == shannon_entropy(pd)


class TestMetricKind:
    def test_tokens(self):
        assert MetricKind.from_token("proposed") is MetricKind.PROPOSED
        assert MetricKind.from_token("L1") is MetricKind.L1
        with pytest.raises(ValueError):
            MetricKind.from_token("hellinger")

    def test_orientation(self):
        assert MetricKind.DOT.is_similarity
        assert not MetricKind.PROPOSED.is_similarity

    def test_max_distances(self):
        assert MetricKind.PROPOSED.max_distance == MAX_DIVERGENCE_WEIGHT
        assert MetricKind.L1.max_distance == 2.0
        assert MetricKind.COSINE.max_distance == 1.0
        assert MetricKind.DOT.max_distance == 1.0

    def test_pair_distance_flips_similarity(self):
        assert pair_distance(MetricKind.DOT, POINT_A, POINT_A) == 0.0
        assert pair_distance(MetricKind.DOT, POINT_A, POINT_B) == 1.0
        assert pair_distance(MetricKind.L1, POINT_A, POINT_B) == 2.0


class TestWeightMatrix:
    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_matches_pairwise(self, rng, metric):
        for _ in range(25):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            left = random_histogram_set(rng, n, 6)
            right = random_histogram_set(rng, m, 6)
            w = weight_matrix(left, right, metric)
            assert w.shape == (n, m)
            for i, p in enumerate(left.histograms):
                for j, q in enumerate(right.histograms):
                    assert w[i, j] == pytest.approx(pair_distance(metric, p, q), abs=1e-9)

    def test_large_sparse_matches_pairwise(self, rng):
        left = random_histogram_set(rng, 40, 50, max_support=3)
        right = random_histogram_set(rng, 35, 50, max_support=3)
        w = weight_matrix(left, right, MetricKind.PROPOSED)
        probe = np.array(
            [
                [pair_distance(MetricKind.PROPOSED, p, q) for q in right.histograms]
                for p in left.histograms
            ]
        )
        assert np.abs(w - probe).max() < 1e-9

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_dense_centroid_release_matches_pairwise(self, metric):
        population = sample_population(PopulationSpec(30, 80, 1.0, 5))
        left, right, _ = generate_pair(population, 100, 100, OverlapSpec.full(30), 5)
        _, released = microaggregate(left, 5)
        w = weight_matrix(released, right, metric)
        probe = np.array(
            [[pair_distance(metric, p, q) for q in right.histograms] for p in released.histograms]
        )
        assert np.abs(w - probe).max() < 1e-9

    def test_dot_and_cosine_sum_in_location_order(self, rng):
        # The sparse product adds each pair's terms in the order the left set
        # first uses its locations, as the inverted-index loop it replaced
        # did; A1's choice among tied assignments depends on the last bit.
        population = sample_population(PopulationSpec(30, 80, 1.0, 6))
        left, right, _ = generate_pair(population, 100, 100, OverlapSpec.full(30), 6)
        cases = [(microaggregate(left, 5)[1], right)]
        cases += [(random_histogram_set(rng, 9, 12, max_support=8), random_histogram_set(rng, 7, 12, max_support=8))]
        cases += duplicate_cases()
        for lset, rset in cases:
            dots = np.zeros((len(lset), len(rset)))
            index = {o: j for j, o in enumerate(rset.owners)}
            for loc in dict.fromkeys(loc for h in lset.histograms for loc in h.mass):
                for i, p in enumerate(lset.histograms):
                    for o, q in rset.entries:
                        if loc in p.mass and loc in q.mass:
                            dots[i, index[o]] += p.mass[loc] * q.mass[loc]
            norms = np.outer(
                [math.sqrt(math.fsum(v * v for v in h.mass.values())) for h in lset.histograms],
                [math.sqrt(math.fsum(v * v for v in h.mass.values())) for h in rset.histograms],
            )
            assert np.array_equal(weight_matrix(lset, rset, MetricKind.DOT), np.clip(1.0 - dots, 0.0, 1.0))
            assert np.array_equal(weight_matrix(lset, rset, MetricKind.COSINE), np.clip(1.0 - dots / norms, 0.0, 1.0))


def _sparse_product_weight_matrix(left: HistogramSet, right: HistogramSet, metric: MetricKind) -> np.ndarray:
    """The dot and cosine weights as a ``scipy.sparse.csr_array`` product of
    the two sets' ``union_rows``, the formula ``weight_matrix`` used before it
    called scipy's compiled kernels itself."""
    from scipy.sparse import csr_array

    lrows, rrows = union_rows(left, right)
    dots = (csr_array((lrows.data, lrows.indices, lrows.indptr), shape=lrows.shape)
            @ csr_array((rrows.data, rrows.indices, rrows.indptr), shape=rrows.shape).T).toarray()
    if metric is MetricKind.COSINE:
        lnorm = np.sqrt(metrics._row_fsums(lrows, lrows.data * lrows.data))
        rnorm = np.sqrt(metrics._row_fsums(rrows, rrows.data * rrows.data))
        dots /= np.outer(lnorm, rnorm)
    w = np.clip(1.0 - dots, 0.0, metric.max_distance)
    return w[np.ix_(left.row_classes[1], right.row_classes[1])]


class TestDotProductsMatchScipySparse:
    """``weight_matrix`` runs scipy's sparse product kernels itself; every
    cosine and dot weight must keep the bytes of the ``csr_array`` product."""

    @staticmethod
    def assert_same_bytes(left, right):
        for metric in (MetricKind.COSINE, MetricKind.DOT):
            w, want = weight_matrix(left, right, metric), _sparse_product_weight_matrix(left, right, metric)
            assert w.shape == want.shape == (len(left), len(right))
            assert w.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, m", [(40, 40), (25, 40), (40, 25)])
    def test_generated_pairs(self, n, m):
        for seed in range(3):
            population = sample_population(PopulationSpec(60, 200, 0.5 + seed, seed))
            left, right, _ = generate_pair(population, 60, 80, OverlapSpec(n, m, min(n, m) // 2), seed)
            self.assert_same_bytes(left, right)

    def test_k5_releases(self):
        for seed in range(3):
            population = sample_population(PopulationSpec(40, 300, 1.0, seed))
            left, right, _ = generate_pair(population, 100, 100, OverlapSpec.full(40), seed)
            released = microaggregate(left, 5)[1]
            assert released.row_classes[0].shape[0] < len(released)
            self.assert_same_bytes(released, right)
            self.assert_same_bytes(right, released)

    def test_right_columns_out_of_union_order(self):
        population = sample_population(PopulationSpec(30, 400, 0.3, 9))
        left, right, _ = generate_pair(population, 15, 300, OverlapSpec.full(30), 9)
        rrows = union_rows(left, right)[1]
        falls = np.diff(rrows.indices.astype(np.int64)) < 0
        assert np.any(falls & (rrows.row_of()[1:] == rrows.row_of()[:-1]))
        self.assert_same_bytes(left, right)

    def test_one_location_alphabet(self):
        point = as_set([{"A": 1.0}] * 3)
        self.assert_same_bytes(point, as_set([{"A": 1.0}] * 2))
        self.assert_same_bytes(point, as_set([{"A": 1.0}, {"B": 1.0}, {"A": 0.5, "B": 0.5}]))

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_tie_heavy_small_strings(self, t):
        population = sample_population(PopulationSpec(50, 4, 1.0, t))
        left, right, _ = generate_pair(population, t, t, OverlapSpec(30, 45, 25), t)
        self.assert_same_bytes(left, right)
        self.assert_same_bytes(right, left)


class TestSparseKernelLoading:
    """``weight_matrix`` loads ``scipy.sparse._sparsetools`` alone; a process
    that imported ``scipy.sparse`` first, or one without a compiled module,
    must compute the same bytes."""

    SCRIPT = textwrap.dedent("""
        import hashlib, importlib.machinery, sys
        if sys.argv[1] == "first":
            import scipy.sparse
            loaded = sys.modules["scipy.sparse._sparsetools"]
        if sys.argv[1] == "fallback":
            find_spec = importlib.machinery.PathFinder.find_spec

            def without_compiled_kernels(name, *args):
                if name == "scipy.sparse._sparsetools" and "scipy.sparse" not in sys.modules:
                    return None
                return find_spec(name, *args)

            importlib.machinery.PathFinder.find_spec = without_compiled_kernels
        from histmatch.anonymize import microaggregate
        from histmatch.metrics import MetricKind, weight_matrix
        from histmatch.synth import OverlapSpec, PopulationSpec, generate_pair, sample_population
        population = sample_population(PopulationSpec(40, 200, 0.5, 3))
        left, right, _ = generate_pair(population, 60, 60, OverlapSpec(30, 40, 30), 3)
        for lset in (left, microaggregate(left, 5)[1]):
            for metric in (MetricKind.COSINE, MetricKind.DOT):
                print(hashlib.sha256(weight_matrix(lset, right, metric).tobytes()).hexdigest())
        print("scipy.sparse" in sys.modules)
        if sys.argv[1] == "first":
            assert sys.modules["scipy.sparse._sparsetools"] is loaded, "the kernels' module was loaded again"
    """)

    def _hashes(self, mode):
        out = subprocess.run([sys.executable, "-c", self.SCRIPT, mode], capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        return out.stdout.splitlines()

    def test_scipy_sparse_imported_first(self):
        default, first = self._hashes("default"), self._hashes("first")
        assert default[-1] == "False" and first[-1] == "True"
        assert len(default) == 5 and default[:4] == first[:4]

    def test_falls_back_to_the_package_without_a_compiled_module(self):
        default, fallback = self._hashes("default"), self._hashes("fallback")
        assert fallback[-1] == "True"
        assert default[:4] == fallback[:4]

    def test_scipy_sparse_imported_later_uses_the_loaded_module(self):
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from histmatch.core import union_rows
            from histmatch.metrics import MetricKind, weight_matrix
            from histmatch.synth import OverlapSpec, PopulationSpec, generate_pair, sample_population
            population = sample_population(PopulationSpec(40, 200, 0.5, 4))
            left, right, _ = generate_pair(population, 60, 60, OverlapSpec(30, 40, 30), 4)
            w = weight_matrix(left, right, MetricKind.DOT)
            loaded = sys.modules["scipy.sparse._sparsetools"]
            assert "scipy.sparse" not in sys.modules, "weight_matrix loaded scipy.sparse"
            from scipy.sparse import _compressed, csr_array
            assert _compressed._sparsetools is loaded
            lrows, rrows = union_rows(left, right)
            dots = (csr_array((lrows.data, lrows.indices, lrows.indptr), shape=lrows.shape)
                    @ csr_array((rrows.data, rrows.indices, rrows.indptr), shape=rrows.shape).T).toarray()
            assert np.clip(1.0 - dots, 0.0, 1.0).tobytes() == w.tobytes()
        """)
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr


class TestWeightMatrixMatchesOracle:
    def test_seeded_random_sets(self, rng):
        for _ in range(60):
            alphabet_size = int(rng.integers(1, 40))
            left = random_histogram_set(rng, int(rng.integers(1, 12)), alphabet_size, max_support=10)
            right = random_histogram_set(rng, int(rng.integers(1, 12)), alphabet_size, 10)
            assert_matches_oracle(left, right)

    def test_generated_pair(self):
        population = sample_population(PopulationSpec(40, 300, 1.0, 8))
        left, right, _ = generate_pair(population, 200, 200, OverlapSpec.full(40), 8)
        assert_matches_oracle(left, right)
        assert_matches_oracle(microaggregate(left, 4)[1], right)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(histogram_masses(), min_size=1, max_size=6),
        st.sampled_from(["independent", "near-identical", "disjoint"]),
        st.data(),
    )
    def test_property(self, left_masses, relation, data):
        if relation == "independent":
            right_masses = data.draw(st.lists(histogram_masses(), min_size=1, max_size=6))
        elif relation == "near-identical":
            # Each mass moved by a few ulps: the divergence weight's
            # 2 ln 2 - sum form cancels almost completely here.
            right_masses = [
                {loc: p * (1.0 + data.draw(st.integers(-3, 3)) * 2.0**-52) for loc, p in m.items()}
                for m in left_masses
            ]
        else:
            right_masses = data.draw(st.lists(histogram_masses("PQRSTUVW"), min_size=1, max_size=6))
        assert_matches_oracle(as_set(left_masses), as_set(right_masses))

    def test_repeated_histograms(self):
        for left, right in duplicate_cases():
            assert_matches_oracle(left, right)

    @pytest.mark.parametrize("block_rows", [1, 3])
    def test_row_blocks(self, monkeypatch, block_rows):
        population = sample_population(PopulationSpec(40, 300, 1.0, 8))
        left, right, _ = generate_pair(population, 200, 200, OverlapSpec.full(40), 8)
        # 38 rows: the last block of three is ragged.
        cases = [(HistogramSet(left.entries[:38]), right), *duplicate_cases()]
        for lset, rset in cases:
            width = rset.row_classes[0].shape[0]
            monkeypatch.setattr(metrics, "_BLOCK_BYTES", block_rows * 8 * width)
            assert_matches_oracle(lset, rset)


def _term_path_cases():
    """Set pairs for both divergence-term paths: count grids, a k=5 release,
    random masses off any grid, a one-location alphabet (a 1 x 1 table), and
    N < N' and N > N'."""
    population = sample_population(PopulationSpec(45, 300, 1.0, 8))
    left, right, _ = generate_pair(population, 200, 200, OverlapSpec(30, 40, 25), 8)
    rng = np.random.default_rng(5)

    def one(n, prefix):
        return HistogramSet(tuple((f"{prefix}{i}", H({"A": 1.0})) for i in range(n)))

    return [
        (left, right),
        (right, left),
        (microaggregate(right, 5)[1], left),
        (random_histogram_set(rng, 9, 30, 12), random_histogram_set(rng, 14, 30, 12)),
        (random_histogram_set(rng, 14, 30, 12), random_histogram_set(rng, 5, 30, 12)),
        (one(3, "l"), one(4, "r")),
    ]


class TestDivergenceTermPaths:
    """The table of terms over distinct masses and the per-co-occurrence
    terms give the same bits, each equal to the oracle's."""

    def _both_paths(self, monkeypatch, left, right):
        out = []
        for table in (True, False):
            monkeypatch.setattr(metrics, "_takes_table", lambda cells, cooccurrences: table)
            out.append(weight_matrix(left, right, MetricKind.PROPOSED))
        monkeypatch.undo()
        return out

    @pytest.mark.parametrize("block_rows", [None, 1, 3])
    def test_paths_agree_with_the_oracle(self, monkeypatch, block_rows):
        for left, right in _term_path_cases():
            oracle = _oracle_weight_matrix(left, right, MetricKind.PROPOSED).tobytes()
            if block_rows is not None:
                monkeypatch.setattr(metrics, "_BLOCK_BYTES", block_rows * 8 * right.row_classes[0].shape[0])
            with_table, per_term = self._both_paths(monkeypatch, left, right)
            assert with_table.tobytes() == per_term.tobytes() == oracle

    def test_selection(self, monkeypatch):
        """Count grids take the table; random masses, almost all distinct, do not."""
        chosen = []
        takes_table = metrics._takes_table

        def spy(cells, cooccurrences):
            chosen.append(takes_table(cells, cooccurrences))
            return chosen[-1]

        monkeypatch.setattr(metrics, "_takes_table", spy)
        cases = _term_path_cases()
        for (left, right), want in ((cases[0], True), (cases[2], True), (cases[3], False)):
            chosen.clear()
            weight_matrix(left, right, MetricKind.PROPOSED)
            assert chosen == [want]

    def test_peak_memory(self):
        """On a 400 x 400 count-grid instance the walk's tracemalloc peak stays at
        or below 4 302 922 bytes, the peak when it kept p ln p and q ln q per entry."""
        population = sample_population(PopulationSpec(400, 1000, 1.0, 0))
        left, right, _ = generate_pair(population, 200, 200, OverlapSpec.full(400), 0)
        weight_matrix(left, right, MetricKind.PROPOSED)  # one-time allocations, outside the trace
        tracemalloc.start()
        try:
            w = weight_matrix(left, right, MetricKind.PROPOSED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w.nbytes == 1_280_000
        assert peak <= 4_302_922


class TestDenseSizeCheck:
    @pytest.mark.parametrize("rlimit", [1000, 1279])
    def test_weights_and_bounds_refused_before_allocation(self, monkeypatch, rlimit):
        population = sample_population(PopulationSpec(20, 50, 1.0, 3))
        left, right, _ = generate_pair(population, 50, 50, OverlapSpec(10, 16, 8), 3)
        monkeypatch.setattr(metrics.resource, "getrlimit", lambda which: (rlimit, -1))
        message = f"a 10 x 16 weight matrix needs 1280 bytes, more than the {rlimit} this process may use"
        with pytest.raises(MatrixTooLargeError, match=message):
            weight_matrix(left, right, MetricKind.L1)
        with pytest.raises(MatrixTooLargeError, match=message):
            metrics.PairDivergence(left, right).lower_bounds()
        monkeypatch.setattr(metrics.resource, "getrlimit", lambda which: (1280, -1))
        assert weight_matrix(left, right, MetricKind.L1).shape == (10, 16)
