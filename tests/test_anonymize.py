import itertools
import math
import pickle
import tracemalloc
from collections import Counter, defaultdict
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histmatch.anonymize import (
    ClusterPartition,
    _l1_near,
    _l1_to,
    _mean_row,
    information_loss,
    microaggregate,
    verify_k_anonymity,
)
from histmatch.core import Histogram, HistogramSet, build_histogram
from histmatch.errors import HistmatchError, InvalidKError, PartitionCoverageError
from histmatch.metrics import MetricKind, weight_l1, weight_matrix
from histmatch.synth import OverlapSpec, PopulationSpec, generate_pair, sample_population
from tests.conftest import random_histogram_set


def H(mass):
    return Histogram(mass=dict(mass))


def hist_set(masses):
    return HistogramSet(
        tuple((f"u{i}", H(m)) for i, m in enumerate(masses))
    )


# Reference implementation: the dict-walking micro-aggregation and loss that
# the packed-row code replaced, kept verbatim.  The new code must reproduce
# its partitions, released centroids and loss bit for bit.  ``_oracle_centroid``
# is the dict-summing centroid that the per-cluster ``np.bincount`` replaced.


def _oracle_centroid(histograms: Sequence[Histogram]) -> Histogram:
    if len(histograms) == 1:
        return histograms[0]
    total: dict[str, float] = defaultdict(float)
    for h in histograms:
        for loc, p in h.mass.items():
            total[loc] += p
    inv = 1.0 / len(histograms)
    return Histogram(mass={loc: v * inv for loc, v in total.items()})


def _oracle_microaggregate(histograms: HistogramSet, k: int) -> tuple[ClusterPartition, HistogramSet]:
    n = len(histograms)
    if not 1 <= k <= n:
        raise InvalidKError(f"k={k} outside 1..{n}")
    hists = histograms.histograms
    remaining = list(range(n))
    clusters: list[tuple[int, ...]] = []
    while len(remaining) >= 2 * k:
        center = _oracle_centroid([hists[i] for i in remaining])
        far_pos = max(range(len(remaining)), key=lambda pos: weight_l1(hists[remaining[pos]], center))
        anchor = remaining.pop(far_pos)
        by_distance = sorted(range(len(remaining)), key=lambda pos: weight_l1(hists[remaining[pos]], hists[anchor]))
        chosen = sorted(by_distance[: k - 1], reverse=True)
        members = [anchor] + [remaining.pop(pos) for pos in chosen]
        clusters.append(tuple(sorted(members)))
    if remaining:
        clusters.append(tuple(remaining))

    centroids = tuple(_oracle_centroid([hists[i] for i in cluster]) for cluster in clusters)
    centroid_by_index: dict[int, Histogram] = {}
    for cluster, centroid in zip(clusters, centroids):
        for i in cluster:
            centroid_by_index[i] = centroid
    released = HistogramSet(
        entries=tuple((owner, centroid_by_index[i]) for i, (owner, _) in enumerate(histograms.entries)),
    )
    owners = histograms.owners
    partition = ClusterPartition(
        clusters=tuple(tuple(owners[i] for i in cluster) for cluster in clusters),
        centroids=centroids,
    )
    return partition, released


def _oracle_information_loss(partition: ClusterPartition, histograms: HistogramSet) -> float:
    if partition.owners() != set(histograms.owners):
        raise ValueError("partition does not cover the histogram set's owners")
    numerator = math.fsum(
        weight_l1(histograms.histogram(owner), centroid)
        for cluster, centroid in zip(partition.clusters, partition.centroids)
        for owner in cluster
    )
    grand = _oracle_centroid(list(histograms.histograms))
    denominator = math.fsum(weight_l1(h, grand) for h in histograms.histograms)
    if denominator == 0.0:
        return 0.0
    return numerator / denominator


def _oracle_verify_k_anonymity(released: HistogramSet, k: int) -> bool:
    counts = Counter(tuple(sorted(h.mass.items())) for h in released.histograms)
    return all(c >= k for c in counts.values())


def assert_matches_oracle(hset, k):
    partition, released = microaggregate(hset, k)
    expected_partition, expected_released = _oracle_microaggregate(hset, k)
    assert partition == expected_partition
    assert released.entries == expected_released.entries
    for (_, got), (_, want) in zip(released.entries, expected_released.entries):
        assert list(got.mass.items()) == list(want.mass.items())
    assert information_loss(partition, hset) == _oracle_information_loss(expected_partition, hset)


def synthetic_set(n, alphabet_size, t, seed, concentration=1.0):
    population = sample_population(PopulationSpec(n, alphabet_size, concentration, seed))
    left, _, _ = generate_pair(population, t, t, OverlapSpec.full(n), seed)
    return left


class TestMatchesOracle:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_benchmark_shape(self, seed):
        # Masses are multiples of 1/200, so exact l1 ties are common here.
        assert_matches_oracle(synthetic_set(200, 1000, 200, seed), 5)

    @pytest.mark.parametrize("t, alphabet_size", [(5, 20), (5, 50), (10, 20), (10, 50)])
    def test_tie_heavy(self, t, alphabet_size):
        for seed in range(3):
            hset = synthetic_set(60, alphabet_size, t, seed)
            for k in (2, 3, 4):
                assert_matches_oracle(hset, k)

    def test_duplicated_histograms(self, rng):
        distinct = random_histogram_set(rng, 4, 10)
        hset = HistogramSet(
            tuple((f"u{i}", distinct.histograms[i % 4]) for i in range(14))
        )
        for k in (1, 2, 3, 5, 7, 14):
            assert_matches_oracle(hset, k)

    def test_extreme_k(self, rng):
        hset = synthetic_set(30, 100, 50, 4)
        for k in (1, 2, len(hset)):
            assert_matches_oracle(hset, k)
        for k in (3, 5):
            for n in range(k, 2 * k):
                assert_matches_oracle(random_histogram_set(rng, n, 8), k)

    def test_disjoint_supports(self):
        # Every record is equally far from the centroid and from the anchor,
        # so each step settles a tie among all remaining records.
        hset = hist_set([{f"L{8 * i + j}": 0.125 for j in range(8)} for i in range(40)])
        assert_matches_oracle(hset, 2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=6), min_size=1, max_size=12),
        st.data(),
    )
    def test_property_small_count_sets(self, sequences, data):
        hset = HistogramSet(
            tuple((f"u{i}", build_histogram(seq)) for i, seq in enumerate(sequences))
        )
        assert_matches_oracle(hset, data.draw(st.integers(1, len(hset))))


@pytest.mark.parametrize("seed", range(6))
def test_centroids_match_oracle_centroid(seed):
    """Each released centroid equals the dict-summing centroid of its
    members, masses and key order alike, and a singleton is its member."""
    hset = synthetic_set(200, 1000, 200, seed)
    index = {owner: i for i, owner in enumerate(hset.owners)}
    for k in (1, 2, 5, 7):
        partition, _ = microaggregate(hset, k)
        for cluster, got in zip(partition.clusters, partition.centroids):
            want = _oracle_centroid([hset.histograms[index[o]] for o in cluster])
            assert list(got.mass.items()) == list(want.mass.items())
            if len(cluster) == 1:
                assert got is want


def assert_release_bytes_match_oracle(hset, k):
    """The partition, the released rows and row classes byte for byte, each
    centroid's keys and masses, and the loss, as the oracle gives them."""
    partition, released = microaggregate(hset, k)
    want_partition, want = _oracle_microaggregate(hset, k)
    assert partition == want_partition
    for got, expected in zip(partition.centroids, want_partition.centroids):
        assert list(got.mass.items()) == list(expected.mass.items())
    assert released.locations == want.locations
    for got, expected in ((released.rows, want.rows), (released.row_classes[0], want.row_classes[0])):
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert released.row_classes[1].tobytes() == want.row_classes[1].tobytes()
    assert information_loss(partition, hset) == _oracle_information_loss(want_partition, hset)


def _ulp_variants(base: dict, rng) -> list[dict]:
    """``base`` itself, and copies with one or two masses moved by one ulp."""
    locs = list(base)
    out = [dict(base), dict(base)]
    for _ in range(6):
        moved = dict(base)
        for loc in rng.choice(locs, size=min(2, len(locs)), replace=False).tolist():
            moved[loc] = math.nextafter(moved[loc], 2.0 if rng.random() < 0.5 else 0.0)
        out.append(moved)
    return out


class TestLiveRowsAndAnchorColumns:
    """Micro-aggregation over the live rows, re-gathered as their count halves,
    with the anchor's neighbours from its columns: the oracle's release, bit
    for bit."""

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_sizes_at_the_regather_boundaries(self, rng, k):
        for n in (2 * k - 1, 2 * k, 2 * k + 1, 4 * k, 8 * k + 1):
            assert_release_bytes_match_oracle(random_histogram_set(rng, n, 10, max_support=6), k)

    def test_rows_equal_to_the_anchor_or_one_ulp_off(self, rng):
        # Eight near copies on their own locations lie far from the other rows'
        # centroid, so anchors come from them and the column form cancels.
        base = dict(zip([f"B{j}" for j in range(6)], rng.dirichlet(np.ones(6)).tolist()))
        near = _ulp_variants(base, rng)
        others = random_histogram_set(rng, 12, 30, max_support=5).histograms
        hset = hist_set(near + [h.mass for h in others])
        for k in (2, 3, 4, 5):
            assert_release_bytes_match_oracle(hset, k)
        only_near = hist_set(near + _ulp_variants(base, rng))
        for k in (2, 3, 5, 8):
            assert_release_bytes_match_oracle(only_near, k)

    @pytest.mark.parametrize("n, t", [(300, 5), (200, 2)])
    def test_tie_heavy_shapes(self, n, t):
        hset = synthetic_set(n, 4, t, seed=1)
        for k in (3, 5):
            assert_release_bytes_match_oracle(hset, k)

    def test_benchmark_shape(self):
        assert_release_bytes_match_oracle(synthetic_set(200, 1000, 200, seed=2), 5)

    def test_duplicated_histograms_and_extreme_k(self, rng):
        distinct = random_histogram_set(rng, 5, 12).histograms
        hset = HistogramSet(tuple((f"u{i}", distinct[i % 5]) for i in range(23)))
        for k in (1, 2, 4, 5, 11, 23):
            assert_release_bytes_match_oracle(hset, k)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_both_forms_within_their_bound_of_weight_l1(self, data):
        # The anchor's column form and the centroid's pass over every row.
        size = data.draw(st.integers(1, 8))
        weights = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=size, max_size=size))
        base = {f"L{j}": w / math.fsum(weights) for j, w in enumerate(weights)}
        masses = []
        for _ in range(data.draw(st.integers(1, 8))):
            if data.draw(st.booleans()):
                masses.append({loc: data.draw(st.sampled_from([p, math.nextafter(p, 0.0), math.nextafter(p, 2.0)]))
                               for loc, p in base.items()})
            else:
                locs = data.draw(st.lists(st.integers(0, 11), min_size=1, max_size=6, unique=True))
                raw = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=len(locs), max_size=len(locs)))
                masses.append({f"L{j}": w / math.fsum(raw) for j, w in zip(locs, raw)})
        masses = [m for m in masses if abs(math.fsum(m.values()) - 1.0) <= 1e-9]
        if not masses:
            return
        hset = hist_set(masses)
        rows, hists = hset.rows, hset.histograms
        sums = np.add.reduceat(rows.data, rows.indptr[:-1])
        for anchor in range(len(hists)):
            d, tol = _l1_near(rows, rows.columns(), sums, anchor)
            for i, h in enumerate(hists):
                assert abs(d[i] - weight_l1(h, hists[anchor])) <= tol
        center = _mean_row(rows, np.ones(len(hists), dtype=bool))
        mean = H((loc, p) for loc, p in zip(hset.locations, center.tolist()) if p)
        d, tol = _l1_to(rows, sums, center)
        for i, h in enumerate(hists):
            assert abs(d[i] - weight_l1(h, mean)) <= tol


class TestMicroaggregate:
    def test_k1_identity(self, rng):
        hset = random_histogram_set(rng, 8, 10)
        partition, released = microaggregate(hset, 1)
        assert partition.g == len(hset)
        assert partition.k_achieved == 1
        assert released == hset
        assert all(a is b for (_, a), (_, b) in zip(released.entries, hset.entries))

    def test_k_equals_n_single_cluster(self, rng):
        hset = random_histogram_set(rng, 6, 10)
        partition, released = microaggregate(hset, 6)
        assert partition.g == 1
        grand = partition.centroids[0]
        assert all(h == grand for h in released.histograms)
        expected = {
            loc: sum(h.mass.get(loc, 0.0) for h in hset.histograms) / 6
            for loc in {loc for h in hset.histograms for loc in h.mass}
        }
        for loc, value in expected.items():
            assert grand.mass[loc] == pytest.approx(value, abs=1e-12)

    def test_two_natural_pairs(self):
        # oracle: enumerate every partition of 4 items into blocks of size >= 2
        masses = [
            {"A": 0.9, "B": 0.1},
            {"A": 0.85, "B": 0.15},
            {"C": 0.9, "D": 0.1},
            {"C": 0.88, "D": 0.12},
        ]
        hset = hist_set(masses)
        hists = hset.histograms

        def centroid(block):
            locs = {loc for i in block for loc in hists[i].mass}
            return {loc: sum(hists[i].mass.get(loc, 0.0) for i in block) / len(block) for loc in locs}

        def loss(blocks):
            return sum(
                weight_l1(hists[i], centroid(block)) for block in blocks for i in block
            )

        candidates = [
            [(0, 1), (2, 3)],
            [(0, 2), (1, 3)],
            [(0, 3), (1, 2)],
            [(0, 1, 2, 3)],
        ]
        best = min(candidates, key=loss)
        assert best == [(0, 1), (2, 3)]

        partition, _ = microaggregate(hset, 2)
        got = sorted(tuple(sorted(c)) for c in partition.clusters)
        assert got == [("u0", "u1"), ("u2", "u3")]
        assert information_loss(partition, hset) == pytest.approx(
            loss(best) / loss([candidates[-1][0]]), abs=1e-12
        )

    def test_cluster_sizes_in_band(self, rng):
        for n, k in [(10, 3), (11, 3), (12, 5), (9, 4), (7, 7), (13, 2)]:
            hset = random_histogram_set(rng, n, 12)
            partition, _ = microaggregate(hset, k)
            sizes = [len(c) for c in partition.clusters]
            assert sum(sizes) == n
            assert all(k <= s <= 2 * k - 1 for s in sizes)
            assert partition.k_achieved >= k

    def test_invalid_k(self, rng):
        hset = random_histogram_set(rng, 5, 8)
        with pytest.raises(InvalidKError):
            microaggregate(hset, 0)
        with pytest.raises(InvalidKError):
            microaggregate(hset, 6)

    def test_memory_below_dense_matrix(self, rng):
        # 300 owners, each on 4 private locations and 4 of 10 shared ones:
        # a dense N x M array over the 1210 locations would take 2.9 MB.
        n = 300

        def owner(i):
            locs = [f"L{4 * i + j}" for j in range(4)] + [f"S{j}" for j in rng.choice(10, 4, replace=False)]
            return f"u{i}", H(dict(zip(locs, rng.dirichlet(np.ones(8)))))

        hset = HistogramSet(tuple(owner(i) for i in range(n)))
        tracemalloc.start()
        try:
            microaggregate(hset, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * (4 * n + 10) * 8 / 4

    def test_release_pickles_to_equal_rows(self):
        _, released = microaggregate(synthetic_set(60, 80, 40, seed=3), 5)
        loaded = pickle.loads(pickle.dumps(released))
        assert loaded == released and loaded.locations == released.locations
        for got, want in ((loaded.rows, released.rows), (loaded.row_classes[0], released.row_classes[0])):
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert loaded.row_classes[1].tobytes() == released.row_classes[1].tobytes()
        assert loaded.row_classes[0].shape[0] < len(loaded)

    def test_centroid_mass_sums_to_one(self, rng):
        for _ in range(10):
            hset = random_histogram_set(rng, 12, 10)
            partition, _ = microaggregate(hset, 3)
            for c in partition.centroids:
                assert abs(math.fsum(c.mass.values()) - 1.0) <= 1e-9


class TestKAnonymity:
    def test_holds_for_every_k(self, rng):
        hset = random_histogram_set(rng, 17, 12)
        for k in range(1, len(hset) + 1):
            _, released = microaggregate(hset, k)
            assert verify_k_anonymity(released, k)

    def test_distinct_histograms_fail_k2(self):
        hset = hist_set([{"A": 1.0}, {"B": 1.0}, {"C": 1.0}])
        assert not verify_k_anonymity(hset, 2)

    def test_k1_always_true(self, rng):
        hset = random_histogram_set(rng, 5, 8)
        assert verify_k_anonymity(hset, 1)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_key_oracle(self, seed):
        hset = synthetic_set(60, 200, 50, seed)
        for k in (1, 2, 5, 6, 10):
            _, released = microaggregate(hset, k)
            for j in range(1, 2 * k + 1):
                assert verify_k_anonymity(released, j) == _oracle_verify_k_anonymity(released, j)
            # one member's entry moved by one ulp leaves that member alone
            entries = list(released.entries)
            owner, hist = entries[0]
            loc, p = next(iter(hist.mass.items()))
            entries[0] = (owner, Histogram(mass={**hist.mass, loc: math.nextafter(p, 2.0)}))
            moved = HistogramSet(tuple(entries))
            for j in range(1, 2 * k + 1):
                assert verify_k_anonymity(moved, j) == _oracle_verify_k_anonymity(moved, j) == (j == 1)

    def test_checks_mass_not_sample_count(self):
        a = Histogram(mass={"A": 1.0}, sample_count=5)
        b = Histogram(mass={"A": 1.0}, sample_count=9)
        hset = HistogramSet((("u0", a), ("u1", b)))
        assert verify_k_anonymity(hset, 2)


def test_kernels_leave_cached_rows_unchanged():
    population = sample_population(PopulationSpec(40, 100, 1.0, 3))
    left, right, _ = generate_pair(population, 60, 60, OverlapSpec.full(40), 3)
    partition, released = microaggregate(left, 4)
    sets = (left, right, released)
    before = [[a.copy() for a in (s.rows.data, s.rows.indices, s.rows.indptr)] for s in sets]
    microaggregate(left, 4)
    information_loss(partition, left)
    verify_k_anonymity(released, 4)
    for metric in MetricKind:
        weight_matrix(released, right, metric)
        weight_matrix(right, left, metric)
    for hset, arrays in zip(sets, before):
        for got, want in zip((hset.rows.data, hset.rows.indices, hset.rows.indptr), arrays):
            assert np.array_equal(got, want)


class TestInformationLoss:
    def test_identity_partition_zero(self, rng):
        hset = random_histogram_set(rng, 9, 10)
        partition, _ = microaggregate(hset, 1)
        assert information_loss(partition, hset) == 0.0

    def test_single_cluster_one(self, rng):
        hset = random_histogram_set(rng, 9, 10)
        partition, _ = microaggregate(hset, 9)
        assert information_loss(partition, hset) == 1.0

    def test_zero_despite_merging_identical(self):
        shared_a = {"A": 0.5, "B": 0.5}
        shared_b = {"C": 1.0}
        hset = hist_set([shared_a, shared_a, shared_b, shared_b])
        partition = ClusterPartition(
            clusters=(("u0", "u1"), ("u2", "u3")),
            centroids=(H(shared_a), H(shared_b)),
        )
        assert partition.g == 2
        assert information_loss(partition, hset) == 0.0

    def test_all_identical_degenerate_zero(self):
        mass = {"A": 0.25, "B": 0.75}
        hset = hist_set([mass] * 4)
        partition, _ = microaggregate(hset, 4)
        assert information_loss(partition, hset) == 0.0

    def test_coverage_required(self, rng):
        hset = random_histogram_set(rng, 4, 6)
        partition = ClusterPartition(
            clusters=(("u0", "u1"),), centroids=(hset.histograms[0],)
        )
        with pytest.raises(ValueError):
            information_loss(partition, hset)

    def test_coverage_error_is_typed(self, rng):
        hset = random_histogram_set(rng, 4, 6)
        partition = ClusterPartition(
            clusters=(("o000", "o001"),), centroids=(hset.histograms[0],)
        )
        with pytest.raises(PartitionCoverageError) as caught:
            information_loss(partition, hset)
        assert isinstance(caught.value, HistmatchError)

    def test_centroids_off_the_input_support_match_oracle(self, rng):
        # Hand-built centroids that are not means and put mass where no input does.
        hset = random_histogram_set(rng, 10, 12, max_support=6)
        owners = hset.owners
        clusters = (owners[:3], owners[3:7], owners[7:])
        mixed = {loc: 0.75 * p for loc, p in hset.histograms[4].mass.items()}
        centroids = (H({"nowhere": 1.0}), H({**mixed, "elsewhere": 0.25}), hset.histograms[8])
        partition = ClusterPartition(clusters=clusters, centroids=centroids)
        assert 0.0 < information_loss(partition, hset) == _oracle_information_loss(partition, hset)

    def test_repeated_objects_match_oracle(self, rng):
        # The input repeats objects, and two clusters share one centroid object.
        pool = random_histogram_set(rng, 4, 10, max_support=5).histograms
        hset = HistogramSet(tuple((f"u{i}", pool[j]) for i, j in enumerate([1, 3, 1, 0, 2, 1, 3, 0, 2])))
        partition = ClusterPartition(clusters=(hset.owners[:5], hset.owners[5:]), centroids=(pool[1], pool[1]))
        assert 0.0 < information_loss(partition, hset) == _oracle_information_loss(partition, hset)

    def test_mean_loss_nondecreasing_in_k(self, rng):
        ks = [1, 2, 3, 5, 10]
        sums = np.zeros(len(ks))
        for _ in range(20):
            hset = random_histogram_set(rng, 10, 8)
            for idx, k in enumerate(ks):
                partition, _ = microaggregate(hset, k)
                sums[idx] += information_loss(partition, hset)
        means = sums / 20
        assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))


class TestClusterPartition:
    def test_disjointness_enforced(self):
        h = H({"A": 1.0})
        with pytest.raises(ValueError):
            ClusterPartition(clusters=(("u0", "u1"), ("u1",)), centroids=(h, h))

    def test_one_centroid_per_cluster(self):
        h = H({"A": 1.0})
        with pytest.raises(ValueError, match="one centroid required per cluster"):
            ClusterPartition(clusters=(("u0",), ("u1",)), centroids=(h,))

    def test_empty_cluster_rejected(self):
        h = H({"A": 1.0})
        with pytest.raises(ValueError, match="clusters must be non-empty"):
            ClusterPartition(clusters=(("u0",), ()), centroids=(h, h))

    def test_counts(self):
        h = H({"A": 1.0})
        p = ClusterPartition(clusters=(("u0", "u1", "u2"), ("u3", "u4")), centroids=(h, h))
        assert p.g == 2
        assert p.k_achieved == 2
        assert p.cluster_of["u3"] == 1
        assert p.owners() == {"u0", "u1", "u2", "u3", "u4"}
