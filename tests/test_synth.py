import math

import numpy as np
import pytest

from histmatch.errors import InvalidOverlapError
from histmatch.metrics import weight_l1
from histmatch.synth import (
    OverlapSpec,
    PopulationSpec,
    generate_pair,
    location_ids,
    sample_population,
    seeded_generator,
)


class TestPopulation:
    def test_simplex(self):
        pop = sample_population(PopulationSpec(20, 30, 0.3, seed=5))
        assert len(pop) == 20
        for p in pop:
            assert p.shape == (30,)
            assert abs(p.sum() - 1.0) <= 1e-9
            assert (p >= 0).all()

    def test_deterministic(self):
        spec = PopulationSpec(10, 15, 0.2, seed=99)
        a = sample_population(spec)
        b = sample_population(spec)
        assert all((x == y).all() for x, y in zip(a, b))

    def test_pairwise_distinct(self):
        pop = sample_population(PopulationSpec(50, 10, 0.5, seed=1))
        keys = {p.tobytes() for p in pop}
        assert len(keys) == 50

    def test_sparse_habit_regime(self):
        # small concentration should give entropies far below log(M)
        rng = seeded_generator(123)
        entropies = []
        for _ in range(1000):
            p = rng.dirichlet(np.full(100, 0.1))
            nz = p[p > 0]
            entropies.append(float(-(nz * np.log(nz)).sum()))
        assert np.mean(entropies) < 0.7 * math.log(100)

    def test_validation(self):
        with pytest.raises(ValueError):
            PopulationSpec(0, 10, 0.1)
        with pytest.raises(ValueError):
            PopulationSpec(10, 10, 0.0)
        with pytest.raises(ValueError, match="at least two locations"):
            PopulationSpec(2, 1, 0.1)
        assert len(sample_population(PopulationSpec(1, 1, 0.1))) == 1


class TestOverlapSpec:
    def test_full(self):
        spec = OverlapSpec.full(7)
        assert (spec.n_left, spec.n_right, spec.r) == (7, 7, 7)
        assert spec.population_needed == 7

    def test_r_bounded(self):
        with pytest.raises(InvalidOverlapError):
            OverlapSpec(n_left=5, n_right=5, r=6)
        with pytest.raises(InvalidOverlapError):
            OverlapSpec(n_left=-1, n_right=5, r=0)

    def test_population_needed(self):
        assert OverlapSpec(5, 7, 3).population_needed == 9


class TestGeneratePair:
    def test_shapes_and_truth(self):
        pop = sample_population(PopulationSpec(13, 20, 0.2, seed=3))
        left, right, truth = generate_pair(pop, 50, 60, OverlapSpec(8, 10, 5), seed=4)
        assert len(left) == 8
        assert len(right) == 10
        assert len(truth) == 5
        assert set(truth.mapping).issubset(set(left.owners))
        assert set(truth.mapping.values()).issubset(set(right.owners))
        for h in left.histograms:
            assert h.sample_count == 50
        for h in right.histograms:
            assert h.sample_count == 60

    def test_zero_overlap(self):
        pop = sample_population(PopulationSpec(10, 20, 0.2, seed=3))
        _, _, truth = generate_pair(pop, 10, 10, OverlapSpec(4, 6, 0), seed=4)
        assert len(truth) == 0

    def test_single_sample_is_point_mass(self):
        pop = sample_population(PopulationSpec(4, 100, 0.2, seed=3))
        left, _, _ = generate_pair(pop, 1, 10, OverlapSpec.full(4), seed=4)
        assert all(h.support_count == 1 for h in left.histograms)

    def test_deterministic(self):
        pop = sample_population(PopulationSpec(10, 20, 0.2, seed=3))
        a = generate_pair(pop, 25, 25, OverlapSpec.full(10), seed=11)
        b = generate_pair(pop, 25, 25, OverlapSpec.full(10), seed=11)
        assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]

    def test_seed_changes_output(self):
        pop = sample_population(PopulationSpec(10, 20, 0.2, seed=3))
        a = generate_pair(pop, 25, 25, OverlapSpec.full(10), seed=11)
        b = generate_pair(pop, 25, 25, OverlapSpec.full(10), seed=12)
        assert a[0] != b[0]

    def test_infeasible_population(self):
        pop = sample_population(PopulationSpec(5, 20, 0.2, seed=3))
        with pytest.raises(InvalidOverlapError):
            generate_pair(pop, 10, 10, OverlapSpec(4, 4, 1), seed=0)

    def test_histograms_follow_own_distribution(self):
        # with a huge sample, each user's two histograms converge to each other
        pop = sample_population(PopulationSpec(6, 10, 0.5, seed=8))
        left, right, truth = generate_pair(pop, 20_000, 20_000, OverlapSpec.full(6), seed=9)
        for anon, label in truth.mapping.items():
            d = weight_l1(left.histogram(anon), right.histogram(label))
            assert d < 0.1

    def test_large_sample_recovers_truth_exactly(self):
        # with a million samples per string the histograms converge to the
        # distinct underlying habits, so the optimal matcher recovers everyone
        from histmatch.harness import user_level_accuracy
        from histmatch.matcher import build_instance, match_min_weight
        from histmatch.metrics import MetricKind

        pop = sample_population(PopulationSpec(5, 15, 0.5, seed=31))
        left, right, truth = generate_pair(pop, 1_000_000, 1_000_000, OverlapSpec.full(5), seed=32)
        inst = build_instance(left, right, MetricKind.PROPOSED)
        res = match_min_weight(inst)
        report = user_level_accuracy(res, truth, left, right)
        assert report.user_level_pct == 100.0

    def test_consistency_l1_shrinks_with_t(self):
        pop = sample_population(PopulationSpec(50, 30, 0.3, seed=21))
        means = []
        for t in (100, 1000, 10_000):
            left, right, truth = generate_pair(pop, t, t, OverlapSpec.full(50), seed=22)
            dists = [
                weight_l1(left.histogram(a), right.histogram(b))
                for a, b in truth.mapping.items()
            ]
            means.append(float(np.mean(dists)))
        assert means[0] > means[1] > means[2]

    def test_location_ids_padded(self):
        ids = location_ids(12)
        assert ids[0] == "L00" and ids[11] == "L11"
        assert len(set(ids)) == 12
