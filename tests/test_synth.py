import math
import tracemalloc

import numpy as np
import pytest

from histmatch import synth
from histmatch.errors import HistmatchError, InvalidOverlapError, InvalidPopulationError
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

    @pytest.mark.parametrize("concentration", [math.nan, math.inf, -math.inf])
    def test_non_finite_concentration_rejected(self, concentration):
        with pytest.raises(ValueError, match="positive and finite"):
            PopulationSpec(3, 5, concentration)


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

    @pytest.mark.parametrize("t1, t2", [(0, 10), (10, 0), (-5, 10)])
    def test_non_positive_length(self, t1, t2):
        pop = sample_population(PopulationSpec(4, 20, 0.2, seed=3))
        with pytest.raises(ValueError, match="string lengths must be positive"):
            generate_pair(pop, t1, t2, OverlapSpec.full(4), seed=4)

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


def _single_draw_population(rng, spec: PopulationSpec) -> list[np.ndarray]:
    """The population drawn one Dirichlet row per call, redrawing exact
    repeats: the loop that the batched draws replaced."""
    alpha = np.full(spec.alphabet_size, spec.concentration)
    out: list[np.ndarray] = []
    seen: set[bytes] = set()
    while len(out) < spec.n_users:
        p = rng.dirichlet(alpha)
        key = p.tobytes()
        if key in seen:
            continue
        seen.add(key)
        out.append(p)
    return out


class _RepeatingGenerator:
    """One real generator's single Dirichlet rows in order, whether asked for
    one at a time or in batches, with row ``repeat_at`` replaced by a copy of
    row 0."""

    def __init__(self, seed: int, repeat_at: int):
        self._rng = seeded_generator(seed)
        self._repeat_at = repeat_at
        self.served: list[np.ndarray] = []

    def _one(self, alpha):
        p = self._rng.dirichlet(alpha)
        if len(self.served) == self._repeat_at:
            p = self.served[0].copy()
        self.served.append(p)
        return p

    def dirichlet(self, alpha, size=None):
        if size is None:
            return self._one(alpha)
        return np.array([self._one(alpha) for _ in range(size)])


class TestBatchedDirichlet:
    @pytest.mark.parametrize("concentration", [0.05, 0.1, 1.0])
    @pytest.mark.parametrize("alphabet_size", [2, 50, 1000])
    def test_equals_single_draws(self, concentration, alphabet_size):
        spec = PopulationSpec(40, alphabet_size, concentration, seed=6)
        want = _single_draw_population(seeded_generator(spec.seed, synth._SALT_POPULATION), spec)
        got = sample_population(spec)
        assert [p.tobytes() for p in got] == [p.tobytes() for p in want]

    def test_collision_is_redrawn(self, monkeypatch):
        spec = PopulationSpec(6, 10, 0.5, seed=0)
        stub = _RepeatingGenerator(seed=2, repeat_at=3)
        monkeypatch.setattr(synth, "seeded_generator", lambda *entropy: stub)
        got = sample_population(spec)
        assert len(stub.served) == spec.n_users + 1
        want = _single_draw_population(_RepeatingGenerator(seed=2, repeat_at=3), spec)
        assert [p.tobytes() for p in got] == [p.tobytes() for p in want]
        assert stub.served[3].tobytes() == stub.served[0].tobytes()
        assert [p.tobytes() for p in got] == [p.tobytes() for i, p in enumerate(stub.served) if i != 3]


class TestExhaustedDraws:
    """At a huge concentration every Dirichlet draw is the uniform vector, at
    a tiny one one of the M one-hot vectors.  The command-line tests run the
    inputs that once redrew forever, in a subprocess."""

    @pytest.mark.parametrize("seed", range(3))
    def test_draws_every_one_hot_row(self, seed):
        # N = M: the last rows come after runs of repeats, but they exist.
        pop = sample_population(PopulationSpec(40, 40, 1e-300, seed=seed))
        assert sorted(int(p.argmax()) for p in pop) == list(range(40))
        assert all(p.max() == 1.0 for p in pop)


class TestPopulationMemory:
    def test_peak_near_population_bytes(self):
        sample_population(PopulationSpec(2, 5, 0.1))  # one-time allocations, outside the trace
        tracemalloc.start()
        try:
            pop = sample_population(PopulationSpec(1000, 500, 0.1, seed=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * sum(p.nbytes for p in pop)


class TestInverseCdfDraws:
    @pytest.mark.parametrize("concentration", [0.1, 1.0])
    @pytest.mark.parametrize("alphabet_size", [1, 2, 1000])
    @pytest.mark.parametrize("t", [1, 20_000])
    def test_equal_generator_choice(self, concentration, alphabet_size, t):
        n = 1 if alphabet_size == 1 else 8
        for user, p in enumerate(sample_population(PopulationSpec(n, alphabet_size, concentration, seed=4))):
            got = synth._draw(p, t, seeded_generator(9, user))
            want = seeded_generator(9, user).choice(len(p), size=t, p=p)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_generate_pair_equals_choice_draws(self, monkeypatch):
        pop = sample_population(PopulationSpec(30, 40, 0.3, seed=2))
        got = generate_pair(pop, 50, 70, OverlapSpec(20, 25, 15), seed=3)
        monkeypatch.setattr(synth, "_draw", lambda p, t, gen: gen.choice(len(p), size=t, p=p))
        want = generate_pair(pop, 50, 70, OverlapSpec(20, 25, 15), seed=3)
        assert got == want
        for side in (0, 1):
            for (_, a), (_, b) in zip(got[side].entries, want[side].entries):
                assert list(a.mass.items()) == list(b.mass.items())


class TestPopulationChecks:
    """``generate_pair`` refuses what ``Generator.choice`` would, with a typed error."""

    def _raises(self, population, match):
        with pytest.raises(InvalidPopulationError, match=match) as caught:
            generate_pair(population, 5, 5, OverlapSpec(0, 0, 0))
        assert isinstance(caught.value, ValueError) and isinstance(caught.value, HistmatchError)

    def test_empty(self):
        self._raises([], "empty")

    def test_unequal_lengths(self):
        self._raises([np.full(10, 0.1), np.full(13, 1 / 13)], r"user 1's distribution has shape \(13,\)")

    @pytest.mark.parametrize("bad", [math.nan, -0.25, -math.inf])
    def test_negative_or_nan(self, bad):
        self._raises([np.array([0.5, 0.5]), np.array([1.25, bad])], "user 1's distribution has a negative or NaN")

    def test_infinite(self):
        self._raises([np.array([0.5, 0.5]), np.array([0.5, math.inf])], "user 1's distribution sums to inf")

    def test_sum_not_one(self):
        self._raises([np.array([0.5, 0.5 + 1e-6])], "sums to")

    def test_sum_within_choice_tolerance(self):
        left, _, _ = generate_pair([np.array([0.5, 0.5 + 1e-9])], 5, 5, OverlapSpec.full(1))
        assert len(left) == 1


def test_seeded_generator_states_equal_the_int_tuple_seeding():
    """The generator of each key has the state a ``SeedSequence`` of the
    masked int tuple gives, so the streams do not depend on how the words are
    passed, on this numpy or a later one."""
    mask = 2**64 - 1
    seeds = (0, 1, 2**32 - 1, 2**32, 2**40, -1, 2**64 - 1, 2**64)
    for seed in seeds:
        for salt in (1, 2, 3, 4, 2**32):
            for user in range(50):
                key = (seed, salt, user)
                expected = np.random.PCG64(np.random.SeedSequence(tuple(int(e) & mask for e in key)))
                assert seeded_generator(*key).bit_generator.state == expected.state
    assert seeded_generator(2**64).bit_generator.state == seeded_generator(0).bit_generator.state
