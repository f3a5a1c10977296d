import itertools
import math
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from histmatch.anonymize import microaggregate
from histmatch.core import Histogram, HistogramSet
from histmatch.errors import (
    InvalidCardinalityError,
    MetricMismatchError,
    SwapSidesError,
    TooLargeForOracleError,
)
from histmatch.matcher import (
    BipartiteInstance,
    MatchResult,
    _linear_sum_assignment,
    _result,
    build_instance,
    generalized_log_likelihood,
    match_bruteforce,
    match_cardinality,
    match_greedy,
    match_min_weight,
)
from histmatch.metrics import MAX_DIVERGENCE_WEIGHT, MetricKind, pair_distance
from histmatch.synth import OverlapSpec, PopulationSpec, generate_pair, sample_population
from tests.conftest import instance_from_matrix, random_histogram_set


def H(mass):
    return Histogram(mass=dict(mass))


def point_set(symbols, labeled=False):
    return HistogramSet(
        tuple((f"{'r' if labeled else 'l'}{i}", H({s: 1.0})) for i, s in enumerate(symbols)),
    )


class TestBuildInstance:
    def test_disjoint_slot_is_max_weight(self):
        left = point_set(["A"])
        right = point_set(["B", "A"], labeled=True)
        inst = build_instance(left, right, MetricKind.PROPOSED)
        assert inst.weights[0, 0] == MAX_DIVERGENCE_WEIGHT
        assert inst.weights[0, 1] == 0.0

    def test_all_disjoint_solvable(self):
        # no left-right pair shares support: every edge sits at the maximal distance
        left = point_set(["A", "B"])
        right = point_set(["C", "D"], labeled=True)
        res = match_min_weight(build_instance(left, right, MetricKind.PROPOSED))
        assert len(res.pairs) == 2
        assert res.total_weight == pytest.approx(2 * MAX_DIVERGENCE_WEIGHT, abs=1e-12)

    def test_dot_stored_as_distance(self, rng):
        p = H({"A": 0.5, "B": 0.5})
        left = HistogramSet((("l0", p),))
        right = HistogramSet((("r0", p),))
        inst = build_instance(left, right, MetricKind.DOT)
        dot = sum(v * v for v in p.mass.values())
        assert inst.weights[0, 0] == pytest.approx(1.0 - dot, abs=1e-12)

    def test_weights_in_metric_range(self, rng):
        for metric in MetricKind:
            left = random_histogram_set(rng, 6, 5)
            right = random_histogram_set(rng, 7, 5)
            inst = build_instance(left, right, metric)
            assert inst.weights.min() >= 0.0
            assert inst.weights.max() <= metric.max_distance

    def test_empty_rejected(self, rng):
        right = random_histogram_set(rng, 2, 5)
        with pytest.raises(ValueError):
            build_instance(HistogramSet(()), right, MetricKind.L1)


class TestMatchMinWeight:
    def test_zero_diagonal(self):
        inst = instance_from_matrix([[0.0, 1.0], [1.0, 0.0]])
        res = match_min_weight(inst)
        assert {i: j for i, j, _ in res.pairs} == {0: 0, 1: 1}
        assert res.total_weight == 0.0
        assert res.algorithm == "A1"

    def test_two_by_two(self):
        # brute force over the 2 permutations: 1 + 0 = 1 beats 2 + 3 = 5
        inst = instance_from_matrix([[1.0, 2.0], [3.0, 0.0]])
        res = match_min_weight(inst)
        assert {i: j for i, j, _ in res.pairs} == {0: 0, 1: 1}
        assert res.total_weight == pytest.approx(1.0, abs=1e-12)

    def test_identity_on_identical_sets(self):
        left = point_set(["A", "B", "C", "D"])
        right = point_set(["A", "B", "C", "D"], labeled=True)
        inst = build_instance(left, right, MetricKind.PROPOSED)
        res = match_min_weight(inst)
        assert {i: j for i, j, _ in res.pairs} == {i: i for i in range(4)}
        assert res.total_weight == 0.0

    def test_rectangular(self):
        inst = instance_from_matrix([[5.0, 1.0, 9.0], [4.0, 2.0, 9.0]])
        res = match_min_weight(inst)
        assert len(res.pairs) == 2
        assert res.total_weight == pytest.approx(5.0)  # (0,1)+(1,0)

    def test_swap_sides_error(self):
        inst = instance_from_matrix([[1.0], [2.0]])
        with pytest.raises(SwapSidesError):
            match_min_weight(inst)

    def test_matches_bruteforce(self, rng):
        for _ in range(150):
            n = int(rng.integers(2, 8))
            m = int(rng.integers(n, 8))
            metric = list(MetricKind)[int(rng.integers(0, 4))]
            left = random_histogram_set(rng, n, 6)
            right = random_histogram_set(rng, m, 6)
            inst = build_instance(left, right, metric)
            a1 = match_min_weight(inst)
            oracle = match_bruteforce(inst)
            assert a1.total_weight == pytest.approx(oracle.total_weight, abs=1e-9)


def padded_in_index_order(w, r):
    """A2's padded solve with the rows in index order: the reference that the
    relabeled solve must agree with."""
    n, m = w.shape
    lo, hi = float(w.min()), float(w.max())
    padded = np.empty((n, m + n - r))
    padded[:, :m] = w
    padded[:, m:] = lo - max(hi, -lo) - 1.0
    rows, cols = _linear_sum_assignment()(padded)
    real = cols < m
    return _result(w, list(zip(rows[real], cols[real])), f"A2({r})")


def overlap_sets(n_left, n_right, shared, alphabet, t, seed):
    population = sample_population(PopulationSpec(n_left + n_right - shared, alphabet, 1.0, seed))
    left, right, _ = generate_pair(population, t, t, OverlapSpec(n_left, n_right, shared), seed)
    return left, right


class TestMatchCardinality:
    def test_single_edge(self):
        # brute force over all 4 single edges
        inst = instance_from_matrix([[5.0, 1.0], [2.0, 3.0]])
        res = match_cardinality(inst, 1)
        assert {i: j for i, j, _ in res.pairs} == {0: 1}
        assert res.total_weight == pytest.approx(1.0)
        assert res.algorithm == "A2(1)"

    def test_full_cardinality_equals_a1(self, rng):
        for _ in range(30):
            w = rng.uniform(0, 2, size=(5, 5))
            inst = instance_from_matrix(w)
            assert match_cardinality(inst, 5).total_weight == pytest.approx(
                match_min_weight(inst).total_weight, abs=1e-9
            )

    def test_three_by_three_r2(self):
        # brute force over all 18 two-edge matchings
        inst = instance_from_matrix([[0.0, 9.0, 9.0], [9.0, 0.0, 9.0], [9.0, 9.0, 1.0]])
        res = match_cardinality(inst, 2)
        assert {i: j for i, j, _ in res.pairs} == {0: 0, 1: 1}
        assert res.total_weight == 0.0

    def test_invalid_cardinality(self):
        inst = instance_from_matrix([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(InvalidCardinalityError):
            match_cardinality(inst, 0)
        with pytest.raises(InvalidCardinalityError):
            match_cardinality(inst, 3)

    def test_matches_bruteforce_every_r(self, rng):
        instances = []
        for _ in range(120):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            left = random_histogram_set(rng, n, 6)
            right = random_histogram_set(rng, m, 6)
            instances.append(build_instance(left, right, MetricKind.PROPOSED))
        # arbitrary finite weights: negative entries, integer-rounded ties, and
        # ties at a scale where min(weights) - 1 rounds back to min(weights)
        for n, m in [(6, 3), (3, 6), (5, 4), (4, 5)] * 20:
            w = rng.uniform(-3.0, 3.0, size=(n, m))
            instances.append(instance_from_matrix(w))
            instances.append(instance_from_matrix(np.round(w)))
            instances.append(instance_from_matrix(np.round(w) * 2.0**60))
        for inst in instances:
            n, m = inst.weights.shape
            for r in range(1, min(n, m) + 1):
                a2 = match_cardinality(inst, r)
                oracle = match_bruteforce(inst, r)
                assert len(a2.pairs) == r
                assert a2.total_weight == pytest.approx(oracle.total_weight, abs=1e-9)

    def test_monotone_in_r(self, rng):
        for _ in range(40):
            w = rng.uniform(0, 3, size=(6, 6))
            inst = instance_from_matrix(w)
            totals = [match_cardinality(inst, r).total_weight for r in range(1, 7)]
            assert all(a <= b + 1e-12 for a, b in zip(totals, totals[1:]))

    @staticmethod
    def _agrees_with_index_order(left, right):
        for metric in MetricKind:
            inst = build_instance(left, right, metric)
            n, m = inst.weights.shape
            low = min(n, m)
            for r in sorted({1, low // 4, low // 2, low - 1, low} - {0}):
                a2 = match_cardinality(inst, r)
                reference = padded_in_index_order(inst.weights, r)
                assert len(a2) == r
                assert a2.total_weight == pytest.approx(reference.total_weight, abs=1e-9)
                if r == n:
                    assert a2.pairs == reference.pairs

    @pytest.mark.parametrize("n_left, n_right, seed", [(40, 60, 1), (60, 40, 2), (50, 50, 3)])
    def test_row_order_keeps_the_optimum(self, n_left, n_right, seed):
        self._agrees_with_index_order(*overlap_sets(n_left, n_right, 30, 300, 40, seed))

    def test_row_order_keeps_the_optimum_on_a_release(self):
        left, right = overlap_sets(45, 60, 45, 300, 40, 4)
        self._agrees_with_index_order(microaggregate(left, 5)[1], right)

    @pytest.mark.parametrize("n_left, n_right", [(30, 45), (45, 30)])
    def test_row_order_keeps_the_optimum_on_tied_histograms(self, n_left, n_right):
        # t = 3 over 6 locations: few distinct histograms, so most weights tie
        left, right = overlap_sets(n_left, n_right, 25, 6, 3, 5)
        assert left.row_classes[0].shape[0] < n_left
        self._agrees_with_index_order(left, right)

    def test_fill_makes_no_copy_of_the_weights(self):
        inst = build_instance(*overlap_sets(400, 400, 200, 1000, 200, 6), MetricKind.PROPOSED)
        n, m = inst.weights.shape
        r = 200
        tracemalloc.start()
        try:
            match_cardinality(inst, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * (m + n - r) + 8 * n * m // 4


class TestBruteForce:
    def test_single_cell(self):
        inst = instance_from_matrix([[0.7]])
        res = match_bruteforce(inst)
        assert res.pairs == ((0, 0, 0.7),)

    def test_zero_cardinality(self):
        inst = instance_from_matrix([[0.7]])
        res = match_bruteforce(inst, 0)
        assert res.pairs == ()
        assert res.total_weight == 0.0

    def test_size_limit(self, rng):
        w = rng.uniform(0, 1, size=(9, 3))
        with pytest.raises(TooLargeForOracleError):
            match_bruteforce(instance_from_matrix(w))

    @pytest.mark.parametrize("r", [-1, 3])
    def test_cardinality_out_of_range(self, r):
        with pytest.raises(InvalidCardinalityError):
            match_bruteforce(instance_from_matrix([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]), r)

    def test_exhaustive_semantics(self, rng):
        # cross-check the oracle itself against a raw itertools enumeration
        for _ in range(20):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            w = rng.uniform(0, 1, size=(n, m))
            inst = instance_from_matrix(w)
            r = min(n, m)
            best = min(
                sum(w[i, j] for i, j in zip(rows, cols))
                for rows in itertools.combinations(range(n), r)
                for cols in itertools.permutations(range(m), r)
            )
            assert match_bruteforce(inst, r).total_weight == pytest.approx(best, abs=1e-12)


class TestGreedy:
    def test_optimal_case(self):
        inst = instance_from_matrix([[0.0, 1.0], [1.0, 0.0]])
        res = match_greedy(inst)
        assert {i: j for i, j, _ in res.pairs} == {0: 0, 1: 1}
        assert res.total_weight == 0.0

    def test_documented_suboptimality(self):
        inst = instance_from_matrix([[1.0, 2.0], [2.0, 10.0]])
        res = match_greedy(inst)
        assert {i: j for i, j, _ in res.pairs} == {0: 0, 1: 1}
        assert res.total_weight == pytest.approx(11.0)
        assert match_bruteforce(inst).total_weight == pytest.approx(4.0)

    def test_more_left_than_right_rejected(self):
        with pytest.raises(SwapSidesError):
            match_greedy(instance_from_matrix([[0.0], [1.0]]))

    def test_swap_sides_before_the_weights(self, rng):
        # greedy names both sizes, as A1 does, and fails before it builds the matrix
        inst = BipartiteInstance(random_histogram_set(rng, 3, 6), random_histogram_set(rng, 2, 6), MetricKind.PROPOSED)
        for solve in (match_greedy, match_min_weight):
            with pytest.raises(SwapSidesError, match="left side has 3 nodes but right side only 2"):
                solve(inst)
        assert "weights" not in vars(inst)

    def test_one_by_one_matching(self, rng):
        w = rng.uniform(0, 1, size=(1, 7))
        inst = instance_from_matrix(w)
        res = match_greedy(inst)
        assert {i: j for i, j, _ in res.pairs} == {0: int(np.argmin(w[0]))}

    def test_never_beats_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(n, 7))
            w = rng.uniform(0, 1, size=(n, m))
            inst = instance_from_matrix(w)
            assert match_greedy(inst).total_weight >= match_bruteforce(inst).total_weight - 1e-12


class TestGeneralizedLogLikelihood:
    def test_identity_point_masses(self):
        left = point_set(["A", "B"])
        right = point_set(["A", "B"], labeled=True)
        inst = build_instance(left, right, MetricKind.PROPOSED)
        res = match_min_weight(inst)
        assert generalized_log_likelihood(inst, res, 10) == 0.0

    def test_metric_mismatch(self, rng):
        left = random_histogram_set(rng, 2, 4)
        right = random_histogram_set(rng, 2, 4)
        inst = build_instance(left, right, MetricKind.L1)
        res = match_min_weight(inst)
        with pytest.raises(MetricMismatchError):
            generalized_log_likelihood(inst, res, 10)

    @pytest.mark.parametrize("sample_count", [0, -3])
    def test_non_positive_sample_count(self, sample_count):
        inst = build_instance(point_set(["A"]), point_set(["A"], labeled=True), MetricKind.PROPOSED)
        with pytest.raises(ValueError, match="sample_count must be positive"):
            generalized_log_likelihood(inst, match_min_weight(inst), sample_count)

    def test_linear_in_sample_count(self, rng):
        left = random_histogram_set(rng, 3, 5)
        right = random_histogram_set(rng, 3, 5)
        inst = build_instance(left, right, MetricKind.PROPOSED)
        res = match_min_weight(inst)
        base = generalized_log_likelihood(inst, res, 7)
        assert generalized_log_likelihood(inst, res, 14) == 2.0 * base
        assert generalized_log_likelihood(inst, res, 21) == pytest.approx(3.0 * base, rel=1e-12)

    def test_argmax_equals_min_weight_argmin(self, rng):
        # enumerate all 4! assignments; ranking by likelihood (descending) must
        # match ranking by total weight (ascending)
        for trial in range(30):
            left = random_histogram_set(rng, 4, 6)
            right = random_histogram_set(rng, 4, 6)
            inst = build_instance(left, right, MetricKind.PROPOSED)
            w = inst.weights
            results = []
            for perm in itertools.permutations(range(4)):
                pairs = tuple((i, perm[i], float(w[i, perm[i]])) for i in range(4))
                res = MatchResult(pairs=pairs, algorithm="BruteForce")
                results.append((perm, res.total_weight, generalized_log_likelihood(inst, res, 25)))
            best_weight = min(results, key=lambda t: t[1])
            best_likelihood = max(results, key=lambda t: t[2])
            assert best_weight[0] == best_likelihood[0]


class TestMatchResult:
    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError):
            MatchResult(pairs=((0, 0, 1.0), (0, 1, 1.0)), algorithm="A1")
        with pytest.raises(ValueError):
            MatchResult(pairs=((0, 1, 1.0), (1, 1, 1.0)), algorithm="A1")

    def test_total_must_match(self):
        weights = (0.1, 1e16, 0.2, -1e16)
        res = MatchResult(pairs=tuple((i, i, w) for i, w in enumerate(weights)), algorithm="A1")
        assert res.total_weight == math.fsum(weights) == 0.30000000000000004
        assert MatchResult(pairs=(), algorithm="A1").total_weight == 0.0

    def test_len_and_mapping(self):
        res = MatchResult(pairs=((0, 1, 0.5), (1, 0, 0.25)), algorithm="A1")
        assert len(res) == 2
        assert {i: j for i, j, _ in res.pairs} == {0: 1, 1: 0}


class TestSolverLoading:
    """``matcher`` loads scipy's compiled solver on its own; a process that
    imported ``scipy.optimize`` first must solve to the same bytes."""

    SCRIPT = textwrap.dedent("""
        import sys
        if sys.argv[1] == "first":
            import scipy.optimize
            loaded = sys.modules["scipy.optimize._lsap"]
        from histmatch import matcher
        from histmatch.metrics import MetricKind
        from histmatch.synth import OverlapSpec, PopulationSpec, generate_pair, sample_population
        population = sample_population(PopulationSpec(40, 200, 0.5, 3))
        left, right, _ = generate_pair(population, 60, 60, OverlapSpec(30, 40, 30), 3)
        dense = matcher.build_instance(left, right, MetricKind.PROPOSED)
        matcher.CERTIFIED_MIN_COOCCURRENCES = 0
        certified = matcher.build_instance(left, right, MetricKind.PROPOSED)
        assert certified.certified and not dense.certified
        assert matcher._certified_min_weight(certified) is not None
        for result in (
            matcher.match_min_weight(dense),
            matcher.match_min_weight(certified),
            matcher.match_cardinality(dense, 20),
        ):
            print(repr(result.pairs), repr(result.total_weight))
        print("scipy.optimize" in sys.modules)
        if sys.argv[1] == "first":
            assert sys.modules["scipy.optimize._lsap"] is loaded, "the solver's module was loaded again"
        import scipy.optimize
        assert scipy.optimize.linear_sum_assignment is matcher._linear_sum_assignment()
    """)

    def _solve(self, order):
        out = subprocess.run([sys.executable, "-c", self.SCRIPT, order], capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        return out.stdout.splitlines()

    def test_scipy_optimize_imported_first(self):
        default, first = self._solve("default"), self._solve("first")
        assert default[-1] == "False" and first[-1] == "True"
        assert len(default) == 4 and default[:3] == first[:3]

    def test_falls_back_to_the_package_without_a_compiled_module(self):
        script = textwrap.dedent("""
            import importlib.machinery, sys
            find_spec = importlib.machinery.PathFinder.find_spec

            def without_compiled_solver(name, *args):
                if name == "scipy.optimize._lsap" and "scipy.optimize" not in sys.modules:
                    return None
                return find_spec(name, *args)

            importlib.machinery.PathFinder.find_spec = without_compiled_solver
            from histmatch import matcher
            solve = matcher._linear_sum_assignment()
            import scipy.optimize
            assert solve is scipy.optimize.linear_sum_assignment
        """)
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
