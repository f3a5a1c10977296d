"""The divergence lower bound, the pair evaluator, and A1's certified path.

The certified path must return what dense A1 returns wherever the optimum is
unique, an optimum of the same total where it is not, and fall back to the
dense matrix after ``CERTIFIED_ROUNDS`` assignments."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from histmatch import cli, matcher, metrics
from histmatch.core import MASS_ATOL, Histogram, HistogramSet, union_rows
from histmatch.matcher import (
    BipartiteInstance,
    build_instance,
    match_bruteforce,
    match_cardinality,
    match_greedy,
    match_min_weight,
)
from histmatch.metrics import (
    LN2,
    MAX_DIVERGENCE_WEIGHT,
    SHAVE_PER_TERM,
    SHAVE_TERMS,
    MetricKind,
    PairDivergence,
    cooccurrences,
    weight_matrix,
)
from histmatch.synth import OverlapSpec, PopulationSpec, generate_pair, sample_population
from tests.conftest import instance_from_matrix, random_histogram_set
from tests.test_metrics import duplicate_cases


def H(mass):
    return Histogram(mass=dict(mass))


PROPOSED = MetricKind.PROPOSED


def as_set(masses, prefix="o"):
    return HistogramSet(tuple((f"{prefix}{i}", H(m)) for i, m in enumerate(masses)))


def synth_pair(n_left, n_right, alpha, t, seed, alphabet=1000):
    population = sample_population(PopulationSpec(max(n_left, n_right), alphabet, alpha, seed))
    left, right, _ = generate_pair(population, t, t, OverlapSpec(n_left, n_right, min(n_left, n_right)), seed)
    return left, right


def dirichlet_set(rng, n, locations, alpha=1.0, prefix="o"):
    masses = []
    for _ in range(n):
        p = rng.dirichlet(np.full(len(locations), alpha))
        masses.append({loc: float(v) for loc, v in zip(locations, p) if v > 0.0})
    return as_set(masses, prefix)


def distinct_weights(left, right):
    """``weight_matrix`` at each set's distinct rows, the pairs ``PairDivergence`` indexes."""
    first = [np.unique(hset.row_classes[1], return_index=True)[1] for hset in (left, right)]
    return weight_matrix(left, right, PROPOSED)[np.ix_(*first)]


def assert_bound_below(left, right):
    bounds, weights = PairDivergence(left, right).lower_bounds(), distinct_weights(left, right)
    assert bounds.shape == weights.shape
    assert (bounds >= 0.0).all() and (bounds <= MAX_DIVERGENCE_WEIGHT).all()
    assert (bounds <= weights).all()
    return bounds, weights


def assert_pairs_exact(left, right, i, j):
    expected = distinct_weights(left, right)[i, j]
    got = PairDivergence(left, right).weights(np.asarray(i, dtype=np.intp), np.asarray(j, dtype=np.intp))
    assert got.tobytes() == expected.tobytes()


# -- the bound ----------------------------------------------------------------


def test_location_gap_is_nonnegative_on_a_dense_grid():
    """G(t), the weight's term at p = 1, q = t^2 minus the bound's, is >= 0
    up to rounding, with G(0) = G(1) = 0."""
    t = np.linspace(0.0, 1.0, 200_001)[1:]
    g = 2 * t * LN2 + 2 * t * t * np.log(t) - (1 + t * t) * np.log1p(t * t)
    assert g.min() >= -4 * np.finfo(float).eps
    assert abs(g[-1]) <= 4 * np.finfo(float).eps
    # and the unscaled form, the per-location inequality itself
    p, q = 1.0, t * t
    term = p * np.log(2 * p / (p + q)) + q * np.log(2 * q / (p + q))
    assert (term - LN2 * (np.sqrt(p) - np.sqrt(q)) ** 2 >= -4 * np.finfo(float).eps).all()


def test_disjoint_supports_give_the_shaved_maximum():
    left = as_set([{"A": 0.5, "B": 0.5}, {"C": 1.0}])
    right = as_set([{"D": 0.25, "E": 0.75}, {"F": 1.0}], "r")
    bounds, weights = assert_bound_below(left, right)
    assert (weights == MAX_DIVERGENCE_WEIGHT).all()
    # k is the left row's support, capped by the largest right support (2)
    shave = SHAVE_PER_TERM * (np.array([2, 1]) + SHAVE_TERMS)
    np.testing.assert_array_equal(bounds, np.broadcast_to(MAX_DIVERGENCE_WEIGHT - shave[:, None], (2, 2)))


def test_the_shave_is_needed(monkeypatch):
    """BC's float32 rounding lifts the unshaved bound above the computed
    weight of equal and of near pairs; the shave keeps it below."""
    left, right = synth_pair(40, 55, 1.0, 60, seed=3)
    cases = [(left, left), (left, right)]
    for pair in cases:
        assert_bound_below(*pair)
    monkeypatch.setattr(metrics, "SHAVE_PER_TERM", 0.0)
    monkeypatch.setattr(metrics, "SHAVE_TERMS", 0)
    for pair in cases:
        assert (PairDivergence(*pair).lower_bounds() > weight_matrix(*pair, PROPOSED)).any()


def test_identical_histograms_bound_to_zero():
    masses = [{"A": 0.3, "B": 0.7}, {"A": 1 / 3, "B": 1 / 3, "C": 1 / 3}]
    bounds, weights = assert_bound_below(as_set(masses), as_set(masses, "r"))
    assert bounds[0, 0] == 0.0 and bounds[1, 1] == 0.0


def test_bound_below_weights_on_seeded_regimes():
    for alpha, t in ((0.1, 500), (1.0, 200), (1.0, 60), (1.0, 5)):
        assert_bound_below(*synth_pair(40, 55, alpha, t, seed=3))


def test_bound_below_weights_near_identical_histograms(rng):
    base = rng.dirichlet(np.ones(50))
    masses = [{f"L{k}": float(v) for k, v in enumerate(base)}]
    for scale in (2.0**-52, 2.0**-40, 1e-9, 1e-6):
        moved = base * (1.0 + scale * rng.standard_normal(base.size))
        moved /= moved.sum()
        masses.append({f"L{k}": float(v) for k, v in enumerate(moved)})
    hset = as_set(masses)
    bounds, weights = assert_bound_below(hset, hset)
    assert weights.max() < 1e-9


def test_bound_below_weights_with_tiny_masses():
    masses = [
        {"A": 0.5, "B": 0.5 - 2e-300, "x": 1e-300, "y": 1e-300},
        {"A": 0.5, "B": 0.5, "x": 1e-310},
        {"x": 0.5, "y": 0.5 - 5e-324, "A": 5e-324},
        {"B": 1.0, "y": 1e-200},
    ]
    assert_bound_below(as_set(masses), as_set(masses[::-1], "r"))


def test_bound_below_weights_with_row_sums_off_by_the_tolerance(rng):
    masses = []
    for k in range(12):
        p = rng.dirichlet(np.ones(8))
        p *= 1.0 + (1 if k % 2 else -1) * 0.999 * MASS_ATOL
        masses.append({f"L{i}": float(v) for i, v in enumerate(p)})
    left, right = as_set(masses[:6]), as_set(masses[6:], "r")
    assert_bound_below(left, right)
    assert_bound_below(left, left)


def test_bound_below_weights_on_duplicated_rows():
    for left, right in duplicate_cases():
        assert_bound_below(left, right)


@pytest.mark.parametrize("alpha", [0.05, 1.0, 50.0])
def test_bound_below_weights_over_ten_thousand_shared_locations(alpha):
    rng = np.random.default_rng(17)
    locations = [f"L{k}" for k in range(10_000)]
    left = dirichlet_set(rng, 3, locations, alpha)
    right = dirichlet_set(rng, 3, locations, alpha, "r")
    assert_bound_below(left, right)
    assert_bound_below(left, left)


@st.composite
def masses_on(draw, locations):
    support = draw(st.lists(st.sampled_from(locations), min_size=1, max_size=len(locations), unique=True))
    raw = draw(st.lists(st.floats(1e-12, 1.0), min_size=len(support), max_size=len(support)))
    total = math.fsum(raw)
    return {loc: v / total for loc, v in zip(support, raw)}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bound_below_weights_property(data):
    locations = "ABCDEFGHIJ"
    left = as_set(data.draw(st.lists(masses_on(locations), min_size=1, max_size=5)))
    right = as_set(data.draw(st.lists(masses_on(locations), min_size=1, max_size=5)), "r")
    assert_bound_below(left, right)


# -- the pair evaluator ---------------------------------------------------------


def test_pair_weights_equal_the_matrix_on_seeded_regimes():
    rng = np.random.default_rng(5)
    for alpha, t in ((0.1, 500), (1.0, 200), (1.0, 60)):
        left, right = synth_pair(50, 70, alpha, t, seed=11)
        i, j = rng.integers(0, 50, 400), rng.integers(0, 70, 400)
        assert_pairs_exact(left, right, i, j)


def test_pair_weights_follow_union_columns_that_do_not_ascend():
    left = as_set([{"A": 0.2, "B": 0.3, "C": 0.5}, {"C": 0.6, "D": 0.4}])
    # The right set uses D before A, so its rows' union columns descend.
    right = as_set([{"D": 0.1, "C": 0.2, "A": 0.7}, {"E": 0.5, "B": 0.25, "A": 0.25}], "r")
    rrows = union_rows(left, right)[1]
    assert any(np.any(np.diff(rrows.indices[a:b]) < 0) for a, b in zip(rrows.indptr, rrows.indptr[1:]))
    i, j = np.repeat(np.arange(2), 2), np.tile(np.arange(2), 2)
    assert_pairs_exact(left, right, i, j)


def test_pair_weights_with_repeated_objects_and_fewer_left_rows():
    for left, right in duplicate_cases():
        n, m = left.row_classes[0].shape[0], right.row_classes[0].shape[0]
        i, j = np.divmod(np.arange(n * m), m)
        assert_pairs_exact(left, right, i, j)


def test_pair_weights_over_many_shared_locations_and_tiny_blocks(monkeypatch):
    rng = np.random.default_rng(3)
    locations = [f"L{k}" for k in range(3000)]
    left, right = dirichlet_set(rng, 4, locations), dirichlet_set(rng, 5, locations, prefix="r")
    i, j = np.divmod(np.arange(20), 5)
    assert_pairs_exact(left, right, i, j)
    monkeypatch.setattr(metrics, "_TABLE_CELLS", 1)  # one pair per block
    assert_pairs_exact(left, right, i, j)


def test_pair_weights_of_no_pairs():
    left, right = synth_pair(5, 6, 1.0, 50, seed=2)
    assert PairDivergence(left, right).weights(np.asarray([], dtype=np.intp), np.asarray([], dtype=np.intp)).shape == (0,)


def test_cooccurrences_count_shared_locations_of_distinct_rows():
    left = as_set([{"A": 0.5, "B": 0.5}, {"A": 1.0}, {"A": 0.5, "B": 0.5}])
    right = as_set([{"B": 0.5, "C": 0.5}, {"A": 0.5, "B": 0.5}], "r")
    # A: 2 distinct left rows x 1 right row; B: 1 x 2; C: 0
    assert cooccurrences(left, right) == 4


# -- the certified path ---------------------------------------------------------


@pytest.fixture
def certify_all(monkeypatch):
    """Every divergence instance takes the certified path."""
    monkeypatch.setattr(matcher, "CERTIFIED_MIN_COOCCURRENCES", 0)


def dense_a1(left, right):
    return match_min_weight(BipartiteInstance(left, right, PROPOSED, weight_matrix(left, right, PROPOSED)))


def assert_same_result(got, expected):
    assert [(i, j) for i, j, _ in got.pairs] == [(i, j) for i, j, _ in expected.pairs]
    assert np.array([w for *_, w in got.pairs]).tobytes() == np.array([w for *_, w in expected.pairs]).tobytes()
    assert got.total_weight == expected.total_weight
    assert got.algorithm == expected.algorithm == "A1"


# Over 1000 locations, strings of 60 share at most a location or two per pair,
# so many pairs weigh exactly the same and optima tie; over 100 they do not.
@pytest.mark.parametrize("alpha, t, alphabet", [(0.1, 500, 1000), (1.0, 200, 1000), (1.0, 60, 100)])
@pytest.mark.parametrize("n_left, n_right", [(120, 120), (90, 130)])
def test_certified_equals_dense_on_tie_free_instances(certify_all, alpha, t, alphabet, n_left, n_right):
    left, right = synth_pair(n_left, n_right, alpha, t, seed=n_left + t, alphabet=alphabet)
    instance = build_instance(left, right, PROPOSED)
    assert instance.certified and "weights" not in vars(instance)
    assert_same_result(match_min_weight(instance), dense_a1(left, right))
    assert "weights" not in vars(instance)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("t, alphabet", [(3, 6), (5, 20), (60, 1000)])
def test_certified_on_tie_heavy_instances(certify_all, seed, t, alphabet):
    """Short strings over few locations give pairs equal weights, and strings
    of 60 over 1000 locations give many pairs one weight, so optima tie.
    Strings of 3 over 6 locations also repeat histograms, which sends the
    instance to the dense path."""
    left, right = synth_pair(60, 70, 1.0, t, seed=seed, alphabet=alphabet)
    instance = build_instance(left, right, PROPOSED)
    assert instance.certified is (t != 3)
    got, expected = match_min_weight(instance), dense_a1(left, right)
    assert len(got) == len(left)
    assert got.total_weight == pytest.approx(expected.total_weight, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_certified_agrees_with_the_oracle(certify_all, seed):
    rng = np.random.default_rng(seed)
    left = random_histogram_set(rng, int(rng.integers(2, 8)), 4, 3)
    entries = list(left.entries) + list(random_histogram_set(rng, 8, 4, 3).entries)
    right = HistogramSet(tuple((f"r{k}", h) for k, (_, h) in enumerate(entries[: int(rng.integers(len(left), 9))])))
    got = match_min_weight(build_instance(left, right, PROPOSED))
    oracle = match_bruteforce(build_instance(left, right, PROPOSED))
    assert got.total_weight == pytest.approx(oracle.total_weight, abs=1e-12)


def test_certified_on_duplicated_rows(certify_all):
    """Sets that repeat a row take the dense path, even above the rule."""
    for left, right in duplicate_cases():
        if len(left) > len(right):
            left, right = right, left
        instance = build_instance(left, right, PROPOSED)
        assert not instance.certified and "weights" in vars(instance)
        assert_same_result(match_min_weight(instance), dense_a1(left, right))


def test_fallback_solves_the_dense_matrix(certify_all, monkeypatch):
    left, right = synth_pair(80, 80, 1.0, 60, seed=4)
    calls = []
    monkeypatch.setattr(matcher, "weight_matrix", lambda *args: calls.append(args) or weight_matrix(*args))
    monkeypatch.setattr(matcher, "CERTIFIED_ROUNDS", 0)
    instance = build_instance(left, right, PROPOSED)
    assert calls == []
    assert_same_result(match_min_weight(instance), dense_a1(left, right))
    assert len(calls) == 1 and "weights" in vars(instance)


def test_cached_matrix_leaves_the_choice_unchanged(certify_all):
    # Strings of 5 over 8 locations repeat a right row, which takes the dense
    # path; strings of 60 over 1000 repeat none and tie often.
    for alphabet, t, certified in ((8, 5, False), (1000, 60, True)):
        left, right = synth_pair(60, 60, 1.0, t, seed=1, alphabet=alphabet)
        fresh = match_min_weight(build_instance(left, right, PROPOSED))
        instance = build_instance(left, right, PROPOSED)
        assert instance.certified is certified
        instance.weights  # as another solver would have left it
        assert match_min_weight(instance) == fresh


def test_other_solvers_and_metrics_read_the_dense_matrix(certify_all):
    left, right = synth_pair(30, 40, 1.0, 60, seed=6)
    instance = build_instance(left, right, PROPOSED)
    assert "weights" not in vars(instance)
    assert len(match_cardinality(instance, 10)) == 10
    assert len(match_greedy(instance)) == 30
    np.testing.assert_array_equal(instance.weights, weight_matrix(left, right, PROPOSED))
    for metric in (MetricKind.L1, MetricKind.COSINE, MetricKind.DOT):
        other = build_instance(left, right, metric)
        assert not other.certified and "weights" in vars(other)


def test_explicit_matrix_is_always_solved(certify_all):
    instance = instance_from_matrix([[0.0, 1.0], [1.0, 0.0]])
    assert not instance.certified
    assert {i: j for i, j, _ in match_min_weight(instance).pairs} == {0: 0, 1: 1}


def test_instances_check_their_matrix():
    left, right = synth_pair(3, 4, 1.0, 20, seed=0)
    with pytest.raises(ValueError, match="shape"):
        BipartiteInstance(left, right, PROPOSED, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="finite"):
        BipartiteInstance(left, right, PROPOSED, np.full((3, 4), np.nan))
    with pytest.raises(AttributeError):
        build_instance(left, right, PROPOSED).metric = MetricKind.L1


def test_below_the_rule_the_matrix_is_built_at_once():
    left, right = synth_pair(20, 20, 1.0, 60, seed=0)
    instance = build_instance(left, right, PROPOSED)
    assert not instance.certified and "weights" in vars(instance)


def test_cli_above_the_rule_skips_the_dense_matrix(tmp_path, monkeypatch, capsys):
    left, right = str(tmp_path / "l.csv"), str(tmp_path / "r.csv")
    assert cli.main(["synth", "--users", "1000", "--alphabet", "1000", "--alpha", "1.0", "--t1", "200",
                     "--t2", "200", "--seed", "16", "--out-left", left, "--out-right", right]) == 0
    calls = []
    monkeypatch.setattr(matcher, "weight_matrix", lambda *args: calls.append(args) or weight_matrix(*args))
    match = ["match", "--left", left, "--right", right, "--algorithm", "a1"]
    assert cli.main(match + ["--out-pairs", str(tmp_path / "certified.csv")]) == 0
    assert calls == []
    monkeypatch.setattr(matcher, "CERTIFIED_MIN_COOCCURRENCES", 2**62)
    assert cli.main(match + ["--out-pairs", str(tmp_path / "dense.csv")]) == 0
    assert len(calls) == 1
    assert (tmp_path / "certified.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()


def test_cli_release_takes_the_dense_path(tmp_path, monkeypatch, capsys):
    """A k=5 release repeats each centroid five times; above the rule, its
    match computes the dense matrix once and never enters the certified loop."""
    left, right, released = (str(tmp_path / name) for name in ("l.csv", "r.csv", "released.csv"))
    assert cli.main(["synth", "--users", "1000", "--alphabet", "1000", "--alpha", "1.0", "--t1", "200",
                     "--t2", "200", "--seed", "1", "--out-left", left, "--out-right", right]) == 0
    assert cli.main(["anonymize", "--input", left, "--k", "5", "--out-released", released]) == 0
    calls, certified = [], []
    monkeypatch.setattr(matcher, "weight_matrix", lambda *args: calls.append(args) or weight_matrix(*args))
    monkeypatch.setattr(matcher, "_certified_min_weight", lambda instance: certified.append(instance))
    match = ["match", "--left", released, "--right", right, "--algorithm", "a1"]
    assert cli.main(match + ["--out-pairs", str(tmp_path / "release.csv")]) == 0
    assert certified == [] and len(calls) == 1
    monkeypatch.setattr(matcher, "CERTIFIED_MIN_COOCCURRENCES", 2**62)
    assert cli.main(match + ["--out-pairs", str(tmp_path / "dense.csv")]) == 0
    assert (tmp_path / "release.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()
