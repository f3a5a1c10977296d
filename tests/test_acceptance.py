"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal.
"""
import itertools
import os
import time

import numpy as np
import pytest

from histmatch.anonymize import information_loss, microaggregate, verify_k_anonymity
from histmatch.core import Histogram, HistogramSet
from histmatch.harness import (
    ExperimentConfig,
    bootstrap_ci,
    cluster_level_accuracy,
    run_experiment,
    user_level_accuracy,
)
from histmatch.matcher import (
    MatchResult,
    build_instance,
    generalized_log_likelihood,
    match_bruteforce,
    match_cardinality,
    match_min_weight,
)
from histmatch.metrics import (
    MAX_DIVERGENCE_WEIGHT,
    MetricKind,
    weight_proposed,
)
from histmatch.synth import OverlapSpec, PopulationSpec, generate_pair, sample_population
from tests.conftest import random_histogram, random_histogram_set


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    return ok


def test_criterion_1_a1_oracle_equivalence():
    """Exactness of the maximal matcher against brute force, all metrics."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        m_alpha = int(rng.integers(2, 7))
        left = random_histogram_set(rng, n, m_alpha)
        right = random_histogram_set(rng, n, m_alpha)
        for metric in MetricKind:
            inst = build_instance(left, right, metric)
            gap = abs(
                match_min_weight(inst).total_weight - match_bruteforce(inst).total_weight
            )
            worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    assert report(
        1, ok,
        f"A1 vs brute force on 1000 instances x 4 metrics: worst gap {worst:.2e}, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_a2_oracle_equivalence():
    """Exactness of the fixed-cardinality matcher at every feasible r."""
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    solves = 0
    for _ in range(500):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(2, 8))
        m_alpha = int(rng.integers(2, 7))
        left = random_histogram_set(rng, n, m_alpha)
        right = random_histogram_set(rng, m, m_alpha)
        inst = build_instance(left, right, MetricKind.PROPOSED)
        for r in range(1, min(n, m) + 1):
            gap = abs(
                match_cardinality(inst, r).total_weight
                - match_bruteforce(inst, r).total_weight
            )
            worst = max(worst, gap)
            solves += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 120.0
    assert report(
        2, ok,
        f"A2 vs brute force on 500 instances, every r ({solves} solves): "
        f"worst gap {worst:.2e}, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_3_likelihood_equivalence():
    """The max-likelihood assignment is the min-total-weight assignment."""
    rng = np.random.default_rng(303)
    agreements = 0
    for _ in range(100):
        left = random_histogram_set(rng, 4, 6)
        right = random_histogram_set(rng, 4, 6)
        inst = build_instance(left, right, MetricKind.PROPOSED)
        w = inst.weights
        scored = []
        for perm in itertools.permutations(range(4)):
            pairs = tuple((i, perm[i], float(w[i, perm[i]])) for i in range(4))
            res = MatchResult(pairs=pairs, algorithm="BruteForce")
            scored.append((perm, res.total_weight, generalized_log_likelihood(inst, res, 50)))
        if min(scored, key=lambda t: t[1])[0] == max(scored, key=lambda t: t[2])[0]:
            agreements += 1
    ok = agreements == 100
    assert report(
        3, ok, f"likelihood argmax equals weight argmin on {agreements}/100 4-user instances"
    )


def test_criterion_4_weight_laws():
    """Divergence-weight bounds: range, zero on equal, 2 ln 2 on disjoint."""
    rng = np.random.default_rng(404)
    in_range = True
    for _ in range(10_000):
        p = random_histogram(rng, 6)
        q = random_histogram(rng, 6)
        w = weight_proposed(p, q)
        in_range = in_range and 0.0 <= w <= MAX_DIVERGENCE_WEIGHT

    zero_ok = True
    disjoint_ok = True
    for _ in range(500):
        p = random_histogram(rng, 6)
        zero_ok = zero_ok and weight_proposed(p, p) == 0.0
        q = random_histogram(rng, 6, prefix="R")  # disjoint alphabet
        disjoint_ok = disjoint_ok and abs(weight_proposed(p, q) - MAX_DIVERGENCE_WEIGHT) <= 1e-12

    ok = in_range and zero_ok and disjoint_ok
    assert report(
        4, ok,
        "divergence weight within [0, 2 ln 2] on 10^4 random pairs; 0 on equal pairs; "
        "2 ln 2 (+/-1e-12) on disjoint supports",
    )


def test_criterion_5_metric_ordering():
    """The divergence weight is at least as accurate as every heuristic."""
    reps = 50
    accs = {kind: [] for kind in MetricKind}
    for seed in range(reps):
        pop = sample_population(PopulationSpec(100, 200, 0.1, seed=seed))
        left, right, truth = generate_pair(pop, 500, 500, OverlapSpec.full(100), seed=seed)
        for kind in MetricKind:
            inst = build_instance(left, right, kind)
            res = match_min_weight(inst)
            accs[kind].append(user_level_accuracy(res, truth, left, right).user_level_pct)

    proposed = np.array(accs[MetricKind.PROPOSED])
    ok = True
    details = []
    for kind in (MetricKind.L1, MetricKind.COSINE, MetricKind.DOT):
        margins = proposed - np.array(accs[kind])
        low, _ = bootstrap_ci(margins, seed=505)
        ok = ok and margins.mean() >= 0.0 and low >= -1e-9
        details.append(f"{kind.value}: mean margin {margins.mean():+.2f} ci low {low:+.2f}")
    assert report(
        5, ok,
        f"proposed mean {proposed.mean():.1f}% over {reps} reps; " + "; ".join(details),
    )


def test_criterion_5_optional_geolife_reproduction():
    """Optional absolute-accuracy check against the public GPS dataset."""
    left_path = os.environ.get("HISTMATCH_GEOLIFE_LEFT")
    right_path = os.environ.get("HISTMATCH_GEOLIFE_RIGHT")
    truth_path = os.environ.get("HISTMATCH_GEOLIFE_TRUTH")
    if not (left_path and right_path and truth_path):
        pytest.skip(
            "public GPS dataset not supplied; set HISTMATCH_GEOLIFE_LEFT/RIGHT/TRUTH "
            "to preprocessed histogram CSVs (1000 m grid) to enable"
        )
    from histmatch import io as hio

    left = hio.read_histogram_set(left_path)
    right = hio.read_histogram_set(right_path)
    truth = hio.read_truth(truth_path)
    inst = build_instance(left, right, MetricKind.PROPOSED)
    res = match_min_weight(inst)
    acc = user_level_accuracy(res, truth, left, right).user_level_pct
    ok = abs(acc - 58.4) <= 8.0
    assert report(5, ok, f"optional GPS reproduction: accuracy {acc:.1f}% vs 58.4% +/- 8")


def test_criterion_6_trend_reproduction():
    """Accuracy falls with population size and rises with string length."""
    n_cfg = ExperimentConfig(
        scenario="vary_n",
        metrics=["proposed"],
        repetitions=20,
        seed=606,
        params={"n_values": [10, 100, 1000], "alphabet_size": 100, "concentration": 1.0, "t": 40},
    )
    n_report = run_experiment(n_cfg)
    n_means = [n_report.row(n, "proposed", "a1").mean_user_level_pct for n in (10, 100, 1000)]
    n_ok = n_means[0] > n_means[1] > n_means[2]

    t_cfg = ExperimentConfig(
        scenario="vary_t",
        metrics=["proposed"],
        repetitions=20,
        seed=607,
        params={"t_values": [50, 500, 5000], "n_users": 100, "alphabet_size": 100, "concentration": 1.0},
    )
    t_report = run_experiment(t_cfg)
    t_means = [t_report.row(t, "proposed", "a1").mean_user_level_pct for t in (50, 500, 5000)]
    t_ok = t_means[0] <= t_means[1] + 1e-9 and t_means[1] <= t_means[2] + 1e-9

    ok = n_ok and t_ok
    assert report(
        6, ok,
        "accuracy vs N {:.1f} > {:.1f} > {:.1f} (strict); vs T {:.1f} <= {:.1f} <= {:.1f}".format(
            *n_means, *t_means
        ),
    )


def test_criterion_7_a2_vs_a1():
    """Fixed-cardinality matching trades raw correct matches for precision."""
    cfg = ExperimentConfig(
        scenario="overlap",
        metrics=["proposed"],
        repetitions=20,
        seed=707,
        params={
            "r_values": [150],
            "n_left": 200,
            "n_right": 200,
            "alphabet_size": 100,
            "concentration": 1.0,
            "t": 60,
        },
    )
    out = run_experiment(cfg)
    a1 = out.row(150, "proposed", "a1")
    a2 = out.row(150, "proposed", "a2(150)")
    pct_ok = a2.mean_percentage_accuracy >= a1.mean_percentage_accuracy
    corr_ok = a1.mean_correct >= a2.mean_correct
    ok = pct_ok and corr_ok
    assert report(
        7, ok,
        f"A2 pct {a2.mean_percentage_accuracy:.1f}% >= A1 pct {a1.mean_percentage_accuracy:.1f}%; "
        f"A1 correct {a1.mean_correct:.1f} >= A2 correct {a2.mean_correct:.1f}",
    )


def test_criterion_8_k_anonymity():
    """Micro-aggregation guarantees anonymity and degrades only user-level accuracy."""
    n = 100
    ks = [1, 2, 5, 10, n]
    seeds = range(5)
    verify_ok = True
    boundary_ok = True
    user_means = []
    cluster_at_n = []
    per_k_user = {k: [] for k in ks}
    for seed in seeds:
        pop = sample_population(PopulationSpec(n, 200, 0.1, seed=seed))
        left, right, truth = generate_pair(pop, 500, 500, OverlapSpec.full(n), seed=seed)
        for k in ks:
            partition, released = microaggregate(left, k)
            verify_ok = verify_ok and verify_k_anonymity(released, k)
            loss = information_loss(partition, left)
            if k == 1:
                boundary_ok = boundary_ok and loss == 0.0
            if k == n:
                boundary_ok = boundary_ok and loss == 1.0
            inst = build_instance(released, right, MetricKind.PROPOSED)
            res = match_min_weight(inst)
            per_k_user[k].append(
                user_level_accuracy(res, truth, released, right).user_level_pct
            )
            if k == n:
                cluster_at_n.append(
                    cluster_level_accuracy(res, truth, partition, released, right)
                )
    user_means = [float(np.mean(per_k_user[k])) for k in ks]
    monotone_ok = all(a >= b - 1e-9 for a, b in zip(user_means, user_means[1:]))
    cluster_ok = all(c == 100.0 for c in cluster_at_n)
    ok = verify_ok and boundary_ok and monotone_ok and cluster_ok
    user_trace = "/".join(f"{m:.1f}" for m in user_means)
    assert report(
        8, ok,
        f"verify passed for k in 1,2,5,10,{n}; L(1)=0 and L(N)=1 exactly; "
        f"user accuracy {user_trace} non-increasing; cluster accuracy at k=N = 100%",
    )


def test_criterion_9_performance():
    """Weights plus exact matching at N=N'=1000 finish within the time budget."""
    rng = np.random.default_rng(909)
    m = 1000
    ids = [f"L{i:04d}" for i in range(m)]

    def sparse_user():
        support = rng.choice(m, size=10, replace=False)
        base = rng.dirichlet(np.ones(10))
        return support, base

    def draw(support, base, t=200):
        counts = rng.multinomial(t, base)
        mass = {ids[int(s)]: c / t for s, c in zip(support, counts) if c > 0}
        return Histogram(mass=dict(mass), sample_count=t)

    users = [sparse_user() for _ in range(1000)]
    left = HistogramSet(
        tuple((f"x{i}", draw(*users[i])) for i in range(1000))
    )
    right = HistogramSet(
        tuple((f"u{i}", draw(*users[i])) for i in range(1000))
    )
    mean_support = np.mean([h.support_count for h in left.histograms])

    start = time.perf_counter()
    inst = build_instance(left, right, MetricKind.PROPOSED)
    weights_s = time.perf_counter() - start
    t1 = time.perf_counter()
    res = match_min_weight(inst)
    solve_s = time.perf_counter() - t1
    elapsed = time.perf_counter() - start

    ok = elapsed < 60.0 and len(res.pairs) == 1000
    assert report(
        9, ok,
        f"N=N'=1000, M=1000, mean support {mean_support:.1f}: weights {weights_s:.2f}s "
        f"+ solve {solve_s:.2f}s = {elapsed:.2f}s (< 60s)",
    )
