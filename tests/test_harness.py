import csv
import json
import math
import re
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from histmatch import harness
from histmatch.anonymize import ClusterPartition, microaggregate
from histmatch.core import GroundTruth, Histogram, HistogramSet
from histmatch.errors import ConfigError, HistmatchError, InvalidCoordinateError, PartitionCoverageError
from histmatch.harness import (
    AccuracyReport,
    ExperimentConfig,
    bootstrap_ci,
    cluster_level_accuracy,
    run_experiment,
    user_level_accuracy,
)
from histmatch.matcher import MatchResult, build_instance, match_cardinality, match_min_weight
from histmatch.metrics import MetricKind
from histmatch.synth import OverlapSpec, PopulationSpec, generate_pair, sample_population


def H(mass):
    return Histogram(mass=dict(mass))


def point_sets(n):
    left = HistogramSet(tuple((f"x{i}", H({f"L{i}": 1.0})) for i in range(n)))
    right = HistogramSet(tuple((f"u{i}", H({f"L{i}": 1.0})) for i in range(n)))
    truth = GroundTruth({f"x{i}": f"u{i}" for i in range(n)})
    return left, right, truth


def result_for(mapping, weight=0.0):
    pairs = tuple((i, j, weight) for i, j in sorted(mapping.items()))
    return MatchResult(pairs=pairs, algorithm="A1")


class TestUserLevelAccuracy:
    def test_perfect(self):
        left, right, truth = point_sets(4)
        report = user_level_accuracy(result_for({i: i for i in range(4)}), truth, left, right)
        assert report.n_common == 4
        assert report.n_correct == 4
        assert report.user_level_pct == 100.0
        assert report.percentage_accuracy == 100.0

    def test_empty_result(self):
        left, right, truth = point_sets(3)
        report = user_level_accuracy(
            MatchResult(pairs=(), algorithm="A1"), truth, left, right
        )
        assert report.n_correct == 0
        assert report.percentage_accuracy is None

    def test_empty_truth_undefined(self):
        left, right, _ = point_sets(2)
        report = user_level_accuracy(
            result_for({0: 0}), GroundTruth({}), left, right
        )
        assert report.user_level_pct is None
        assert report.n_common == 0

    def test_partial_matching_denominators(self):
        # 3750 common users, matching of size 3750, 1340 agree -> 35.7%
        n = 5000
        left = HistogramSet(tuple((f"x{i}", H({f"L{i}": 1.0})) for i in range(n)))
        right = HistogramSet(tuple((f"u{i}", H({f"L{i}": 1.0})) for i in range(n)))
        truth = GroundTruth({f"x{i}": f"u{i}" for i in range(3750)})
        mapping = {i: i for i in range(1340)}  # correct pairs
        mapping.update({i: i + 1000 for i in range(1500, 3910)})  # 2410 wrong pairs
        report = user_level_accuracy(result_for(mapping), truth, left, right)
        assert len(mapping) == 3750
        assert report.n_correct == 1340
        assert report.percentage_accuracy == pytest.approx(100 * 1340 / 3750, abs=1e-9)
        assert round(report.percentage_accuracy) == 36
        assert report.user_level_pct == pytest.approx(100 * 1340 / 3750, abs=1e-9)

    def test_report_validation(self):
        with pytest.raises(ValueError):
            AccuracyReport(n_common=2, n_correct=3, user_level_pct=None, percentage_accuracy=None)
        with pytest.raises(ValueError):
            AccuracyReport(n_common=2, n_correct=1, user_level_pct=150.0, percentage_accuracy=None)


class TestClusterLevelAccuracy:
    def test_k1_equals_user_level(self):
        pop = sample_population(PopulationSpec(20, 40, 0.3, seed=6))
        left, right, truth = generate_pair(pop, 100, 100, OverlapSpec.full(20), seed=7)
        partition, released = microaggregate(left, 1)
        inst = build_instance(released, right, MetricKind.PROPOSED)
        res = match_min_weight(inst)
        user = user_level_accuracy(res, truth, released, right)
        cluster = cluster_level_accuracy(res, truth, partition, released, right)
        assert cluster == pytest.approx(user.user_level_pct)

    def test_single_cluster_is_100(self):
        pop = sample_population(PopulationSpec(12, 40, 0.3, seed=6))
        left, right, truth = generate_pair(pop, 100, 100, OverlapSpec.full(12), seed=7)
        partition, released = microaggregate(left, 12)
        inst = build_instance(released, right, MetricKind.PROPOSED)
        res = match_min_weight(inst)
        assert cluster_level_accuracy(res, truth, partition, released, right) == 100.0

    def test_within_cluster_swap_counts(self):
        left, right, truth = point_sets(4)
        centroid = H({"Z": 1.0})
        partition = ClusterPartition(
            clusters=(("x0", "x1"), ("x2", "x3")),
            centroids=(centroid, H({"Y": 1.0})),
        )
        # u0 matched to x1: same cluster as its true owner x0 -> cluster credit,
        # no user credit
        res = result_for({1: 0, 0: 1, 2: 2, 3: 3})
        user = user_level_accuracy(res, truth, left, right)
        cluster = cluster_level_accuracy(res, truth, partition, left, right)
        assert user.n_correct == 2
        assert cluster == pytest.approx(100.0)

    def test_empty_truth(self):
        left, right, _ = point_sets(2)
        partition = ClusterPartition(clusters=(("x0", "x1"),), centroids=(H({"A": 1.0}),))
        assert cluster_level_accuracy(result_for({0: 0}), GroundTruth({}), partition, left, right) is None

    def test_uncovered_owner_is_typed_error(self):
        left, right, truth = point_sets(3)
        partition = ClusterPartition(clusters=(("x0", "x1"),), centroids=(H({"A": 1.0}),))
        with pytest.raises(PartitionCoverageError):
            cluster_level_accuracy(result_for({0: 0, 1: 1, 2: 2}), truth, partition, left, right)


class TestBootstrap:
    def test_constant_series(self):
        low, high = bootstrap_ci([5.0] * 10, seed=1)
        assert low == 5.0 and high == 5.0

    def test_interval_brackets_mean(self, rng):
        values = rng.normal(50, 5, size=40)
        low, high = bootstrap_ci(values, seed=2)
        assert low <= values.mean() <= high
        assert high - low < 10

    def test_single_value(self):
        assert bootstrap_ci([3.0]) == (3.0, 3.0)

    def test_only_undefined_values(self):
        low, high = bootstrap_ci([None, None])
        assert math.isnan(low) and math.isnan(high)


class TestExperimentConfig:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario="nope")

    def test_bad_metric(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario="vary_n", metrics=["chi2"])

    def test_bad_repetitions(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(scenario="vary_n", repetitions=0)

    @pytest.mark.parametrize(
        "scenario, params, message",
        [
            ("vary_n", {"t": 0}, "t must be positive and finite, got 0"),
            ("vary_t", {"n_users": 0}, "n_users must be positive and finite, got 0"),
            ("overlap", {"n_left": -1}, "n_left must be positive and finite, got -1"),
            ("overlap", {"n_right": 0}, "n_right must be positive and finite, got 0"),
            ("vary_n", {"alphabet_size": 0}, "alphabet_size must be positive and finite, got 0"),
            ("kanon", {"concentration": -1.0}, "concentration must be positive and finite, got -1.0"),
            ("kanon", {"concentration": math.nan}, "concentration must be positive and finite, got nan"),
            ("kanon", {"concentration": math.inf}, "concentration must be positive and finite, got inf"),
            ("aggregate", {"cell_sides": [100.0, math.inf]}, "cell_sides must be a non-empty list of positive numbers, all finite"),
            ("aggregate", {"geo_origin": [math.nan, 0.0]}, "geo_origin must be a list of two numbers, both finite"),
            ("aggregate", {"geo_origin": [0.0, -math.inf]}, "geo_origin must be a list of two numbers, both finite"),
        ],
    )
    def test_non_positive_or_non_finite_params(self, scenario, params, message):
        with pytest.raises(ConfigError) as caught:
            ExperimentConfig(scenario=scenario, params=params)
        assert str(caught.value) == message

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"scenario": "vary_n", "bogus": 1})

    def test_from_dict_requires_scenario(self):
        with pytest.raises(ConfigError, match="config requires a 'scenario'"):
            ExperimentConfig.from_dict({"repetitions": 2})

    def test_from_file_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"scenario": "vary_n",')
        with pytest.raises(ConfigError, match="invalid JSON"):
            ExperimentConfig.from_file(path)

    def test_roundtrip(self):
        cfg = ExperimentConfig(scenario="vary_t", metrics=["l1"], repetitions=3, seed=9)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_param_merge(self):
        cfg = ExperimentConfig(scenario="vary_n", params={"t": 99})
        merged = cfg.merged_params()
        assert merged["t"] == 99
        assert merged["n_values"] == [10, 50, 100]

    @pytest.mark.parametrize("n_values", [[10], [10, 50, 100]])
    def test_runs_beyond_maxsize_rejected(self, n_values):
        most = sys.maxsize // len(n_values)
        ExperimentConfig(scenario="vary_n", repetitions=most, params={"n_values": n_values})
        with pytest.raises(ConfigError, match=r"exceeds sys\.maxsize"):
            ExperimentConfig(scenario="vary_n", repetitions=most + 1, params={"n_values": n_values})


class _FirstTaskRan(Exception):
    pass


def test_single_worker_builds_each_task_when_it_runs(monkeypatch):
    """With one worker a task is built only when its run starts, so an
    experiment of countless repetitions holds no list of them."""
    ran = []

    def stop(task):
        ran.append(task)
        raise _FirstTaskRan

    monkeypatch.setattr(harness, "_rep_task", stop)
    with pytest.raises(_FirstTaskRan):
        run_experiment(ExperimentConfig("vary_n", repetitions=10**15, params={"n_values": [4, 6]}))
    assert len(ran) == 1 and ran[0][3] == 4


class TestRepetitionMemory:
    @pytest.mark.parametrize("scenario, params", [
        ("vary_n", {"n_values": [12]}),
        ("overlap", {"r_values": [6], "n_left": 8, "n_right": 10}),
        ("kanon", {"k_values": [3], "n_users": 12}),
    ])
    def test_population_freed_before_weights(self, monkeypatch, scenario, params):
        batches, alive = [], []
        sample, build = harness.sample_population, harness.build_instance

        def sample_and_watch(spec):
            population = sample(spec)
            batches.append(weakref.ref(population[0].base))
            return population

        def build_and_check(*args, **kwargs):
            alive.append(batches[-1]() is not None)
            return build(*args, **kwargs)

        monkeypatch.setattr(harness, "sample_population", sample_and_watch)
        monkeypatch.setattr(harness, "build_instance", build_and_check)
        run_experiment(ExperimentConfig(scenario, metrics=["proposed", "l1"], repetitions=2, params=params))
        assert len(batches) == 2 and alive == [False] * 4


class TestRunExperiment:
    def test_row_lookup_of_a_missing_row(self):
        config = ExperimentConfig("vary_n", repetitions=1, params={"n_values": [4], "t": 20, "alphabet_size": 10})
        report = run_experiment(config)
        assert report.row(4, "proposed", "a1").repetitions == 1
        for key in ((5, "proposed", "a1"), (4, "l1", "a1"), (4, "proposed", "a2(4)")):
            with pytest.raises(KeyError):
                report.row(*key)

    def test_vary_n_strictly_decreasing(self):
        cfg = ExperimentConfig(
            scenario="vary_n",
            metrics=["proposed"],
            repetitions=6,
            seed=3,
            params={"n_values": [10, 50, 100]},
        )
        report = run_experiment(cfg)
        means = [report.row(n, "proposed", "a1").mean_user_level_pct for n in (10, 50, 100)]
        assert means[0] > means[1] > means[2]

    def test_vary_t_nondecreasing(self):
        cfg = ExperimentConfig(
            scenario="vary_t",
            metrics=["proposed"],
            repetitions=6,
            seed=3,
            params={"t_values": [50, 200, 800]},
        )
        report = run_experiment(cfg)
        means = [report.row(t, "proposed", "a1").mean_user_level_pct for t in (50, 200, 800)]
        assert means[0] <= means[1] + 1e-9
        assert means[1] <= means[2] + 1e-9
        assert means[0] < means[2]

    def test_kanon_tradeoff(self):
        cfg = ExperimentConfig(
            scenario="kanon",
            metrics=["proposed"],
            repetitions=3,
            seed=5,
            params={"k_values": [1, 2, 5, 10], "n_users": 60},
        )
        report = run_experiment(cfg)
        rows = [report.row(k, "proposed", "a1") for k in (1, 2, 5, 10)]
        users = [r.mean_user_level_pct for r in rows]
        clusters = [r.mean_cluster_level_pct for r in rows]
        losses = [r.mean_information_loss for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(users, users[1:]))
        assert all(abs(c - clusters[0]) <= 10.0 for c in clusters)
        assert losses[0] == 0.0
        assert all(a <= b + 1e-9 for a, b in zip(losses, losses[1:]))
        assert all(r.kanon_ok for r in rows)

    def test_aggregate_hurts_accuracy(self):
        cfg = ExperimentConfig(
            scenario="aggregate",
            metrics=["proposed"],
            repetitions=4,
            seed=7,
            params={"group_counts": [100, 5], "n_users": 60},
        )
        report = run_experiment(cfg)
        fine = report.row(100, "proposed", "a1").mean_user_level_pct
        coarse = report.row(5, "proposed", "a1").mean_user_level_pct
        assert fine > coarse

    def test_suppress_hurts_accuracy(self):
        cfg = ExperimentConfig(
            scenario="suppress",
            metrics=["proposed"],
            repetitions=4,
            seed=7,
            params={"keep_sizes": [200, 10], "n_users": 60},
        )
        report = run_experiment(cfg)
        full = report.row(200, "proposed", "a1").mean_user_level_pct
        cut = report.row(10, "proposed", "a1").mean_user_level_pct
        assert full > cut

    @pytest.mark.parametrize("metrics", [None, ["proposed", "l1", "cosine", "dot"]])
    def test_suppression_that_keeps_no_pair_scores_as_empty(self, tmp_path, monkeypatch, metrics):
        from histmatch import harness

        # one of these repetitions keeps no truth pair: it once stopped the whole run
        config = {"scenario": "suppress", "repetitions": 3, "seed": 0, "params": {
            "keep_sizes": [1], "n_users": 3, "alphabet_size": 500, "concentration": 0.01, "t": 3}}
        if metrics is not None:
            config["metrics"] = metrics
        payloads = []
        solve = harness._solve_all
        monkeypatch.setattr(harness, "_solve_all", lambda *args, **kw: payloads.append(solve(*args, **kw)) or payloads[-1])
        report = run_experiment(ExperimentConfig.from_dict(config), out_dir=tmp_path)
        assert (tmp_path / "results.csv").exists()
        assert len(payloads) == 3
        empty = [p for p in payloads if all(score["user_level_pct"] is None for score in p.values())]
        assert len(empty) == 1
        full = next(p for p in payloads if p is not empty[0])
        assert list(empty[0]) == list(full)
        for key, score in empty[0].items():
            assert list(score) == list(full[key])
            assert score["percentage_accuracy"] is None
            assert score["correct"] == 0
        assert [row.metric for row in report.rows] == (metrics or ["proposed"])

    def test_overlap_reports_both_algorithms(self):
        cfg = ExperimentConfig(
            scenario="overlap",
            metrics=["proposed"],
            repetitions=2,
            seed=1,
            params={"r_values": [20], "n_left": 30, "n_right": 30, "t": 60},
        )
        report = run_experiment(cfg)
        a1 = report.row(20, "proposed", "a1")
        a2 = report.row(20, "proposed", "a2(20)")
        assert a1.mean_percentage_accuracy is not None
        assert a2.mean_percentage_accuracy is not None

    @staticmethod
    def _strip_timings(rows):
        # wall-clock fields are the only nondeterministic part of a report
        return [
            {
                f: v
                for f, v in vars(row).items()
                if f not in ("mean_weights_ms", "mean_solve_ms")
            }
            for row in rows
        ]

    def test_deterministic(self):
        cfg = ExperimentConfig(
            scenario="vary_n", repetitions=2, seed=11, params={"n_values": [8, 12]}
        )
        first = self._strip_timings(run_experiment(cfg).rows)
        second = self._strip_timings(run_experiment(cfg).rows)
        assert first == second

    def test_worker_pool_matches_sequential(self):
        base = dict(scenario="vary_n", repetitions=2, seed=13, params={"n_values": [8, 12]})
        sequential = run_experiment(ExperimentConfig(**base))
        pooled = run_experiment(ExperimentConfig(**base, workers=2))
        assert self._strip_timings(sequential.rows) == self._strip_timings(pooled.rows)

    def test_worker_pool_matches_sequential_under_every_metric(self):
        base = dict(
            scenario="kanon", metrics=["proposed", "l1", "cosine", "dot"], repetitions=2, seed=17,
            params={"k_values": [1, 3], "n_users": 18, "alphabet_size": 40, "t": 50},
        )
        sequential = run_experiment(ExperimentConfig(**base))
        pooled = run_experiment(ExperimentConfig(**base, workers=2))
        assert {row.metric for row in pooled.rows} == set(base["metrics"])
        assert self._strip_timings(sequential.rows) == self._strip_timings(pooled.rows)

    def test_aggregate_event_log_pipeline(self, tmp_path):
        # four users with well-separated "home" cells, light jitter, two periods
        import csv as csv_mod
        import math

        from histmatch.core import EARTH_RADIUS_M

        origin = (39.5, 116.0)

        def coord(cell_row, cell_col, jitter_m):
            north = 500.0 + 1000.0 * cell_row + jitter_m
            east = 500.0 + 1000.0 * cell_col + jitter_m
            lat = origin[0] + math.degrees(north / EARTH_RADIUS_M)
            lon = origin[1] + math.degrees(
                east / (EARTH_RADIUS_M * math.cos(math.radians(origin[0])))
            )
            return f"{lat},{lon}"

        events = tmp_path / "gps.csv"
        with open(events, "w", newline="") as fh:
            writer = csv_mod.writer(fh)
            writer.writerow(["user", "timestamp", "location"])
            for u, (row, col) in enumerate([(0, 0), (3, 1), (6, 2), (9, 5)]):
                for t, jitter in [(100, -20), (200, 15), (1100, 10), (1200, -5)]:
                    writer.writerow([f"u{u}", t, coord(row, col, jitter)])

        cfg = ExperimentConfig(
            scenario="aggregate",
            metrics=["proposed"],
            repetitions=1,
            seed=0,
            params={
                "event_log": str(events),
                "boundary": 1000,
                "geo_origin": list(origin),
                "cell_sides": [1000.0, 100000.0],
            },
        )
        report = run_experiment(cfg)
        fine = report.row(1000.0, "proposed", "a1")
        coarse = report.row(100000.0, "proposed", "a1")
        assert fine.param == "cell_side"
        assert fine.mean_user_level_pct == 100.0
        assert coarse.mean_user_level_pct is not None

    def test_aggregate_event_log_bad_location_is_typed(self, tmp_path):
        events = tmp_path / "gps.csv"
        events.write_text("user,timestamp,location\nu0,100,39.9;116.3\nu0,1100,39.9;116.3\n")
        cfg = ExperimentConfig(
            scenario="aggregate",
            params={"event_log": str(events), "boundary": 1000, "cell_sides": [100.0]},
        )
        with pytest.raises(HistmatchError, match=re.escape("expected 'lat,lon', got '39.9;116.3'")):
            run_experiment(cfg)

    def test_aggregate_event_log_cell_index_overflow_is_typed(self, tmp_path):
        events = tmp_path / "gps.csv"
        events.write_text('user,timestamp,location\nu0,100,"1e308,116.3"\nu0,1100,"39.9,116.3"\n')
        cfg = ExperimentConfig(
            scenario="aggregate",
            params={"event_log": str(events), "boundary": 1000, "cell_sides": [100.0]},
        )
        with pytest.raises(InvalidCoordinateError, match=re.escape("cell index of (1e+308, 116.3) overflows")):
            run_experiment(cfg)

    @staticmethod
    def _small_gps_log(tmp_path):
        events = tmp_path / "gps.csv"
        rows = [f'u{u},{t},"{39.9 + 0.01 * u},116.3"' for u in range(3) for t in (100, 1100)]
        events.write_text("user,timestamp,location\n" + "\n".join(rows) + "\n")
        return events

    def test_event_log_read_once(self, tmp_path, monkeypatch):
        from histmatch import io as hio

        events = self._small_gps_log(tmp_path)
        calls = []
        read = hio.read_event_log
        monkeypatch.setattr(hio, "read_event_log", lambda path: calls.append(path) or read(path))
        cfg = ExperimentConfig(
            scenario="aggregate",
            repetitions=3,
            params={"event_log": str(events), "boundary": 1000, "cell_sides": [100.0, 100000.0]},
        )
        report = run_experiment(cfg)
        assert len(report.rows) == 2
        assert calls == [str(events)]

    def test_event_log_solved_once_per_cell_side(self, tmp_path, monkeypatch):
        from histmatch import harness

        events = self._small_gps_log(tmp_path)
        params = {"event_log": str(events), "boundary": 1000, "cell_sides": [100.0, 100000.0]}
        once = run_experiment(ExperimentConfig(scenario="aggregate", repetitions=1, params=params))
        calls = []
        solve = harness._solve_all
        monkeypatch.setattr(harness, "_solve_all", lambda *args, **kw: calls.append(args) or solve(*args, **kw))
        report = run_experiment(ExperimentConfig(scenario="aggregate", repetitions=3, params=params))
        # an observed instance is the same in every repetition, so each cell side is solved once
        assert len(calls) == 2
        assert self._strip_timings(report.rows) == self._strip_timings(once.rows)
        assert all(row.repetitions == 1 for row in report.rows)

    def test_kanon_packs_each_set_once(self, monkeypatch):
        packed = []
        pack = HistogramSet.row_classes.func
        monkeypatch.setattr(HistogramSet.row_classes, "func", lambda hset: packed.append(hset) or pack(hset))
        params = {"k_values": [3], "n_users": 30, "alphabet_size": 50, "t": 40}
        for metrics in (["proposed"], ["proposed", "l1", "cosine", "dot"]):
            packed.clear()
            run_experiment(ExperimentConfig(scenario="kanon", metrics=metrics, repetitions=1, params=params))
            # the released set and the right set; the left set is read as rows only
            assert len(packed) == len({id(hset) for hset in packed}) == 2

    def test_aggregate_event_log_requires_fields(self, tmp_path):
        # checked when the config is built, before the log is read
        with pytest.raises(ConfigError, match="requires 'boundary'"):
            ExperimentConfig(
                scenario="aggregate",
                params={"event_log": str(tmp_path / "x.csv"), "cell_sides": [100.0]},
            )

    def test_report_files(self, tmp_path):
        cfg = ExperimentConfig(scenario="vary_n", repetitions=2, seed=2, params={"n_values": [8]})
        report = run_experiment(cfg, out_dir=tmp_path)
        results = tmp_path / "results.csv"
        metadata = tmp_path / "metadata.json"
        assert results.exists() and metadata.exists()
        header = results.read_text().splitlines()[0]
        assert header.startswith("scenario,param,value,metric,algorithm")
        meta = json.loads(metadata.read_text())
        assert meta["generator"] == "numpy-pcg64"
        assert meta["config"]["seed"] == 2
        assert meta["bootstrap"] == {"resamples": 1000, "confidence": 0.90}

    def test_report_cell_format(self, tmp_path):
        cfg = ExperimentConfig(
            scenario="kanon", repetitions=2, seed=4, params={"k_values": [3], "n_users": 12, "alphabet_size": 30, "t": 40}
        )
        report = run_experiment(cfg)
        row = report.rows[0]
        # a row without the kanon fields, as every other scenario has them
        report.rows.append(replace(row, mean_cluster_level_pct=None, mean_information_loss=None, kanon_ok=None))
        report.write(tmp_path)
        with open(tmp_path / "results.csv", newline="", encoding="utf-8") as fh:
            kanon, plain = csv.DictReader(fh)
        for name in ("mean_user_level_pct", "ci90_low", "ci90_high", "mean_percentage_accuracy", "mean_cluster_level_pct"):
            assert kanon[name] == f"{getattr(row, name):.1f}"
            assert re.fullmatch(r"\d+\.\d", kanon[name])
        assert kanon["mean_information_loss"] == f"{row.mean_information_loss:.4f}"
        assert re.fullmatch(r"0\.\d{4}", kanon["mean_information_loss"])
        assert kanon["mean_correct"] == f"{row.mean_correct:.2f}"
        assert re.fullmatch(r"\d+\.\d\d", kanon["mean_correct"])
        assert (kanon["value"], kanon["repetitions"], kanon["kanon_ok"]) == ("3", "2", "True")
        assert (plain["mean_cluster_level_pct"], plain["mean_information_loss"], plain["kanon_ok"]) == ("", "", "")
        assert json.loads((tmp_path / "metadata.json").read_text(encoding="utf-8")) == report.metadata


class TestPaperStyleProperties:
    def test_a2_percentage_beats_a1_on_average(self):
        # partial-overlap scenarios: matching only the overlap improves the
        # fraction of correct matches, at the cost of fewer raw correct pairs
        a1_pct, a2_pct, a1_corr, a2_corr = [], [], [], []
        for seed in range(20):
            spec = OverlapSpec(40, 40, 30)
            pop = sample_population(PopulationSpec(spec.population_needed, 60, 1.0, seed))
            left, right, truth = generate_pair(pop, 30, 30, spec, seed)
            inst = build_instance(left, right, MetricKind.PROPOSED)
            r1 = user_level_accuracy(match_min_weight(inst), truth, left, right)
            r2 = user_level_accuracy(match_cardinality(inst, 30), truth, left, right)
            a1_pct.append(r1.percentage_accuracy)
            a2_pct.append(r2.percentage_accuracy)
            a1_corr.append(r1.n_correct)
            a2_corr.append(r2.n_correct)
        assert np.mean(a2_pct) >= np.mean(a1_pct)
        assert np.mean(a1_corr) >= np.mean(a2_corr)

    def test_metric_ordering_on_average(self):
        sums = {k: 0.0 for k in MetricKind}
        runs = 50
        for seed in range(runs):
            pop = sample_population(PopulationSpec(40, 50, 1.0, seed))
            left, right, truth = generate_pair(pop, 50, 50, OverlapSpec.full(40), seed)
            for kind in MetricKind:
                inst = build_instance(left, right, kind)
                res = match_min_weight(inst)
                sums[kind] += user_level_accuracy(res, truth, left, right).user_level_pct
        proposed = sums[MetricKind.PROPOSED] / runs
        for kind in (MetricKind.L1, MetricKind.COSINE, MetricKind.DOT):
            assert proposed >= sums[kind] / runs

    def test_identity_result_on_identical_sets_is_100(self):
        left, right, truth = point_sets(5)
        inst = build_instance(left, right, MetricKind.PROPOSED)
        res = match_min_weight(inst)
        report = user_level_accuracy(res, truth, left, right)
        assert report.user_level_pct == 100.0
