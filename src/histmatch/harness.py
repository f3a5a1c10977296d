"""Accuracy metrics and seeded experiment protocols.

``user_level_accuracy`` scores a matching against ground truth two ways: over
the number of common users, and over the size of the output matching (the
"percentage accuracy" relevant when matching only r of N users).
``cluster_level_accuracy`` instead credits a match whenever the matched left
owner's cluster centroid equals the true left owner's cluster centroid.

``run_experiment`` drives the standard protocols on synthetic populations:
varying the number of users, varying string length, partial overlap (exact
maximal matching vs. fixed-cardinality matching), location aggregation,
suppression of unpopular locations, and micro-aggregation sweeps.  Every
synthetic grid point is repeated with derived seeds (an event log's grid point
runs once) and reported with a mean and a 90% bootstrap confidence interval.
"""
from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import io as hio
from .anonymize import ClusterPartition, information_loss, microaggregate, verify_k_anonymity
from .core import (
    EventLog,
    GroundTruth,
    HistogramSet,
    aggregate_locations,
    filter_active_users,
    histograms_by_user,
    parse_latlon,
    quantize_geo,
    split_by_period,
    suppress_and_renormalize,
)
from .errors import ConfigError, PartitionCoverageError
from .matcher import MatchResult, build_instance, match_cardinality, match_min_weight
from .metrics import MetricKind
from .synth import GENERATOR_NAME, OverlapSpec, PopulationSpec, generate_pair, location_ids, sample_population, seeded_generator

BOOTSTRAP_RESAMPLES = 1000
BOOTSTRAP_CONFIDENCE = 0.90


@dataclass
class AccuracyReport:
    """Counts and percentages of a matching scored against ground truth."""

    n_common: int
    n_correct: int
    user_level_pct: float | None
    percentage_accuracy: float | None

    def __post_init__(self):
        if self.n_correct > self.n_common:
            raise ValueError("more correct matches than common users")
        for pct in (self.user_level_pct, self.percentage_accuracy):
            if pct is not None and not 0.0 <= pct <= 100.0:
                raise ValueError(f"percentage {pct!r} outside [0, 100]")


def user_level_accuracy(
    result: MatchResult,
    truth: GroundTruth,
    left: HistogramSet,
    right: HistogramSet,
) -> AccuracyReport:
    """Count matched pairs that agree with the ground truth.

    ``user_level_pct`` divides by the number of common users (None when the
    truth is empty); ``percentage_accuracy`` divides by the size of the output
    matching.
    """
    correct = 0
    for i, j, _ in result.pairs:
        if truth.mapping.get(left.owners[i]) == right.owners[j]:
            correct += 1
    n_common = len(truth)
    return AccuracyReport(
        n_common=n_common,
        n_correct=correct,
        user_level_pct=100.0 * correct / n_common if n_common else None,
        percentage_accuracy=100.0 * correct / len(result.pairs) if result.pairs else None,
    )


def cluster_level_accuracy(
    result: MatchResult,
    truth: GroundTruth,
    partition: ClusterPartition,
    left: HistogramSet,
    right: HistogramSet,
) -> float | None:
    """Share of common users whose matched left owner has the same cluster
    centroid as their true left owner."""
    if len(truth) == 0:
        return None
    cluster_of, centroids = partition.cluster_of, partition.centroids
    inverse = truth.inverse
    correct = 0
    for i, j, _ in result.pairs:
        true_left = inverse.get(right.owners[j])
        if true_left is None:
            continue
        matched_left = left.owners[i]
        if matched_left not in cluster_of or true_left not in cluster_of:
            raise PartitionCoverageError("partition does not cover the left set")
        a, b = cluster_of[matched_left], cluster_of[true_left]
        if a == b or centroids[a].mass == centroids[b].mass:
            correct += 1
    return 100.0 * correct / len(truth)


def bootstrap_ci(values, seed: int = 0) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for the mean of ``values``: the
    ``BOOTSTRAP_CONFIDENCE`` interval over ``BOOTSTRAP_RESAMPLES`` resampled means."""
    arr = np.asarray([v for v in values if v is not None], dtype=float)
    if arr.size == 0:
        return (float("nan"), float("nan"))
    if arr.size == 1:
        return (float(arr[0]), float(arr[0]))
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(BOOTSTRAP_RESAMPLES, arr.size))
    means = arr[idx].mean(axis=1)
    alpha = 100.0 * (1.0 - BOOTSTRAP_CONFIDENCE) / 2.0
    low, high = np.percentile(means, [alpha, 100.0 - alpha])
    return float(low), float(high)


class _Scenario(NamedTuple):
    param: str  # the results column that holds the grid value
    grid_key: str  # the params key that lists the grid values
    defaults: dict


_SCENARIOS: dict[str, _Scenario] = {
    "vary_n": _Scenario("n", "n_values", {
        "n_values": [10, 50, 100], "alphabet_size": 100, "concentration": 1.0, "t": 40,
    }),
    "vary_t": _Scenario("t", "t_values", {
        "t_values": [50, 200, 800], "n_users": 100, "alphabet_size": 100, "concentration": 1.0,
    }),
    "overlap": _Scenario("r", "r_values", {
        "r_values": [150], "n_left": 200, "n_right": 200, "alphabet_size": 100, "concentration": 1.0,
        "t": 60,
    }),
    "aggregate": _Scenario("groups", "group_counts", {
        "group_counts": [100, 20, 5], "n_users": 100, "alphabet_size": 100, "concentration": 1.0,
        "t": 100,
    }),
    "suppress": _Scenario("keep", "keep_sizes", {
        "keep_sizes": [200, 50, 10], "n_users": 100, "alphabet_size": 200, "concentration": 0.1,
        "t": 200,
    }),
    "kanon": _Scenario("k", "k_values", {
        "k_values": [1, 2, 5, 10], "n_users": 100, "alphabet_size": 200, "concentration": 0.1,
        "t": 500,
    }),
}
SCENARIOS = tuple(_SCENARIOS)

_CONFIG_TYPES = {"scenario": str, "metrics": list, "repetitions": int, "seed": int, "params": dict, "workers": int}
_EVENT_LOG_TYPES = {"event_log": str, "boundary": int, "geo_origin": list, "cell_sides": list}
_POSITIVE_PARAMS = ("t", "n_users", "n_left", "n_right", "alphabet_size", "concentration")


def _is(value, kind: type) -> bool:
    """``isinstance``, except that a float field also takes an int and a bool is never a number."""
    return isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool)


def _require_type(name: str, value, kind: type) -> None:
    if not _is(value, kind):
        raise ConfigError(f"{name} must be of type {kind.__name__}, got {type(value).__name__}")


@dataclass
class ExperimentConfig:
    """Scenario tag plus metric list, repetition count, seed, and grid parameters."""

    scenario: str
    metrics: list[str] = field(default_factory=lambda: ["proposed"])
    repetitions: int = 20
    seed: int = 0
    params: dict = field(default_factory=dict)
    workers: int = 1

    def __post_init__(self):
        for name, kind in _CONFIG_TYPES.items():
            _require_type(name, getattr(self, name), kind)
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}")
        for name in ("repetitions", "workers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if not self.metrics:
            raise ConfigError("metrics must not be empty")
        for token in self.metrics:
            try:
                MetricKind.from_token(token)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        self._check_params()
        points = len(self.merged_params()[_SCENARIOS[self.scenario].grid_key])
        if self.repetitions > sys.maxsize // points:
            raise ConfigError(f"{points} grid points x {self.repetitions} repetitions exceeds sys.maxsize ({sys.maxsize}) runs")

    def _check_params(self) -> None:
        """Each ``params`` key is one the scenario reads, of its default's type; sizes, string
        lengths and the concentration are positive and finite; each grid is a non-empty list of
        positive ints (finite numbers for ``cell_sides``); ``geo_origin`` holds two finite numbers;
        an event log needs both its fields."""
        scenario = _SCENARIOS[self.scenario]
        types = {key: type(default) for key, default in scenario.defaults.items()}
        if self.scenario == "aggregate":
            types.update(_EVENT_LOG_TYPES)
        grids = {scenario.grid_key: (int, "ints"), "cell_sides": (float, "numbers, all finite")}
        for key, value in self.params.items():
            if key not in types:
                raise ConfigError(f"unknown param {key!r} for scenario {self.scenario!r}")
            if key not in grids:
                _require_type(key, value, types[key])
            elif not (_is(value, list) and value and all(_is(v, grids[key][0]) and 0 < v < math.inf for v in value)):
                raise ConfigError(f"{key} must be a non-empty list of positive {grids[key][1]}")
            if key in _POSITIVE_PARAMS and not 0 < value < math.inf:
                raise ConfigError(f"{key} must be positive and finite, got {value!r}")
            if key == "geo_origin" and (len(value) != 2 or not all(_is(v, float) and math.isfinite(v) for v in value)):
                raise ConfigError("geo_origin must be a list of two numbers, both finite")
        if self.params.get("event_log"):
            for key in ("cell_sides", "boundary"):
                if key not in self.params:
                    raise ConfigError(f"aggregate over an event_log requires {key!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "scenario" not in data:
            raise ConfigError("config requires a 'scenario'")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc})") from None
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return asdict(self)

    def merged_params(self) -> dict:
        merged = dict(_SCENARIOS[self.scenario].defaults)
        merged.update(self.params)
        return merged


@dataclass
class ExperimentRow:
    """A ``results.csv`` row; a cell is its field's ``format`` metadata applied, or ``str``; None is empty."""

    scenario: str
    param: str
    value: object
    metric: str
    algorithm: str
    repetitions: int
    mean_user_level_pct: float | None = field(metadata={"format": "{:.1f}"})
    ci90_low: float = field(metadata={"format": "{:.1f}"})
    ci90_high: float = field(metadata={"format": "{:.1f}"})
    mean_percentage_accuracy: float | None = field(metadata={"format": "{:.1f}"})
    mean_correct: float = field(metadata={"format": "{:.2f}"})
    mean_cluster_level_pct: float | None = field(default=None, metadata={"format": "{:.1f}"})
    mean_information_loss: float | None = field(default=None, metadata={"format": "{:.4f}"})
    kanon_ok: bool | None = None
    mean_weights_ms: float = field(default=0.0, metadata={"format": "{:.3f}"})
    mean_solve_ms: float = field(default=0.0, metadata={"format": "{:.3f}"})


def _cell(f, value) -> str:
    return "" if value is None else f.metadata.get("format", "{}").format(value)


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list[ExperimentRow]
    metadata: dict

    def write(self, out_dir: str | Path) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        results = out / "results.csv"
        cells = ([_cell(f, getattr(row, f.name)) for f in fields(ExperimentRow)] for row in self.rows)
        hio.write_rows(results, [f.name for f in fields(ExperimentRow)], cells)
        hio.write_json(self.metadata, out / "metadata.json")
        return results

    def row(self, value, metric: str, algorithm: str) -> ExperimentRow:
        for r in self.rows:
            if r.value == value and r.metric == metric and r.algorithm == algorithm:
                return r
        raise KeyError((value, metric, algorithm))


def _rep_seed(seed: int, grid_index: int, rep: int) -> int:
    ss = np.random.SeedSequence((seed & 0xFFFF_FFFF_FFFF_FFFF, grid_index, rep))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _solve_all(left, right, truth, metrics, r=None, partition=None) -> dict:
    """Score A1, and A2 at cardinality ``r`` when one is given, under each metric.

    Each payload is keyed by (metric, algorithm) and names its scores as the
    ``ExperimentRow`` fields without their ``mean_`` prefix.  With a
    ``partition`` the cluster-level accuracy is scored too.  An empty side (a
    suppression that kept no truth pair) scores as an empty matching.
    """
    payloads: dict[tuple[str, str], dict] = {}
    for token in metrics:
        t0 = time.perf_counter()
        instance = build_instance(left, right, MetricKind.from_token(token)) if len(left) and len(right) else None
        weights_ms = 1000.0 * (time.perf_counter() - t0)
        runs = [("a1", match_min_weight, ())]
        if r is not None:
            runs.append(("a2", match_cardinality, (r,)))
        for algorithm, solve, extra in runs:
            t1 = time.perf_counter()
            result = solve(instance, *extra) if instance is not None else MatchResult((), algorithm)
            solve_ms = 1000.0 * (time.perf_counter() - t1)
            report = user_level_accuracy(result, truth, left, right)
            payload = payloads[token, algorithm] = {
                "user_level_pct": report.user_level_pct,
                "percentage_accuracy": report.percentage_accuracy,
                "correct": report.n_correct,
                "weights_ms": weights_ms,
                "solve_ms": solve_ms,
            }
            if partition is not None:
                payload["cluster_level_pct"] = cluster_level_accuracy(result, truth, partition, left, right)
    return payloads


def _aggregation_mapping(alphabet_size: int, groups: int, seed: int) -> dict[str, str]:
    ids = location_ids(alphabet_size)
    perm = seeded_generator(seed, 7001, groups).permutation(alphabet_size)
    return {ids[int(p)]: f"g{pos % groups}" for pos, p in enumerate(perm)}


def _aggregate_set(hset: HistogramSet, mapping: dict[str, str]) -> HistogramSet:
    return HistogramSet(tuple((o, aggregate_locations(h, mapping)) for o, h in hset.entries))


def _most_popular(hset: HistogramSet, size: int) -> set[str]:
    """The ``size`` locations with the most total mass in the set, ties by id."""
    rows = hset.rows
    mass = np.bincount(rows.indices, weights=rows.data, minlength=rows.shape[1])
    popularity = dict(zip(hset.locations, mass.tolist()))
    return set(sorted(popularity, key=lambda loc: (-popularity[loc], loc))[:size])


def _suppress_sets(left, right, truth, keep: set[str]):
    """Suppress both sides to the truth pairs whose two owners both keep some
    mass, so the scenario stays a clean full-overlap instance."""
    kept = GroundTruth(mapping={
        a: b for a, b in truth.mapping.items()
        if not (keep.isdisjoint(left.histogram(a).mass) or keep.isdisjoint(right.histogram(b).mass))
    })

    def suppress(hset, owners):
        return HistogramSet(tuple((o, suppress_and_renormalize(h, keep)) for o, h in hset.entries if o in owners))

    return suppress(left, kept.mapping), suppress(right, kept.inverse), kept


def _event_log_sets(log: EventLog, params: dict, cell_side: float):
    """Real-data path: event log -> quantized periods -> active-user histograms.

    The truth is the identity map over users active in both periods.  Used by
    the aggregate scenario when an ``event_log`` path is configured, with the
    grid over quantization cell sides.
    """
    origin = tuple(params.get("geo_origin", (0.0, 0.0)))
    cells = tuple(quantize_geo(*parse_latlon(loc), cell_side, origin) for loc in log.locations)
    first, second = split_by_period(replace(log, locations=cells), params["boundary"])
    active = filter_active_users(first, second)
    left = histograms_by_user(first, users=active)
    right = histograms_by_user(second, users=active)
    truth = GroundTruth(mapping={u: u for u in left.owners})
    return left, right, truth


def _rep_task(args: tuple) -> dict:
    """One repetition at one grid point; self-contained and picklable.

    The event-log path hands in its grid point's sets as ``observed``.  Every
    synthetic scenario draws a population and a pair of sets; the grid value
    sets N, t or r, or the size of the scenario's own step after that.
    """
    scenario, params, metrics, value, rep_seed, config_seed, observed = args
    if observed is not None:
        return _solve_all(*observed, metrics)

    if scenario == "overlap":
        spec = OverlapSpec(params["n_left"], params["n_right"], value)
    else:
        spec = OverlapSpec.full(value if scenario == "vary_n" else params["n_users"])
    t = value if scenario == "vary_t" else params["t"]
    # No name keeps the population, so it is freed once the pair is drawn.
    population_spec = PopulationSpec(spec.population_needed, params["alphabet_size"], params["concentration"], rep_seed)
    left, right, truth = generate_pair(sample_population(population_spec), t, t, spec, rep_seed)

    if scenario == "overlap":
        return _solve_all(left, right, truth, metrics, r=value)
    if scenario == "aggregate":
        mapping = _aggregation_mapping(params["alphabet_size"], value, config_seed)
        left, right = _aggregate_set(left, mapping), _aggregate_set(right, mapping)
    elif scenario == "suppress":
        left, right, truth = _suppress_sets(left, right, truth, _most_popular(right, value))
    elif scenario == "kanon":
        partition, released = microaggregate(left, value)
        loss = information_loss(partition, left)
        valid = verify_k_anonymity(released, value)
        payloads = _solve_all(released, right, truth, metrics, partition=partition)
        for payload in payloads.values():
            payload.update(information_loss=loss, kanon_ok=bool(valid))
        return payloads
    return _solve_all(left, right, truth, metrics)


def _mean(values) -> float | None:
    xs = [v for v in values if v is not None]
    return float(np.mean(xs)) if xs else None


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentReport:
    """Run every grid point of a scenario ``repetitions`` times, an event log's once.

    Returns the per-point means with 90% bootstrap confidence intervals on the
    user-level accuracy; when ``out_dir`` is given, also writes ``results.csv``
    and ``metadata.json`` there.
    """
    params = config.merged_params()
    param_name, grid_key, _ = _SCENARIOS[config.scenario]
    event_log = params.get("event_log")
    if event_log:
        param_name, grid_key = "cell_side", "cell_sides"
    values = params[grid_key]
    observed = [None] * len(values)
    if event_log:
        log = hio.read_event_log(event_log)
        observed = [_event_log_sets(log, params, float(value)) for value in values]
    repetitions = 1 if event_log else config.repetitions  # observed sets never vary

    tasks = (
        (config.scenario, params, tuple(config.metrics), value, _rep_seed(config.seed, gi, rep), config.seed, observed[gi])
        for gi, value in enumerate(values)
        for rep in range(repetitions)
    )
    if config.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.workers) as executor:
            outcomes = list(executor.map(_rep_task, tasks))
    else:
        outcomes = list(map(_rep_task, tasks))

    rows: list[ExperimentRow] = []
    for gi, value in enumerate(values):
        reps = outcomes[gi * repetitions : (gi + 1) * repetitions]
        for ki, (token, algorithm) in enumerate(reps[0]):
            series = [rep[token, algorithm] for rep in reps]
            folded = {f"mean_{k}": _mean(s[k] for s in series) for k in series[0] if k != "kanon_ok"}
            if "kanon_ok" in series[0]:
                folded["kanon_ok"] = all(s["kanon_ok"] for s in series)
            seed = _rep_seed(config.seed, 10_000 + gi, ki)
            low, high = bootstrap_ci([s["user_level_pct"] for s in series], seed=seed)
            label = algorithm if algorithm != "a2" else f"a2({value})"
            rows.append(ExperimentRow(
                config.scenario, param_name, value, token, label, repetitions, ci90_low=low, ci90_high=high, **folded
            ))

    from histmatch import __version__

    metadata = {
        "config": config.to_dict(),
        "resolved_params": params,
        "generator": GENERATOR_NAME,
        "bootstrap": {"resamples": BOOTSTRAP_RESAMPLES, "confidence": BOOTSTRAP_CONFIDENCE},
        "version": __version__,
    }
    report = ExperimentReport(config=config, rows=rows, metadata=metadata)
    if out_dir is not None:
        report.write(out_dir)
    return report
