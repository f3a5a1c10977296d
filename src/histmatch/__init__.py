"""Identify users across independently collected datasets by matching their
behavior histograms, and evaluate privacy defenses against that attack."""

import importlib

from .core import (
    EventLog,
    GroundTruth,
    Histogram,
    HistogramSet,
    aggregate_locations,
    build_histogram,
    filter_active_users,
    histograms_by_user,
    quantize_geo,
    split_by_period,
    suppress_and_renormalize,
)
from .errors import (
    ConfigError,
    EmptyStringError,
    FileFormatError,
    HistmatchError,
    InvalidCardinalityError,
    InvalidCoordinateError,
    InvalidKError,
    InvalidOverlapError,
    InvalidPopulationError,
    MetricMismatchError,
    PartitionCoverageError,
    SwapSidesError,
    TooLargeForOracleError,
    ZeroMassAfterSuppressionError,
)
from .matcher import (
    BipartiteInstance,
    MatchResult,
    build_instance,
    generalized_log_likelihood,
    match_bruteforce,
    match_cardinality,
    match_greedy,
    match_min_weight,
)
from .metrics import (
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
from .synth import (
    GENERATOR_NAME,
    OverlapSpec,
    PopulationSpec,
    generate_pair,
    location_ids,
    sample_population,
    seeded_generator,
)

__version__ = "0.1.0"

# Loaded on first use (PEP 562), so a process that only synthesizes or matches never imports them.
_LAZY = dict.fromkeys(["anonymize", "ClusterPartition", "information_loss", "microaggregate", "verify_k_anonymity"], "anonymize")
_LAZY.update(dict.fromkeys(["harness", "AccuracyReport", "ExperimentConfig", "ExperimentReport", "bootstrap_ci",
                            "cluster_level_accuracy", "run_experiment", "user_level_accuracy"], "harness"))


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    globals()[name] = value = module if name == _LAZY[name] else getattr(module, name)
    return value
