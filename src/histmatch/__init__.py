"""Identify users across independently collected datasets by matching their
behavior histograms, and evaluate privacy defenses against that attack."""

from .anonymize import ClusterPartition, information_loss, microaggregate, verify_k_anonymity
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
from .harness import (
    AccuracyReport,
    ExperimentConfig,
    ExperimentReport,
    bootstrap_ci,
    cluster_level_accuracy,
    run_experiment,
    user_level_accuracy,
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
