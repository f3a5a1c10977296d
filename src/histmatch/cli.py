"""Command-line interface.

Subcommands: ``ingest`` (event CSV -> two histogram CSVs), ``match`` (two
histogram CSVs -> matching CSV + JSON summary), ``anonymize`` (histogram CSV
-> released CSV + partition JSON), ``synth`` (generate synthetic histogram
sets with ground truth), ``experiment`` (run a JSON-configured protocol).

Exit code 0 on success; on failure a machine-readable JSON error object is
written to stderr and the exit code is nonzero.
"""
from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import io as hio
from .anonymize import information_loss, microaggregate
from .core import (
    HistogramSet,
    aggregate_locations,
    filter_active_users,
    histograms_by_user,
    parse_latlon,
    quantize_geo,
    split_by_period,
)
from .errors import HistmatchError, InvalidCoordinateError, InvalidOverlapError
from .harness import ExperimentConfig, run_experiment
from .matcher import (
    build_instance,
    match_bruteforce,
    match_cardinality,
    match_greedy,
    match_min_weight,
)
from .metrics import MetricKind
from .synth import GENERATOR_NAME, OverlapSpec, PopulationSpec, generate_pair, sample_population


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _check_output_files(*paths: str | None) -> None:
    """Fail before any work, as opening would, when an output file is a directory or lies in a missing one."""
    for path in filter(None, paths):
        if Path(path).is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(2)


def _cmd_ingest(args) -> int:
    if args.geo_grid is not None and not 0 < args.geo_grid < math.inf:
        raise ValueError(f"cell_side must be positive and finite, got {args.geo_grid!r}")
    origin = parse_latlon(args.geo_origin) if args.geo_grid is not None else None
    if origin is not None and not all(map(math.isfinite, origin)):
        raise InvalidCoordinateError(f"non-finite --geo-origin {args.geo_origin!r}")
    log = hio.read_event_log(args.events)
    if origin is not None:
        cells = tuple(quantize_geo(*parse_latlon(loc), args.geo_grid, origin) for loc in log.locations)
        log = replace(log, locations=cells)
    first, second = split_by_period(log, args.boundary)
    active = filter_active_users(first, second)
    left = histograms_by_user(first, users=active)
    right = histograms_by_user(second, users=active)
    if args.aggregate_table:
        table = hio.read_aggregation_table(args.aggregate_table)
        left = HistogramSet(tuple((o, aggregate_locations(h, table)) for o, h in left.entries))
        right = HistogramSet(tuple((o, aggregate_locations(h, table)) for o, h in right.entries))
    hio.write_histogram_set(left, args.out_left)
    hio.write_histogram_set(right, args.out_right)
    print(json.dumps({
        "records": len(log),
        "active_users": len(active),
        "left": args.out_left,
        "right": args.out_right,
    }))
    return 0


def _cmd_match(args) -> int:
    name, colon, r_text = args.algorithm.lower().partition(":")
    solvers = {"a1": match_min_weight, "a2:": match_cardinality, "greedy": match_greedy,
               "brute": match_bruteforce, "brute:": match_bruteforce}
    solve = solvers.get(name + colon)
    try:
        extra = (int(r_text),) if colon else ()
    except ValueError:
        solve = None
    if solve is None:
        _emit_error("usage", f"unknown algorithm {args.algorithm!r}; use a1, a2:<r>, greedy or brute")
        return 2
    left = hio.read_histogram_set(args.left)
    right = hio.read_histogram_set(args.right)
    metric = MetricKind.from_token(args.metric)
    t0 = time.perf_counter()
    instance = build_instance(left, right, metric)
    t1 = time.perf_counter()
    result = solve(instance, *extra)
    t2 = time.perf_counter()

    runtime_ms = {"weights": 1000.0 * (t1 - t0), "solve": 1000.0 * (t2 - t1)}
    hio.write_match_result(result, instance, args.out_pairs)
    summary = hio.match_summary(result, runtime_ms)
    if args.out_summary:
        hio.write_json(summary, args.out_summary)
    print(json.dumps(summary))
    return 0


def _cmd_anonymize(args) -> int:
    histograms = hio.read_histogram_set(args.input)
    partition, released = microaggregate(histograms, args.k)
    loss = information_loss(partition, histograms)
    hio.write_histogram_set(released, args.out_released)
    if args.out_partition:
        hio.write_partition(partition, loss, args.out_partition)
    print(json.dumps({"k": partition.k_achieved, "g": partition.g, "L": loss}))
    return 0


def _cmd_synth(args) -> int:
    n_left = args.users if args.n_left is None else args.n_left
    n_right = args.users if args.n_right is None else args.n_right
    if min(n_left, n_right) < 1:
        raise InvalidOverlapError(f"each side needs at least one user, got n_left={n_left}, n_right={n_right}")
    r = args.overlap if args.overlap is not None else min(n_left, n_right)
    overlap = OverlapSpec(n_left=n_left, n_right=n_right, r=r)
    spec = PopulationSpec(
        n_users=overlap.population_needed,
        alphabet_size=args.alphabet,
        concentration=args.alpha,
        seed=args.seed,
    )
    # No name keeps the population, so it is freed once the pair is drawn.
    left, right, truth = generate_pair(sample_population(spec), args.t1, args.t2, overlap, seed=args.seed)
    hio.write_histogram_set(left, args.out_left)
    hio.write_histogram_set(right, args.out_right)
    if args.out_truth:
        hio.write_truth(truth, args.out_truth)
    meta = {
        "population": spec.n_users,
        "alphabet_size": spec.alphabet_size,
        "concentration": spec.concentration,
        "seed": args.seed,
        "t1": args.t1,
        "t2": args.t2,
        "n_left": n_left,
        "n_right": n_right,
        "overlap": r,
        "generator": GENERATOR_NAME,
    }
    if args.out_meta:
        hio.write_json(meta, args.out_meta)
    print(json.dumps(meta))
    return 0


def _cmd_experiment(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    report = run_experiment(config, out_dir=args.out_dir)
    print(json.dumps({"rows": len(report.rows), "out_dir": args.out_dir}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="histmatch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="event CSV -> per-period histogram CSVs")
    p.add_argument("--events", required=True)
    p.add_argument("--boundary", type=int, required=True, help="epoch-second period split")
    p.add_argument("--out-left", required=True)
    p.add_argument("--out-right", required=True)
    p.add_argument("--geo-grid", type=float, default=None, metavar="METERS",
                   help="treat the location column as 'lat,lon' and quantize to a grid")
    p.add_argument("--geo-origin", default="0,0", metavar="LAT,LON")
    p.add_argument("--aggregate-table", default=None)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("match", help="match two histogram CSVs")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--metric", default="proposed", type=str.lower, choices=[k.value for k in MetricKind])
    p.add_argument("--algorithm", default="a1", help="a1 | a2:<r> | greedy | brute[:r]")
    p.add_argument("--out-pairs", required=True)
    p.add_argument("--out-summary", default=None)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("anonymize", help="micro-aggregate a histogram CSV to k-anonymity")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out-released", required=True)
    p.add_argument("--out-partition", default=None)
    p.set_defaults(func=_cmd_anonymize)

    p = sub.add_parser("synth", help="generate synthetic histogram sets with ground truth")
    p.add_argument("--users", type=int, default=100)
    p.add_argument("--alphabet", type=int, default=200)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--t1", type=int, default=500)
    p.add_argument("--t2", type=int, default=500)
    p.add_argument("--n-left", type=int, default=None)
    p.add_argument("--n-right", type=int, default=None)
    p.add_argument("--overlap", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-left", required=True)
    p.add_argument("--out-right", required=True)
    p.add_argument("--out-truth", default=None)
    p.add_argument("--out-meta", default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("experiment", help="run a JSON-configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # every --out-* option but --out-dir names an output file
        _check_output_files(*(v for k, v in vars(args).items() if k.startswith("out_") and k != "out_dir"))
        return args.func(args)
    except FileNotFoundError as exc:
        kind, message = "FileNotFound", str(exc)
    except (HistmatchError, OSError) as exc:
        kind, message = type(exc).__name__, str(exc)
    except ValueError as exc:
        kind, message = "ValueError", str(exc)
    except MemoryError as exc:
        kind, message = "MemoryError", str(exc) or "out of memory"
    _emit_error(kind, message)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
