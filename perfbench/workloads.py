"""The four benchmark workloads, their seeded inputs and their output checks.

Every workload uses M=1000 locations at Dirichlet concentration 1.0 with
t=200 samples per histogram (a mean support of about 167), or, for
``ingest_geo``, a synthetic GPS log of comparable density.  One *op* is one
repetition of the workload's unit of work; ``op(j)`` runs it on input ``j``
of the ``inputs`` distinct inputs the seed defines.

``observe`` checks one op's output and returns what must repeat exactly for
that input: the problem shape, each matching's total weight, the accuracy
users read and, for micro-aggregation, the information loss.
"""
from __future__ import annotations

import csv
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent

# Matched pairs whose weight is recomputed with the scalar pair_distance.
PAIR_SAMPLE = 24
PAIR_ATOL = 1e-9

CLI = [sys.executable, "-c", "import sys; from histmatch.cli import main; sys.exit(main())"]
OP_TIMEOUT_S = 120.0


def input_seed(seed: int, j: int) -> int:
    """Seed of the j-th distinct input of a run: disjoint across runs and inputs."""
    return (seed * 16 + j) & 0xFFFF_FFFF_FFFF_FFFF


# -- shapes and checks shared by the workloads ------------------------------

def set_shape(left_masses, right_masses) -> dict:
    """Counts that fix a weight kernel's work: sizes, nnz and co-occurrences
    sum_l |L_l| * |R_l| over the locations l both sides use."""
    lc = Counter(loc for mass in left_masses for loc in mass)
    rc = Counter(loc for mass in right_masses for loc in mass)
    n_left, n_right = len(left_masses), len(right_masses)
    nnz = sum(lc.values()) + sum(rc.values())
    return {
        "N": n_left,
        "N_right": n_right,
        "M": len(lc.keys() | rc.keys()),
        "nnz": nnz,
        "mean_support": nnz / (n_left + n_right),
        "cooccurrences": sum(c * rc.get(loc, 0) for loc, c in lc.items()),
    }


def check_pairs(pairs, n_left: int, n_right: int, cardinality: int, label: str) -> tuple[list[str], float]:
    """Injectivity, index range and cardinality of (i, j, weight) triples;
    also returns the pairs' total weight."""
    problems = []
    lefts = [p[0] for p in pairs]
    rights = [p[1] for p in pairs]
    if len(set(lefts)) != len(lefts) or len(set(rights)) != len(rights):
        problems.append(f"{label}: matching is not injective")
    if len(pairs) != cardinality:
        problems.append(f"{label}: {len(pairs)} pairs, expected {cardinality}")
    if lefts and not (0 <= min(lefts) and max(lefts) < n_left and 0 <= min(rights) and max(rights) < n_right):
        problems.append(f"{label}: index out of range")
    total = math.fsum(p[2] for p in pairs)
    if not all(math.isfinite(p[2]) for p in pairs):
        problems.append(f"{label}: non-finite pair weight")
    return problems, total


def check_pair_sample(pairs, left_mass, right_mass, kind, seed: int, label: str) -> list[str]:
    """Recompute a seeded sample of matched pairs with the scalar pair_distance."""
    from histmatch.metrics import pair_distance

    rng = random.Random(seed)
    sample = rng.sample(list(pairs), min(PAIR_SAMPLE, len(pairs)))
    problems = []
    for i, j, weight in sample:
        expected = pair_distance(kind, left_mass(i), right_mass(j))
        if not abs(expected - weight) <= PAIR_ATOL:
            problems.append(f"{label}: pair ({i}, {j}) weight {weight!r}, pair_distance gives {expected!r}")
            break
    return problems


# -- processes ----------------------------------------------------------------

class Processes:
    """Runs CLI commands as fresh processes and records each one's peak RSS."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root  # commands run here, with the worker's environment (src on the path)
        self.workdir = workdir
        self.dumps: list[dict] = []  # traced spans of every traced process

    def run(self, args: list[str], tag: str, trace_op: int | None = None) -> tuple[dict, int]:
        """Run ``histmatch <args>``; return its stdout JSON and peak RSS in KiB.

        With ``trace_op`` the command runs under traced_cli.py and its spans
        are kept under that op id.
        """
        out_path = self.workdir / f"{tag}.out"
        err_path = self.workdir / f"{tag}.err"
        spans_path = self.workdir / f"{tag}.spans.json"
        if trace_op is None:
            argv = CLI + args
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), str(trace_op)] + args
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=self.root)
            status, rss_kb = _wait(proc, OP_TIMEOUT_S)
        if status != 0:
            message = err_path.read_text(encoding="utf-8", errors="replace").strip()[-300:]
            raise RuntimeError(f"histmatch {args[0]} exited {status}: {message}")
        if trace_op is not None:
            with open(spans_path, encoding="utf-8") as fh:
                self.dumps.append(json.load(fh))
        lines = out_path.read_text(encoding="utf-8").strip().splitlines()
        return json.loads(lines[-1]), rss_kb


def _wait(proc: subprocess.Popen, timeout: float) -> tuple[int, int]:
    """Reap ``proc`` with wait4 to get its rusage; kill it after ``timeout``."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"process timed out after {timeout:.0f} s")
        time.sleep(0.002)


def read_masses(path: Path) -> dict[str, dict[str, float]]:
    """Histogram CSV -> {owner: {location: probability}}, in file order."""
    masses: dict[str, dict[str, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for owner, location, prob in reader:
            masses.setdefault(owner, {})[location] = float(prob)
    return masses


def read_pairs(path: Path) -> list[tuple[str, str, float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(a, b, float(w)) for a, b, w in reader]


def check_match_files(left_mass, right_mass, out: dict, seed: int, first: bool):
    """Check one ``histmatch match`` output (pairs file and summary) against
    its input histograms.  Returns the observation, the problems found and
    the matched (left owner, right owner, weight) rows."""
    from histmatch.metrics import MetricKind

    lefts, rights = list(left_mass), list(right_mass)
    li = {o: i for i, o in enumerate(lefts)}
    ri = {o: i for i, o in enumerate(rights)}
    named = read_pairs(out["pairs"])
    pairs = [(li.get(a, -1), ri.get(b, -1), w) for a, b, w in named]
    problems, total = check_pairs(pairs, len(lefts), len(rights), len(lefts), "A1")
    summary = out["summary"]
    if summary["cardinality"] != len(lefts):
        problems.append(f"summary cardinality {summary['cardinality']}, expected {len(lefts)}")
    if abs(summary["total_weight"] - total) > 1e-9:
        problems.append("summary total_weight disagrees with the pairs file")
    obs = {"total_weight": {"proposed|a1": summary["total_weight"]}}
    if first:
        obs["shape"] = set_shape(list(left_mass.values()), list(right_mass.values()))
        if not problems:
            problems += check_pair_sample(
                pairs, lambda i: left_mass[lefts[i]], lambda k: right_mass[rights[k]],
                MetricKind.PROPOSED, seed, "A1",
            )
    return obs, problems, named


# -- workloads -----------------------------------------------------------------

class Workload:
    name = ""
    inputs = 1  # distinct inputs per run, cycled over the ops
    in_process = False

    def __init__(self, seed: int, root: Path, workdir: Path, trace: bool):
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.trace = trace
        self.procs = Processes(root, workdir)
        self.tracer = tracing.Tracer() if trace else None

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, op_id: int, j: int, traced: bool):
        raise NotImplementedError

    def observe(self, j: int, out, first: bool) -> tuple[dict, list[str]]:
        raise NotImplementedError

    def trace_dumps(self) -> list[dict]:
        dumps = list(self.procs.dumps)
        if self.tracer is not None:
            dumps.append(self.tracer.dump())
        return dumps


class MatchCli(Workload):
    """``histmatch synth`` in set-up, then one fresh ``histmatch match`` per op."""

    name = "match_cli"
    users = 1000

    def setup(self) -> None:
        self.left = self.workdir / "left.csv"
        self.right = self.workdir / "right.csv"
        self.truth = self.workdir / "truth.csv"
        self.procs.run(
            ["synth", "--users", str(self.users), "--alphabet", "1000", "--alpha", "1.0",
             "--t1", "200", "--t2", "200", "--seed", str(input_seed(self.seed, 0)),
             "--out-left", str(self.left), "--out-right", str(self.right), "--out-truth", str(self.truth)],
            "synth", trace_op=-1 if self.trace else None,
        )

    def op(self, op_id, j, traced):
        pairs = self.workdir / f"pairs{op_id % 2}.csv"
        summary, rss_kb = self.procs.run(
            ["match", "--left", str(self.left), "--right", str(self.right), "--metric", "proposed",
             "--algorithm", "a1", "--out-pairs", str(pairs)],
            f"match{op_id}", trace_op=op_id if traced else None,
        )
        return {"summary": summary, "pairs": pairs, "rss_kb": rss_kb}

    def observe(self, j, out, first):
        if first:
            self.left_mass = read_masses(self.left)
            self.right_mass = read_masses(self.right)
            with open(self.truth, newline="", encoding="utf-8") as fh:
                self.truth_map = dict(list(csv.reader(fh))[1:])
        obs, problems, named = check_match_files(self.left_mass, self.right_mass, out, self.seed, first)
        correct = sum(self.truth_map.get(a) == b for a, b, _ in named)
        obs["accuracy_pct"] = 100.0 * correct / len(self.truth_map)
        return obs, problems


class IngestGeo(Workload):
    """A seeded GPS event log in set-up; per op ``histmatch ingest`` on the
    300 m grid with block aggregation, then ``histmatch match`` on its output."""

    name = "ingest_geo"
    users = 200
    events_per_side = 400
    places = 3000  # shared places, Zipf-popular
    own_places = 20  # each user's personal places
    own_share = 0.19  # share of a user's events at personal places
    side_m = 12_000.0
    jitter_m = 150.0
    grid_m = 300
    block_cells = 2  # a block is block_cells x block_cells grid cells
    origin = (39.9, 116.3)
    boundary = 1_000_000
    inputs = 3

    def setup(self) -> None:
        self.events = [self._write_events(j) for j in range(self.inputs)]
        cells = int(self.side_m // self.grid_m) + 6
        self.table = self.workdir / "blocks.csv"
        with open(self.table, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["from", "to"])
            b = self.block_cells
            writer.writerows(
                (f"{r}:{c}", f"b{r // b}:{c // b}") for r in range(-3, cells) for c in range(-3, cells)
            )

    def _write_events(self, j: int) -> Path:
        """Input j: every user has personal places and visits Zipf-popular
        shared ones; each event is a jittered visit, half before the boundary."""
        import numpy as np

        rng = np.random.default_rng([input_seed(self.seed, j), 7])
        lat0, lon0 = self.origin
        places = rng.uniform(0.0, self.side_m, size=(self.places, 2))
        popularity = 1.0 / np.arange(1, self.places + 1) ** 0.8
        popularity /= popularity.sum()
        m_per_deg_lat = math.radians(1.0) * 6_371_000.0
        m_per_deg_lon = m_per_deg_lat * math.cos(math.radians(lat0))
        path = self.workdir / f"events{j}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["user", "timestamp", "location"])
            for u in range(self.users):
                mine = rng.choice(self.places, size=self.own_places, replace=False, p=popularity)
                weights = rng.dirichlet(np.ones(self.own_places))
                for side in (0, 1):
                    n = self.events_per_side
                    own = rng.random(n) < self.own_share
                    where = np.where(
                        own, mine[rng.choice(self.own_places, size=n, p=weights)],
                        rng.choice(self.places, size=n, p=popularity),
                    )
                    xy = places[where] + rng.normal(0.0, self.jitter_m, size=(n, 2))
                    lat = lat0 + xy[:, 0] / m_per_deg_lat
                    lon = lon0 + xy[:, 1] / m_per_deg_lon
                    ts = rng.integers(side * self.boundary, (side + 1) * self.boundary, size=n)
                    user = f"user{u:04d}"
                    writer.writerows(
                        (user, int(t), f"{a:.6f},{b:.6f}") for t, a, b in zip(ts, lat, lon)
                    )
        return path

    def op(self, op_id, j, traced):
        trace_op = op_id if traced else None
        left = self.workdir / "ingest_left.csv"
        right = self.workdir / "ingest_right.csv"
        pairs = self.workdir / f"pairs{op_id % 2}.csv"
        ingest, rss_ingest = self.procs.run(
            ["ingest", "--events", str(self.events[j]), "--boundary", str(self.boundary),
             "--geo-grid", str(self.grid_m), "--geo-origin", f"{self.origin[0]},{self.origin[1]}",
             "--aggregate-table", str(self.table), "--out-left", str(left), "--out-right", str(right)],
            f"ingest{op_id}", trace_op=trace_op,
        )
        summary, rss_match = self.procs.run(
            ["match", "--left", str(left), "--right", str(right), "--metric", "proposed",
             "--algorithm", "a1", "--out-pairs", str(pairs)],
            f"match{op_id}", trace_op=trace_op,
        )
        return {"ingest": ingest, "summary": summary, "pairs": pairs, "left": left, "right": right,
                "rss_kb": max(rss_ingest, rss_match)}

    def observe(self, j, out, first):
        left_mass, right_mass = read_masses(out["left"]), read_masses(out["right"])
        obs, problems, named = check_match_files(left_mass, right_mass, out, self.seed, first)
        expected = {"records": 2 * self.users * self.events_per_side, "active_users": self.users}
        for key, value in expected.items():
            if out["ingest"][key] != value:
                problems.append(f"ingest {key} = {out['ingest'][key]}, expected {value}")
        obs["accuracy_pct"] = 100.0 * sum(a == b for a, b, _ in named) / self.users
        if first:
            obs["shape"]["events"] = out["ingest"]["records"]
        return obs, problems


class HarnessWorkload(Workload):
    """One ``run_experiment`` repetition per op, in this process.

    The solvers and micro-aggregation are captured at the names the harness
    binds, so their results can be checked after the op.
    """

    in_process = True
    inputs = 3
    scenario = ""
    metrics: list[str] = []
    params: dict = {}

    def setup(self) -> None:
        from histmatch import harness

        self.harness = harness
        self.captured: list[tuple] = []
        self.capture = tracing.Patches()
        for attr in ("match_min_weight", "match_cardinality", "microaggregate"):
            self.capture.replace(f"histmatch.harness:{attr}", self._capturing(attr))
        self.op(-1, 0, False)  # warm-up
        self.captured.clear()

    def _capturing(self, attr):
        def make(fn):
            def capture(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.captured.append((attr, args, result))
                return result
            return capture
        return make

    def op(self, op_id, j, traced):
        self.captured.clear()
        config = self.harness.ExperimentConfig(
            scenario=self.scenario, metrics=list(self.metrics), repetitions=1,
            seed=input_seed(self.seed, j), params=dict(self.params),
        )
        if not traced:
            return self.harness.run_experiment(config)
        self.tracer.install(tracing.HARNESS_TARGETS)
        self.tracer.begin_op(op_id)
        try:
            return self.harness.run_experiment(config)
        finally:
            self.tracer.uninstall()

    def _check_solvers(self, first: bool) -> tuple[dict, list[str], dict]:
        totals, problems, shape = {}, [], None
        for attr, args, result in self.captured:
            if attr == "microaggregate":
                continue
            instance = args[0]
            label = f"{instance.metric.value}|{'a1' if attr == 'match_min_weight' else 'a2'}"
            cardinality = instance.n_left if attr == "match_min_weight" else args[1]
            found, _ = check_pairs(result.pairs, instance.n_left, instance.n_right, cardinality, label)
            problems += found
            totals[label] = result.total_weight
            if first and not found:
                left, right = instance.left.histograms, instance.right.histograms
                problems += check_pair_sample(
                    result.pairs, lambda i: left[i], lambda k: right[k], instance.metric, self.seed, label,
                )
                for i, k, w in result.pairs[:PAIR_SAMPLE]:
                    if abs(instance.weights[i, k] - w) > PAIR_ATOL:
                        problems.append(f"{label}: pair weight differs from the instance matrix")
                        break
            if first and shape is None:
                shape = set_shape([h.mass for h in instance.left.histograms],
                                  [h.mass for h in instance.right.histograms])
        return totals, problems, shape


class OverlapA2(HarnessWorkload):
    """The harness ``overlap`` scenario: partial overlap, A1 and A2."""

    name = "overlap_a2"
    scenario = "overlap"
    metrics = ["proposed"]
    params = {"r_values": [200], "n_left": 400, "n_right": 400,
              "alphabet_size": 1000, "concentration": 1.0, "t": 200}

    def observe(self, j, report, first):
        totals, problems, shape = self._check_solvers(first)
        if set(totals) != {"proposed|a1", "proposed|a2"}:
            problems.append(f"expected A1 and A2 results, got {sorted(totals)}")
        a2 = [row for row in report.rows if row.algorithm.startswith("a2")]
        obs = {"total_weight": totals,
               "accuracy_pct": a2[0].mean_percentage_accuracy if a2 else 0.0}
        if shape is not None:
            shape["r"] = self.params["r_values"][0]
            obs["shape"] = shape
        return obs, problems


class KanonDefense(HarnessWorkload):
    """The harness ``kanon`` scenario: micro-aggregation, then A1 under all four metrics."""

    name = "kanon_defense"
    inputs = 8  # cluster-level accuracy varies more between populations
    scenario = "kanon"
    metrics = ["proposed", "l1", "cosine", "dot"]
    params = {"k_values": [5], "n_users": 200, "alphabet_size": 1000, "concentration": 1.0, "t": 200}

    def observe(self, j, report, first):
        from histmatch.anonymize import verify_k_anonymity

        k = self.params["k_values"][0]
        totals, problems, shape = self._check_solvers(first)
        if len(totals) != len(self.metrics):
            problems.append(f"expected one A1 result per metric, got {sorted(totals)}")
        micro = [entry for entry in self.captured if entry[0] == "microaggregate"]
        if len(micro) != 1:
            problems.append(f"expected one micro-aggregation, got {len(micro)}")
        else:
            _, args, (partition, released) = micro[0]
            if not verify_k_anonymity(released, k):
                problems.append("released set fails verify_k_anonymity")
            sizes = [len(c) for c in partition.clusters]
            if not all(k <= s <= 2 * k - 1 for s in sizes):
                problems.append(f"cluster sizes {min(sizes)}..{max(sizes)} outside [{k}, {2 * k - 1}]")
            if sum(sizes) != len(args[0]):
                problems.append("partition does not cover the input")
            if shape is not None:
                shape["nnz_before_aggregation"] = sum(h.support_count for h in args[0].histograms)
                shape["clusters"] = partition.g
        cluster_pct = [row.mean_cluster_level_pct for row in report.rows]
        obs = {
            "total_weight": totals,
            "accuracy_pct": sum(cluster_pct) / len(cluster_pct) if cluster_pct else 0.0,
            "info_loss": report.rows[0].mean_information_loss if report.rows else 0.0,
        }
        if shape is not None:
            shape["k"] = k
            obs["shape"] = shape
        return obs, problems


WORKLOADS = {w.name: w for w in (MatchCli, OverlapA2, KanonDefense, IngestGeo)}
