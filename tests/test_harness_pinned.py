"""Pinned output of every harness scenario on small seeded configs.

Each config's report rows (every field except the two wall-clock means) and
its metadata are compared with ``harness_pinned.json``.  A refactor of the
harness must reproduce them exactly.  To re-record after an intended change
of results, run ``PYTHONPATH=src python tests/test_harness_pinned.py``.
"""
import csv
import json
import math
import os
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from histmatch.core import EARTH_RADIUS_M
from histmatch.harness import ExperimentConfig, run_experiment

FIXTURE = Path(__file__).resolve().with_name("harness_pinned.json")
EVENT_LOG = "events.csv"  # relative, so metadata does not depend on the directory
ORIGIN = (39.5, 116.0)

CONFIGS = {
    "vary_n": dict(
        scenario="vary_n", metrics=["proposed", "l1"], repetitions=2, seed=1,
        params={"n_values": [8, 16], "t": 10, "alphabet_size": 50},
    ),
    "vary_t": dict(
        scenario="vary_t", metrics=["proposed"], repetitions=2, seed=2,
        params={"t_values": [20, 60], "n_users": 15, "alphabet_size": 50},
    ),
    "overlap": dict(
        scenario="overlap", metrics=["proposed", "cosine"], repetitions=2, seed=3,
        params={"r_values": [6, 10], "n_left": 12, "n_right": 15, "t": 40, "alphabet_size": 50},
    ),
    "aggregate": dict(
        scenario="aggregate", metrics=["proposed"], repetitions=2, seed=4,
        params={"group_counts": [50, 5], "n_users": 15, "alphabet_size": 50, "t": 40},
    ),
    "suppress": dict(
        scenario="suppress", metrics=["proposed", "dot"], repetitions=2, seed=5,
        params={"keep_sizes": [50, 4], "n_users": 15, "alphabet_size": 50, "t": 20},
    ),
    "kanon": dict(
        scenario="kanon", metrics=["proposed", "l1", "cosine", "dot"], repetitions=2, seed=6,
        params={"k_values": [1, 3], "n_users": 20, "alphabet_size": 50, "t": 60},
    ),
    "aggregate_event_log": dict(
        scenario="aggregate", metrics=["proposed", "l1"], repetitions=1, seed=7,
        params={
            "event_log": EVENT_LOG,
            "boundary": 1000,
            "geo_origin": list(ORIGIN),
            "cell_sides": [300.0, 3000.0],
        },
    ),
}


def write_event_log(path) -> None:
    """Twelve users around separate homes, ten jittered points a period."""
    rng = np.random.default_rng(17)
    scale_lon = EARTH_RADIUS_M * math.cos(math.radians(ORIGIN[0]))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "timestamp", "location"])
        for u in range(12):
            home = rng.uniform(0.0, 5000.0, size=2)
            for ts in [*range(100, 1000, 90), *range(1100, 2000, 90)]:
                north, east = home + rng.normal(0.0, 400.0, size=2)
                lat = ORIGIN[0] + math.degrees(north / EARTH_RADIUS_M)
                lon = ORIGIN[1] + math.degrees(east / scale_lon)
                writer.writerow([f"u{u}", ts, f"{lat},{lon}"])


def record(name: str) -> dict:
    report = run_experiment(ExperimentConfig(**CONFIGS[name]))
    rows = []
    for row in report.rows:
        fields = asdict(row)
        del fields["mean_weights_ms"], fields["mean_solve_ms"]
        rows.append(fields)
    # through JSON, so tuples compare as the lists the fixture holds
    return json.loads(json.dumps({"rows": rows, "metadata": report.metadata}))


@pytest.mark.parametrize("name", list(CONFIGS))
def test_matches_pinned_output(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_event_log(EVENT_LOG)
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))[name]
    assert record(name) == expected


if __name__ == "__main__":
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            write_event_log(EVENT_LOG)
            pinned = {name: record(name) for name in CONFIGS}
        finally:
            os.chdir(home)
    FIXTURE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
