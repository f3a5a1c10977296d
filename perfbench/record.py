"""Record the reference outputs the benchmark checks later runs against.

    python3 perfbench/record.py [--seeds 0-19] [--workloads a,b]

For every workload and seed, runs each distinct input once and stores its
problem shape and the total weight of every matching in
``perfbench/reference.json``.  Shape counts that are the same for every seed
(N, N', r, k, events, clusters) go under ``fixed`` and are checked on any
seed; the rest are checked on recorded seeds only.  Re-record only when the
benchmark's inputs change on purpose, never to make a check pass.  Run from
the repository root.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from spread import seed_range

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
FIXED_KEYS = ("N", "N_right", "r", "k", "events", "clusters")


def record(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0", "--record"],
        capture_output=True, text=True, check=True,
    )
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    result = lines[-1]
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: ops failed, nothing recorded:\n{proc.stdout}")
    observed = next(line["observed"] for line in lines if "observed" in line)
    return {j: {"shape": obs["shape"], "total_weight": obs["total_weight"]} for j, obs in observed.items()}


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0-19")
    args = parser.parse_args()

    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    for workload in args.workloads.split(","):
        seeds = {str(seed): record(workload, seed) for seed in seed_range(args.seeds)}
        shapes = [entry["shape"] for per_seed in seeds.values() for entry in per_seed.values()]
        fixed = {k: shapes[0][k] for k in FIXED_KEYS if k in shapes[0]}
        for shape in shapes:
            if any(shape.get(k) != v for k, v in fixed.items()):
                raise SystemExit(f"{workload}: shape {shape} differs from {fixed} across seeds")
        reference[workload] = {"fixed": fixed, "seeds": seeds}
        print(workload, "recorded seeds", args.seeds, "fixed shape", fixed, flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
