"""Compare two checkouts of the repository, run interleaved on one machine.

    python3 perfbench/compare.py --base DIR --change DIR [--workloads a,b] [--seeds 1-10] [--seconds S]

A shared machine's speed drifts within minutes, so a change is judged against
its parent measured at the same time, not against numbers recorded earlier.
For every workload and seed the two checkouts run back to back, each with
its own ``perfbench/run.py`` from its own root, the order alternating from
seed to seed.  For each end-to-end metric the script prints both medians and
the median over seeds of change / base, counts the seeds on which the
change is better, and flags a ratio that is worse than the metric's bound in
BENCHMARK.json.  Run from either checkout's root.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spread import seed_range


def run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{root} {workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return result["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()

    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    for workload in workloads:
        values = {"base": [], "change": []}
        for n, seed in enumerate(seed_range(args.seeds)):
            order = ("base", "change") if n % 2 == 0 else ("change", "base")
            for side in order:
                values[side].append(run(getattr(args, side), workload, seed, seconds))
            print(workload, seed, "done", flush=True)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            base = [v[name]["value"] for v in values["base"]]
            change = [v[name]["value"] for v in values["change"]]
            ratio = statistics.median(c / b for b, c in zip(base, change))
            lower = metric["better"] == "lower"
            wins = sum(c < b if lower else c > b for b, c in zip(base, change))
            worse = ratio > 1 + metric["bound"] if lower else ratio < 1 - metric["bound"]
            print(f"{workload:14s} {name:13s} base {statistics.median(base):10.4f}  "
                  f"change {statistics.median(change):10.4f}  change/base {ratio:6.3f}  "
                  f"better on {wins}/{len(base)}  bound {metric['bound']:.2f}"
                  f"{'  <-- worse than the bound' if worse else ''}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
