"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread, the way the benchmark's bounds are judged.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S] [--baseline FILE]

The spread of a metric is (Q3 - Q1) / median over the seeds, with the
quartiles of ``statistics.quantiles(values, n=4)``.  Each line shows it next
to the metric's bound from BENCHMARK.json; a steady benchmark keeps every
spread but set-up time below a third of its bound.  The unscaled wall times
of the ``report`` line (``WALL``) are shown too, without a bound.  With
``--baseline`` the medians are also written to FILE as JSON.  Run from the
repository root.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WALL = ("setup_wall_s", "op_p50_wall_s")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    baseline: dict[str, dict] = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in (*bounds, *WALL)}
        for seed in seed_range(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
            result = lines[-1]
            report = next(line["report"]["metrics"] for line in lines if "report" in line)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
            for name in values:
                values[name].append((result["metrics"] if name in bounds else report)[name]["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        baseline[workload] = {}
        for name, xs in values.items():
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median
            if name in bounds:
                flag = "" if spread < bounds[name] / 3 else "  <-- not below a third of the bound"
                bound = f"bound {bounds[name]:.2f}{flag}"
            else:
                bound = "no bound"
            print(f"{workload:14s} {name:13s} median {median:10.4f}  spread {spread:6.3f}  {bound}", flush=True)
            baseline[workload][name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": xs}
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
