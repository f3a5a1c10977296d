"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root; the package is imported from ``src``.  Each
workload runs in its own worker process (worker.py).  With ``--trace 0`` the
set-up is repeated in fresh processes and the median set-up time is
reported with the end-to-end metrics; with ``--trace 1`` the worker
alternates plain and traced ops and reports the per-layer metrics.  Times
are reported at the reference speed of speed.py; the ``report`` line gives
the wall times too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment, the problem shape and every op.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("match_cli", "overlap_a2", "kanon_defense", "ingest_geo")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5  # set-up runs per end-to-end run; the median is reported
WORKER_TIMEOUT_S = 170.0


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return "?"


def environment(env: dict) -> dict:
    """Machine facts recorded with every run."""
    model = "?"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    cache = "/sys/devices/system/cpu/cpu0/cache"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        "l2": _read(f"{cache}/index2/size"),
        "l3": _read(f"{cache}/index3/size"),
        "python": platform.python_version(),
        "thread_caps": {k: env.get(k) for k in THREAD_VARS},
    }


def run_worker(args, workdir: Path, env: dict, setup_only: bool) -> dict:
    """Run worker.py in a fresh process group and return its result."""
    workdir.mkdir(parents=True)
    result = workdir / "result.json"
    argv = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed), str(args.seconds),
            str(args.trace), str(workdir), str(result)]
    if setup_only:
        argv.append("--setup-only")
    if args.record:
        argv.append("--record")
    proc = subprocess.Popen(argv, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # nothing the worker started outlives it
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0 or not result.exists():
        raise SystemExit(f"perfbench: {args.workload} worker exited {code} without a result")
    return json.loads(result.read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="skip the reference comparison (used by record.py)")
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "histmatch" / "cli.py").is_file():
        print(f"perfbench: no src/histmatch package under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be nonnegative", file=sys.stderr)
        return 2

    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    for var in THREAD_VARS:  # BLAS threads capped at the cores this process may use
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )

    base = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    load_before, probe_before = os.getloadavg(), speed.probe_ms()
    try:
        setups = []
        if not args.trace and not args.record:
            for i in range(SETUP_REPEATS - 1):
                setups.append(run_worker(args, base / f"setup{i}", env, setup_only=True))
        result = run_worker(args, base / "run", env, setup_only=False)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            (root / ".perfbench_work").rmdir()
        except OSError:
            pass
    setups.append(result)

    ops = result["ops"]
    failed = sum(1 for op in ops if op["problems"])
    env_record = environment(env)
    env_record.update(result["versions"])
    env_record["load_before"] = load_before
    env_record["load_after"] = os.getloadavg()
    env_record["cpu_probe_ms_before"] = probe_before
    env_record["cpu_probe_ms_after"] = speed.probe_ms()
    print(json.dumps({"env": env_record}))
    print(json.dumps({"observed": result["observed"]}))
    for op in ops:
        print(json.dumps({"op": op}))
    setup_s = [s["setup_s"] for s in setups]
    setup_wall_s = [s["setup_wall_s"] for s in setups]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s_samples": setup_s,
        "setup_wall_s_samples": setup_wall_s,
        "op_samples": len(result["op_seconds"]),
        "metrics": {
            "ops_failed_frac": {"value": failed / len(ops), "unit": "ratio"},
            "setup_wall_s": {"value": statistics.median(setup_wall_s), "unit": "s"},
            "op_p50_wall_s": {"value": statistics.median(result["op_wall_seconds"]), "unit": "s"},
        },
    }
    if "info_loss" in result:
        report["metrics"]["info_loss"] = {"value": result["info_loss"], "unit": "ratio"}
    print(json.dumps({"report": report}))

    if args.trace:
        declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
        metrics = {m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]} for m in declared}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "op_p50_s": {"value": statistics.median(result["op_seconds"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "accuracy_pct": {"value": result["accuracy_pct"], "unit": "%"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
