#!/usr/bin/env python3
"""Release benchmark for the dawa library: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload dawa-1d --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Each workload runs in fresh worker processes (perfbench/worker.py) with one
BLAS/OpenMP thread and without DAWA_THREADS.  With `--trace 0` the last line
of standard output is one JSON object holding the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run.  `--workload all`
runs every workload untraced and traced and prints one table.  Each run also
writes a record with its samples, spans and environment to perfbench/out/.
`--smoke` runs tiny inputs so the benchmark's own tests take seconds.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("dawa-1d", "stage1-all", "spatial-g7", "baseline-grid")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER_TIMEOUT_S = 170.0
# Set-up-only workers started before and after the timing worker, so the
# set-up median spans the whole run rather than its first seconds.
SETUP_RUNS_BEFORE = 4
SETUP_RUNS_AFTER = 4


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True, help="workload seed: inputs and noise seeds")
    p.add_argument("--seconds", type=float, default=20.0, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one set-up sample")
    return p.parse_args(argv)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "DAWA_THREADS"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args: argparse.Namespace, workload: str, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker ran past {WORKER_TIMEOUT_S:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def environment(record: dict) -> dict:
    env = child_env()
    return {
        "threads": {var: env[var] for var in THREAD_VARS},
        "DAWA_THREADS": None,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": record["python"],
        "numpy": record["numpy"],
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def measure(args: argparse.Namespace, workload: str) -> dict:
    """One run of one workload; returns its metrics and its full record."""
    if args.trace:
        setup = []
        record = run_worker(args, workload)
    else:
        before, after = (1, 0) if args.smoke else (SETUP_RUNS_BEFORE, SETUP_RUNS_AFTER)
        setup = [run_worker(args, workload, setup_only=True)["setup_s"] for _ in range(before)]
        record = run_worker(args, workload)
        setup.append(record["setup_s"])
        setup += [run_worker(args, workload, setup_only=True)["setup_s"] for _ in range(after)]
    attempted, failed = record["attempted"], record["failed"]
    if not record["release_ms"]:
        raise BenchError(f"{workload}: no release succeeded: {record['problems'][:3]}")
    if args.trace:
        metrics = {name: {"value": value, "unit": unit, "samples": len(record["release_ms"])}
                   for name, (value, unit) in record["layers"].items()}
    else:
        releases = len(record["release_ms"])
        metrics = {
            "release_ms_p50": {"value": statistics.median(record["release_ms"]), "unit": "ms",
                               "samples": releases},
            "release_cpu_ms_p50": {"value": statistics.median(record["release_cpu_ms"]),
                                   "unit": "ms", "samples": releases},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB", "samples": 1},
            "setup_s": {"value": statistics.median(setup), "unit": "s", "samples": len(setup)},
            "l1_error": {"value": record["l1_error"], "unit": "count",
                         "samples": record["l1_releases"]},
            "failed_frac": {"value": failed / attempted, "unit": "ratio", "samples": attempted},
        }
    result = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "correct": failed == 0 and attempted >= 1,
        "attempted": attempted,
        "failed": failed,
        "problems": record["problems"],
        "metrics": metrics,
        "setup_samples_s": setup,
        "release_ms": record["release_ms"],
        "release_cpu_ms": record["release_cpu_ms"],
        "environment": environment(record),
        "spans": record.get("spans", []),
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}_seed{args.seed}_trace{args.trace}{'_smoke' if args.smoke else ''}.json"
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    result["path"] = str(path.relative_to(ROOT))
    return result


def print_rows(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"releases={result['attempted']} failed={result['failed']}")
    for problem in result["problems"]:
        print(f"#   problem: {problem}")
    for name, m in result["metrics"].items():
        print(f"{result['workload']:<14} {name:<44} {m['value']:>16.6f} {m['unit']:<6} "
              f"n={m['samples']}")


def last_line(result: dict) -> str:
    # failed_frac is carried by attempted/failed; it is 0 on a correct run.
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in result["metrics"].items() if name != "failed_frac"}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dawa" / "__init__.py").is_file():
        print(f"perfbench: error: no library source at {ROOT / 'src' / 'dawa'}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = measure(args, args.workload)
            print_rows(result)
            print(last_line(result))
            return 0
        results = []
        for workload in WORKLOAD_NAMES:
            for trace in (0, 1):
                args.trace = trace
                results.append(measure(args, workload))
                print_rows(results[-1])
    except BenchError as err:
        print(f"perfbench: error: {err}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "outputs": [r["path"] for r in results],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
