#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's quartile spread.

    python3 perfbench/spread.py --workloads dawa-1d spatial-g7 --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/out/spread.json

The spread of a metric is (Q3 - Q1) / median over its per-seed values, with
the quartiles of `statistics.quantiles(values, n=4)`.  Each end-to-end
spread, `setup_s` included, is compared with a third of the metric's bound
in BENCHMARK.json.  Runs are untraced and go one at a time.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from run import WORKLOAD_NAMES, git_commit  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=list(WORKLOAD_NAMES), choices=WORKLOAD_NAMES)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=int, default=None,
                   help="measuring time of one run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--out", default="", help="optional path for the JSON summary")
    return p.parse_args(argv)


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"), "values": values}


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"git_commit": git_commit(), "nproc": os.cpu_count(), "seconds": seconds,
               "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        values: dict[str, list[float]] = {}
        walls, failures = [], 0
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            walls.append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failures += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        stats = {name: summarize(v) for name, v in values.items()}
        summary["workloads"][workload] = {"failures": failures, "run_wall_s": summarize(walls),
                                          "metrics": stats}
        print(f"# {workload}: failures={failures} run wall median={statistics.median(walls):.1f} s")
        for name, s in stats.items():
            limit = bounds.get(name)
            flag = ""
            if limit is not None and s["spread"] > limit / 3:
                flag = f"  ABOVE bound/3 = {limit / 3:.4f}"
                steady = False
            print(f"{workload:<14} {name:<44} median={s['median']:<14.6g} spread={s['spread']:.4f}{flag}")
        steady = steady and failures == 0
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 3


if __name__ == "__main__":
    sys.exit(main())
