#!/usr/bin/env python3
"""Sweep every mechanism over a grid of privacy budgets and print the table.

The sweep runs the full experiment grid (mechanisms x epsilons x workloads x
trials) with one master seed, so rerunning with the same arguments reproduces
the report byte for byte.  Use --out to keep the raw per-trial rows.
"""

from __future__ import annotations

import argparse
import sys

from dawa.experiments import ExperimentConfig, report_emit, run_experiment
from dawa.generators import DATA_KINDS
from dawa.mechanisms import MECHANISM_NAMES


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=1024, help="domain size")
    parser.add_argument(
        "--epsilons", type=float, nargs="+", default=[0.01, 0.1, 1.0],
        help="privacy budgets to sweep",
    )
    parser.add_argument(
        "--mechanisms", nargs="+", default=list(MECHANISM_NAMES),
        choices=list(MECHANISM_NAMES), metavar="NAME",
        help=f"subset of: {', '.join(MECHANISM_NAMES)}",
    )
    parser.add_argument("--data-kind", default="piecewise_constant", choices=DATA_KINDS)
    parser.add_argument("--segments", type=int, default=8,
                        help="segment count for piecewise data")
    parser.add_argument("--queries", type=int, default=200, help="queries per workload")
    parser.add_argument("--workloads", type=int, default=2, help="workload draws")
    parser.add_argument("--trials", type=int, default=5, help="noise draws per cell")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--out", default="", help="optional path for the full report JSON")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    data = {"kind": args.data_kind}
    if args.data_kind == "piecewise_constant":
        data["segments"] = args.segments
    cfg = ExperimentConfig(
        mechanisms=tuple(args.mechanisms),
        epsilons=tuple(args.epsilons),
        workload={"kind": "uniform", "num_queries": args.queries},
        data=data,
        n=args.n,
        num_workloads=args.workloads,
        trials=args.trials,
        master_seed=args.seed,
        record_timing=True,
    )
    report = run_experiment(cfg)
    if args.out:
        report_emit(report, args.out)
        print(f"report written to {args.out}", file=sys.stderr)

    rows = report.aggregates
    name_w = max(len(r["mechanism"]) for r in rows)
    print(f"{'mechanism':<{name_w}}  {'eps':>6}  {'mean err':>10}  {'std':>9}  {'ms':>7}")
    for r in rows:
        print(
            f"{r['mechanism']:<{name_w}}  {r['epsilon']:>6g}  "
            f"{r['mean_error']:>10.2f}  {r['std_error']:>9.2f}  {r['mean_wall_ms']:>7.1f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
