"""Command-line entry points: run, workload, datagen, partition, spatial."""
from __future__ import annotations

import argparse
import sys

from .core import (
    PrivacyBudget,
    RngStream,
    read_data_file,
    write_data_file,
    write_rows,
    write_workload_file,
)
from .experiments import ExperimentConfig, report_emit, run_experiment
from .generators import gen_synthetic_data, gen_workload
from .partition import PartitionParams, exact_partition, private_partition
from .spatial import (
    GridSpec,
    RectangleQuery,
    read_points_file,
    read_rectangles_file,
    run_spatial,
)


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    report = run_experiment(cfg)
    report_emit(report, args.out)
    for agg in report.aggregates:
        print(
            f"{agg['mechanism']:>20s}  eps={agg['epsilon']:<8g} "
            f"mean_error={agg['mean_error']:.6g}  std={agg['std_error']:.6g}  "
            f"trials={agg['num_trials']}"
        )
    print(f"report written to {args.out}")
    return 0


def _cmd_workload(args) -> int:
    kind = args.kind.replace("-", "_")
    params = {}
    if args.num_queries is not None:
        params["num_queries"] = args.num_queries
    if args.sigma is not None:
        params["sigma"] = args.sigma
    if args.clusters is not None:
        params["num_clusters"] = args.clusters
    if args.per_cluster is not None:
        params["queries_per_cluster"] = args.per_cluster
    W = gen_workload(kind, args.n, args.seed, **params)
    write_workload_file(args.out, W)
    return 0


def _cmd_datagen(args) -> int:
    kind = args.kind.replace("-", "_")
    params = {}
    if args.value is not None:
        params["value"] = args.value
    if args.segments is not None:
        params["segments"] = args.segments
    if args.total is not None:
        params["total"] = args.total
    x = gen_synthetic_data(kind, args.n, args.seed, **params)
    write_data_file(args.out, x)
    return 0


def _cmd_partition(args) -> int:
    x = read_data_file(args.data)
    if args.exact:
        print("warning: --exact skips the privacy noise; output is NOT private", file=sys.stderr)
        buckets = exact_partition(x, args.eps2, mode=args.mode)
    else:
        params = PartitionParams(eps1=args.eps1, eps2=args.eps2, mode=args.mode)
        buckets = private_partition(x, params, RngStream(args.seed))
    write_workload_file(None, buckets)
    return 0


def _cmd_spatial(args) -> int:
    points = read_points_file(args.points)
    boxes = read_rectangles_file(args.rects)
    if args.box is not None:
        xmin, xmax, ymin, ymax = args.box
    else:
        xmin, ymin = points.min(axis=0)
        xmax, ymax = points.max(axis=0)
    spec = GridSpec(g=args.g, xmin=xmin, xmax=xmax, ymin=ymin, ymax=ymax)
    rects = [RectangleQuery.from_box(spec, *box) for box in boxes]
    budget = PrivacyBudget.split(args.epsilon, args.stage1_fraction)
    answers, _ = run_spatial(points, rects, spec, budget, RngStream(args.seed),
                             mode=args.mode, t=args.branching)
    rows = [(box + (ans,)) for box, ans in zip(boxes, answers)]
    write_rows(args.out, rows, ("xlo", "xhi", "ylo", "yhi", "answer"))
    if args.out:
        print(f"answers written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dawa",
        description="Data- and workload-aware private range query answering.",
        epilog="Set DAWA_THREADS to parallelize experiment trials (default 1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment grid from a JSON config")
    p.add_argument("--config", required=True, help="path to ExperimentConfig JSON")
    p.add_argument("--out", default="report.json", help="report output path (default report.json)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("workload", help="generate a workload CSV")
    p.add_argument("--kind", required=True,
                   choices=["identity", "uniform", "clustered", "large-clustered"])
    p.add_argument("--n", type=int, required=True, help="domain size")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("--num-queries", type=int, default=None,
                   help="uniform kind: number of queries (default 2000)")
    p.add_argument("--sigma", type=float, default=None,
                   help="clustered kinds: half-width scale (default 256 / 1024)")
    p.add_argument("--clusters", type=int, default=None,
                   help="clustered kinds: number of clusters (default 5)")
    p.add_argument("--per-cluster", type=int, default=None,
                   help="clustered kinds: queries per cluster (default 400)")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_workload)

    p = sub.add_parser("datagen", help="generate a synthetic data file")
    p.add_argument("--kind", required=True,
                   choices=["constant", "piecewise-constant", "heavy-tail"])
    p.add_argument("--n", type=int, required=True, help="domain size")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("--value", type=int, default=None, help="constant kind: cell value (default 5)")
    p.add_argument("--segments", type=int, default=None,
                   help="piecewise kind: number of uniform runs (default 8)")
    p.add_argument("--total", type=float, default=None,
                   help="target total mass (default 10*n)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_datagen)

    p = sub.add_parser("partition", help="print a private partition of a data file as CSV")
    p.add_argument("--data", required=True, help="counts file, one integer per line")
    p.add_argument("--eps1", type=float, required=True, help="partition stage budget")
    p.add_argument("--eps2", type=float, required=True, help="estimation stage budget (prices bucket count)")
    p.add_argument("--mode", choices=["all", "pow2"], default="pow2",
                   help="candidate bucket lengths (default pow2)")
    p.add_argument("--seed", type=int, default=0, help="noise seed (default 0)")
    p.add_argument("--exact", action="store_true",
                   help="skip noise and print the exact least-cost partition (NOT private)")
    p.set_defaults(func=_cmd_partition)

    p = sub.add_parser("spatial", help="answer rectangle queries over 2D points privately")
    p.add_argument("--points", required=True, help="CSV with header x,y")
    p.add_argument("--rects", required=True, help="CSV with header xlo,xhi,ylo,yhi (real units)")
    p.add_argument("--epsilon", type=float, required=True, help="total privacy budget")
    p.add_argument("--g", type=int, default=10, help="grid exponent: 2^g bins per axis (default 10)")
    p.add_argument("--box", type=float, nargs=4, default=None,
                   metavar=("XMIN", "XMAX", "YMIN", "YMAX"),
                   help="bounding box (default: tight box around the points)")
    p.add_argument("--seed", type=int, default=0, help="noise seed (default 0)")
    p.add_argument("--mode", choices=["all", "pow2"], default="pow2",
                   help="partition candidate lengths (default pow2)")
    p.add_argument("--branching", type=int, default=2, help="measurement tree fan-out (default 2)")
    p.add_argument("--stage1-fraction", type=float, default=0.25,
                   help="budget fraction for partitioning (default 0.25)")
    p.add_argument("--out", default=None, help="answers CSV path (default stdout)")
    p.set_defaults(func=_cmd_spatial)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"dawa: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"dawa: error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
