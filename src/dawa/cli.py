"""Command-line entry points: run, workload, datagen, partition, spatial."""
from __future__ import annotations

import argparse
import sys

from .core import (
    ParameterError,
    PrivacyBudget,
    RngStream,
    read_data_file,
    write_data_file,
    write_rows,
    write_workload_file,
)
from .experiments import ExperimentConfig, report_emit, run_experiment
from .generators import DATA_KINDS, WORKLOAD_KINDS, gen_synthetic_data, gen_workload
from .partition import MODES, PartitionParams, exact_partition, private_partition
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


def _given(args, *names) -> dict:
    """The generator flags given on the command line; absent ones are not in args."""
    return {name: getattr(args, name) for name in names if name in args}


def _cmd_workload(args) -> int:
    params = _given(args, "num_queries", "sigma", "num_clusters", "queries_per_cluster")
    W = gen_workload(args.kind.replace("-", "_"), args.n, args.seed, **params)
    write_workload_file(args.out, W)
    return 0


def _cmd_datagen(args) -> int:
    params = _given(args, "value", "segments", "total")
    x = gen_synthetic_data(args.kind.replace("-", "_"), args.n, args.seed, **params)
    write_data_file(args.out, x)
    return 0


def _cmd_partition(args) -> int:
    if args.eps1 is None and not args.exact:
        raise ParameterError("--eps1 is required unless --exact is given")
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
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment grid from a JSON config")
    p.add_argument("--config", required=True, help="path to ExperimentConfig JSON")
    p.add_argument("--out", default="report.json", help="report output path (default report.json)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("workload", help="generate a workload CSV")
    p.add_argument("--kind", required=True, choices=[k.replace("_", "-") for k in WORKLOAD_KINDS])
    p.add_argument("--n", type=int, required=True, help="domain size")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    # generator flags: absent unless given, each named as the generator's parameter
    p.add_argument("--num-queries", type=int, default=argparse.SUPPRESS,
                   help="uniform kind: number of queries (default 2000)")
    p.add_argument("--sigma", type=float, default=argparse.SUPPRESS,
                   help="clustered kinds: half-width scale (default 256 / 1024)")
    p.add_argument("--clusters", dest="num_clusters", metavar="CLUSTERS", type=int, default=argparse.SUPPRESS,
                   help="clustered kinds: number of clusters (default 5)")
    p.add_argument("--per-cluster", dest="queries_per_cluster", metavar="PER_CLUSTER", type=int,
                   default=argparse.SUPPRESS,
                   help="clustered kinds: queries per cluster (default 400)")
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.set_defaults(func=_cmd_workload)

    p = sub.add_parser("datagen", help="generate a synthetic data file")
    p.add_argument("--kind", required=True, choices=[k.replace("_", "-") for k in DATA_KINDS])
    p.add_argument("--n", type=int, required=True, help="domain size")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("--value", type=int, default=argparse.SUPPRESS, help="constant kind: cell value (default 5)")
    p.add_argument("--segments", type=int, default=argparse.SUPPRESS,
                   help="piecewise kind: number of uniform runs (default 8)")
    p.add_argument("--total", type=float, default=argparse.SUPPRESS,
                   help="target total mass (default 10*n)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_datagen)

    p = sub.add_parser("partition", help="print a private partition of a data file as CSV")
    p.add_argument("--data", required=True, help="counts file, one integer per line")
    p.add_argument("--eps1", type=float, help="partition stage budget (not read with --exact)")
    p.add_argument("--eps2", type=float, required=True, help="estimation stage budget (prices bucket count)")
    p.add_argument("--mode", choices=MODES, default="pow2",
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
    p.add_argument("--mode", choices=MODES, default="pow2",
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
