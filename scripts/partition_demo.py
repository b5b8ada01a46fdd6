#!/usr/bin/env python3
"""Show how the private partition tracks the exact one as the budget grows.

Prints the noise-free least-cost partition of a synthetic dataset, then the
private partitions chosen at increasing stage-1 budgets, with the exact cost
of each choice.  The cost gap shrinks as eps1 grows.
"""

from __future__ import annotations

import argparse

import numpy as np

from dawa.core import RngStream
from dawa.generators import gen_synthetic_data
from dawa.partition import MODES, PartitionParams, all_costs, least_cost_partition, private_partition


def fmt_buckets(p, limit=12):
    parts = [f"[{b.lo},{b.hi}]" for b in p]
    if len(parts) > limit:
        parts = parts[:limit] + [f"... ({p.k} buckets)"]
    return " ".join(parts)


def priced(table, p):
    """Sum of the table's costs of p's buckets, accumulated left to right."""
    return sum(table.costs[table.offsets[np.searchsorted(table.lengths, p.lengths())] + p.los - 1].tolist())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--segments", type=int, default=6)
    parser.add_argument("--eps2", type=float, default=0.75,
                        help="stage-2 budget the costs are priced against")
    parser.add_argument("--eps1", type=float, nargs="+",
                        default=[0.05, 0.25, 1.0, 10.0],
                        help="stage-1 budgets to try")
    parser.add_argument("--mode", default="pow2", choices=MODES)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    x = gen_synthetic_data("piecewise_constant", args.n, args.seed, segments=args.segments)
    table = all_costs(x, args.eps2, args.mode)
    exact = least_cost_partition(table, x.n)
    opt_cost = priced(table, exact)
    print(f"n = {args.n}, eps2 = {args.eps2}, mode = {args.mode}")
    print(f"exact:      cost {opt_cost:9.3f}  k = {exact.k:<4d} {fmt_buckets(exact)}")

    for eps1 in args.eps1:
        params = PartitionParams(eps1=eps1, eps2=args.eps2, mode=args.mode)
        chosen = private_partition(x, params, RngStream(args.seed + 1))
        cost = priced(table, chosen)
        print(
            f"eps1 {eps1:<6g} cost {cost:9.3f}  k = {chosen.k:<4d} {fmt_buckets(chosen)}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
