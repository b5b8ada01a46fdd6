"""One workload in one fresh process; prints one JSON record on stdout.

Started by run.py with a clean environment (one BLAS thread, no
DAWA_THREADS, `src` on the path).  Modes:

- `--setup-only`: import, build the inputs, warm up, report the set-up time;
- `--trace 0`: set up, then time releases until `--seconds` have passed and
  at least the workload's minimum count is done.  Release i takes input
  instance i and noise seed i, cycling over the minimum count;
- `--trace 1`: the same loop, but each release is preceded by its traced
  rebuild, which must match it bit for bit.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time

import numpy as np

import tracing
import workloads

# Seconds after which a run stops starting releases, whatever its minimum.
HARD_STOP_S = 120.0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.time() in the parent just before this process started")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wdef = workloads.WORKLOADS[args.workload]
    # A traced run repeats the first two releases of the untraced run.
    min_releases = 2 if args.smoke or args.trace else wdef.min_releases
    spec = wdef.spec(args.smoke)
    inputs = [spec.build(s) for s in workloads.input_seeds(args.seed, min_releases)]
    # Warm-up: one release of the smoke-size instance, so lazy imports and
    # first-call costs are paid before the first timed release.
    warm = wdef.smoke.build(args.seed)
    wdef.release(warm, workloads.noise_seeds("warm-up", 1)[0])
    setup_s = time.time() - args.spawned_at
    record = {"setup_s": setup_s, "numpy": np.__version__, "python": platform.python_version()}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    seeds = workloads.noise_seeds(args.workload, min_releases)
    first_pass = {}          # Outcome of each (input, noise seed) pair's first release
    wall_ms, cpu_ms = [], []
    problems = []
    failed = 0
    traced = []              # Tracer per release (trace mode)
    traced_wall_ms = []
    harness_ms = []
    start = time.perf_counter()
    i = 0
    while i < min_releases or time.perf_counter() - start < args.seconds:
        if i > 0 and time.perf_counter() - start > HARD_STOP_S:
            # Releases the minimum asks for but the run never reached fail,
            # so a slow run cannot pass with l1_error over fewer instances.
            problems.append(f"hard stop after {i} releases")
            failed += max(min_releases - i, 0)
            i = max(i, min_releases)
            break
        inp, noise_seed = inputs[i % min_releases], seeds[i % min_releases]
        bad = []
        try:
            if args.trace:
                # Traced first, so the peak-RSS mark rises inside its spans.
                rebuilt, trace_bad = trace_release(wdef, inp, noise_seed, i, traced,
                                                   traced_wall_ms)
                bad.extend(trace_bad)
            w0, c0 = time.perf_counter(), time.process_time()
            result = wdef.release(inp, noise_seed)
            c1, w1 = time.process_time(), time.perf_counter()
            outcome = wdef.check(inp, result)
            bad.extend(outcome.problems)
            first = first_pass.setdefault(i % min_releases, outcome)
            if not outcome.same_bits(first):
                bad.append("a repeated (input, noise seed) pair gave a different release")
            if args.trace and not rebuilt.same_bits(outcome):
                bad.append("traced rebuild differs from the release")
            if args.trace and args.workload == "baseline-grid":
                bad.extend(tracing.compare_grid(traced[-1], result))
        except Exception as err:  # a release that raises counts as failed
            bad.append(f"{type(err).__name__}: {err}")
        else:
            wall_ms.append((w1 - w0) * 1000.0)
            cpu_ms.append((c1 - c0) * 1000.0)
            if args.workload == "baseline-grid":
                harness_ms.append((w1 - w0) * 1000.0 - sum(r.wall_ms for r in result.results))
        if bad:
            failed += 1
            problems.extend(f"release {i}: {p}" for p in bad)
        i += 1

    record.update({
        "attempted": i,
        "failed": failed,
        "problems": problems[:20],
        "release_ms": wall_ms,
        "release_cpu_ms": cpu_ms,
        "peak_rss_mb": tracing.peak_rss_mb(),
        "l1_error": statistics.fmean(o.error for o in first_pass.values()) if first_pass else float("nan"),
        "l1_releases": len(first_pass),
    })
    if args.trace:
        record["layers"] = layer_metrics(traced, traced_wall_ms, wall_ms, harness_ms)
        record["spans"] = [span for tr in traced for span in tr.spans]
    print(json.dumps(record))
    return 0


def trace_release(wdef, inp, noise_seed, i, traced, traced_wall_ms):
    """Traced rebuild of release i; returns its outcome and its problems."""
    tr = tracing.Tracer(release=i)
    w0 = time.perf_counter()
    rebuilt = tracing.TRACED[wdef.name](tr, inp, noise_seed)
    traced_wall_ms.append((time.perf_counter() - w0) * 1000.0 - tr.rebuild_ms)
    traced.append(tr)
    return rebuilt, list(tr.problems)


LAYER_TIMES = (
    "partition.all_costs", "partition.perturb_costs", "partition.least_cost_partition",
    "transform.transform_workload",
    "estimation.build_query_tree", "estimation.greedy_scale", "estimation.measure",
    "estimation.ols_infer",
    "core.uniform_expand", "core.average_workload_error",
    "spatial.grid_discretize", "spatial.linearize", "spatial.rectangles_to_workload",
    "spatial.answer_rectangle",
    "mechanisms.run_dawa", "mechanisms.run_identity", "mechanisms.run_partition_laplace",
    "mechanisms.run_hier_uniform", "mechanisms.run_hier_geometric",
    "mechanisms.run_greedy_no_partition",
)
LAYER_GROWTH = ("estimation.greedy_scale", "estimation.ols_infer")
EXACT_COUNTS = (
    "partition.candidates", "partition.laplace_draws", "transform.matrix_cells",
    "estimation.tree_nodes", "estimation.active_measurements", "estimation.laplace_draws",
    "spatial.runs", "experiments.trials",
)


def layer_metrics(traced, traced_wall_ms, wall_ms, harness_ms) -> dict:
    """Per-layer metrics of a traced run, as {name: (value, unit)}.

    CPU times are medians over the run's releases of each layer's total in
    one release; a layer the workload never calls reads 0.  Counts come
    from the first release, whose input and noise seed depend on the
    workload seed alone, so they repeat exactly.  RSS growth is the largest
    rise of the peak mark in one call.
    """
    out = {}
    if not traced:
        return out
    for layer in LAYER_TIMES:
        out[f"{layer}.cpu_ms"] = (statistics.median(tr.cpu_ms.get(layer, 0.0) for tr in traced), "ms")
    for layer in LAYER_GROWTH:
        out[f"{layer}.rss_growth_mb"] = (max(tr.rss_growth_mb.get(layer, 0.0) for tr in traced), "MB")
    first = traced[0].counts
    for name in EXACT_COUNTS:
        out[name] = (first.get(name, 0.0), "count")
    calls = first.get("partition.dawa_calls", 0.0)
    out["partition.k"] = (first["partition.k"] / calls if calls else 0.0, "count")
    out["partition.k_over_n"] = (first["partition.k"] / first["domain_n"] if calls else 0.0, "ratio")
    nodes = first.get("estimation.tree_nodes", 0.0)
    out["estimation.active_fraction"] = (
        first.get("estimation.active_measurements", 0.0) / nodes if nodes else 0.0, "ratio")
    out["experiments.harness_overhead_ms"] = (statistics.median(harness_ms) if harness_ms else 0.0, "ms")
    out["trace.overhead_frac"] = (statistics.median(traced_wall_ms) / statistics.median(wall_ms) - 1.0,
                                  "ratio")
    return out


if __name__ == "__main__":
    sys.exit(main())
