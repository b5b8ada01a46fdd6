"""Traced rebuilds of the releases, timed layer by layer from outside.

`run_dawa` and `run_spatial` are rebuilt here from their public pieces, in
the same order and on the same `RngStream`, with a span around each call.
The worker compares every traced release with the untraced one bit for
bit, so the trace never times a different program from the one measured.
A ledger list on the stream records every Laplace draw; `check_ledger`
checks from those records that each stage spent the budget it claims.
"""
from __future__ import annotations

import math
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from dawa.core import (
    Histogram,
    PrivacyBudget,
    RngStream,
    average_workload_error,
    derive_seed,
    read_data_file,
    uniform_expand,
)
from dawa.estimation import build_query_tree, greedy_scale, measure, ols_infer
from dawa.generators import gen_workload
from dawa.mechanisms import MechanismConfig, run_mechanism
from dawa.partition import (
    BUCKET_COST_SENSITIVITY,
    PartitionParams,
    all_costs,
    least_cost_partition,
    perturb_costs,
)
from dawa.spatial import (
    HilbertMap,
    answer_rectangle,
    grid_discretize,
    linearize,
    rectangles_to_workload,
)
from dawa.transform import transform_workload

from workloads import BRANCHING, Outcome, check_1d, check_spatial


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Tracer:
    """Spans and counts of one traced release.

    `cpu_ms` sums process CPU time per layer; `rss_growth_mb` keeps the
    largest rise of the peak-RSS mark seen during one call of a layer.
    """

    release: int
    origin: float = field(default_factory=time.perf_counter)
    spans: list = field(default_factory=list)
    cpu_ms: dict = field(default_factory=lambda: defaultdict(float))
    rss_growth_mb: dict = field(default_factory=lambda: defaultdict(float))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    problems: list = field(default_factory=list)
    trial_keys: list = field(default_factory=list)
    rebuild_ms: float = 0.0

    def call(self, layer: str, fn, *args, **kwargs):
        rss0 = peak_rss_mb()
        start = time.perf_counter()
        cpu0 = time.process_time()
        out = fn(*args, **kwargs)
        cpu = (time.process_time() - cpu0) * 1000.0
        end = time.perf_counter()
        growth = peak_rss_mb() - rss0
        self.cpu_ms[layer] += cpu
        self.rss_growth_mb[layer] = max(self.rss_growth_mb[layer], growth)
        self.spans.append({
            "release": self.release,
            "layer": layer,
            "start_ms": (start - self.origin) * 1000.0,
            "end_ms": (end - self.origin) * 1000.0,
            "cpu_ms": cpu,
        })
        return out

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value


def _scales_match(entries, scale: float) -> bool:
    return all(math.isclose(s, scale, rel_tol=1e-12) for s, _ in entries)


def check_ledger(tr: Tracer, stage1, stage2, eps1: float, eps2: float,
                 candidates: int, active: int) -> None:
    """Stage 1 draws one Laplace(2*sensitivity/eps1) per candidate bucket;
    stage 2 draws one Laplace(1/eps2) per active measurement."""
    if not _scales_match(stage1, 2.0 * BUCKET_COST_SENSITIVITY / eps1):
        tr.problems.append(f"stage-1 draw scales {stage1} are not 2*{BUCKET_COST_SENSITIVITY}/{eps1}")
    if not _scales_match(stage2, 1.0 / eps2):
        tr.problems.append(f"stage-2 draw scales {stage2} are not 1/{eps2}")
    drawn1 = sum(c for _, c in stage1)
    drawn2 = sum(c for _, c in stage2)
    if drawn1 != candidates:
        tr.problems.append(f"stage 1 drew {drawn1} times for {candidates} candidates")
    if drawn2 != active:
        tr.problems.append(f"stage 2 drew {drawn2} times for {active} active measurements")
    tr.count("partition.laplace_draws", drawn1)
    tr.count("estimation.laplace_draws", drawn2)


def traced_dawa(tr: Tracer, x, W, budget: PrivacyBudget, noise_seed: int, mode: str):
    """`run_dawa` from its pieces, with a ledger attached to the stream."""
    ledger: list = []
    rng = RngStream(noise_seed, ledger=ledger)
    params = PartitionParams(eps1=budget.eps1, eps2=budget.eps2, mode=mode)
    table = tr.call("partition.all_costs", all_costs, x, params.eps2, params.mode)
    noisy = tr.call("partition.perturb_costs", perturb_costs, table, params.eps1, rng,
                    delta_bcost=params.delta_bcost)
    stage1 = list(ledger)
    partition = tr.call("partition.least_cost_partition", least_cost_partition, noisy, x.n)

    # estimate_buckets
    What = tr.call("transform.transform_workload", transform_workload, W, partition)
    tree = tr.call("estimation.build_query_tree", build_query_tree, partition.k, BRANCHING)
    tr.call("estimation.greedy_scale", greedy_scale, What, tree)
    prefix = np.concatenate(([0], np.cumsum(x.counts)))
    los = np.fromiter((b.lo for b in partition), dtype=np.int64, count=partition.k)
    his = np.fromiter((b.hi for b in partition), dtype=np.int64, count=partition.k)
    counts = (prefix[his] - prefix[los - 1]).astype(np.float64)
    measurements = tr.call("estimation.measure", measure, counts, tree, params.eps2, rng)
    stats = tr.call("estimation.ols_infer", ols_infer, tree, measurements)
    xhat = tr.call("core.uniform_expand", uniform_expand,
                   Histogram(partition=partition, stats=stats), x.n)
    stage2 = ledger[len(stage1):]  # every draw after stage 1 is charged to stage 2

    active = len(measurements)
    tr.count("partition.candidates", len(table))
    tr.count("partition.k", partition.k)
    tr.count("partition.dawa_calls", 1)
    tr.count("transform.matrix_cells", W.m * partition.k)
    tr.count("estimation.tree_nodes", tree.num_nodes())
    tr.count("estimation.active_measurements", active)
    tr.count("domain_n", x.n)
    check_ledger(tr, stage1, stage2, params.eps1, params.eps2, len(table), active)
    return xhat


def traced_1d(tr: Tracer, inp, noise_seed: int) -> Outcome:
    xhat = traced_dawa(tr, inp.x, inp.W, inp.budget, noise_seed, inp.mode)
    outcome = check_1d(inp, xhat)
    tr.call("core.average_workload_error", average_workload_error, inp.W, inp.x, xhat)
    return outcome


def traced_spatial(tr: Tracer, inp, noise_seed: int) -> Outcome:
    """`run_spatial` from its pieces."""
    map_ = HilbertMap(inp.spec.g)
    grid = tr.call("spatial.grid_discretize", grid_discretize, inp.points, inp.spec)
    x = tr.call("spatial.linearize", linearize, grid, map_)
    W = tr.call("spatial.rectangles_to_workload", rectangles_to_workload, list(inp.rects), map_)
    tr.count("spatial.runs", W.m)
    xhat = traced_dawa(tr, x, W, inp.budget, noise_seed, "pow2")
    answers = [tr.call("spatial.answer_rectangle", answer_rectangle, xhat, rect, map_, inp.spec)
               for rect in inp.rects]
    return check_spatial(inp, (answers, xhat))


def _expected_scales(name: str, budget: PrivacyBudget) -> list[float]:
    if name in ("dawa", "partition_laplace"):
        return [2.0 * BUCKET_COST_SENSITIVITY / budget.eps1, 1.0 / budget.eps2]
    return [1.0 / budget.epsilon]


def traced_grid(tr: Tracer, inp, master_seed: int) -> Outcome:
    """The experiment's trials, one `run_mechanism` call each.

    Seeds, data and workloads are derived exactly as `run_experiment`
    derives them, so the per-trial errors must equal the report's rows
    (see `compare_grid`).  The `dawa` trials are also rebuilt with
    `traced_dawa` and compared bit for bit, which gives this workload its
    stage-level spans; that time is kept out of the traced wall time.
    """
    cfg = inp.config(master_seed)
    x = read_data_file(cfg.data["path"])
    errors = []
    for wid in range(cfg.num_workloads):
        wparams = {k: v for k, v in cfg.workload.items() if k != "kind"}
        W = gen_workload(cfg.workload["kind"], x.n, derive_seed(cfg.master_seed, "workload", wid),
                         **wparams)
        for name in cfg.mechanisms:
            for eps in cfg.epsilons:
                budget = PrivacyBudget.split(eps, cfg.stage1_fraction)
                config = MechanismConfig(name=name, budget=budget, mode=cfg.mode,
                                         branching=cfg.branching)
                for trial in range(cfg.trials):
                    seed = derive_seed(cfg.master_seed, "trial", wid, trial)
                    ledger: list = []
                    xhat = tr.call(f"mechanisms.run_{name}", run_mechanism, config, x, W,
                                   RngStream(seed, ledger=ledger))
                    errors.append(tr.call("core.average_workload_error", average_workload_error,
                                          W, x, xhat))
                    tr.trial_keys.append((name, eps, seed))
                    scales = [s for s, _ in ledger]
                    expected = _expected_scales(name, budget)
                    if len(scales) != len(expected) or not all(
                            math.isclose(s, e, rel_tol=1e-12) for s, e in zip(scales, expected)):
                        tr.problems.append(f"{name} eps={eps}: ledger scales {scales} != {expected}")
                    if name == "dawa":
                        start = time.perf_counter()
                        rebuilt = traced_dawa(tr, x, W, budget, seed, cfg.mode)
                        tr.rebuild_ms += (time.perf_counter() - start) * 1000.0
                        if rebuilt.values.tobytes() != xhat.values.tobytes():
                            tr.problems.append(f"dawa eps={eps} #{trial}: rebuilt estimate differs")
    tr.count("experiments.trials", len(errors))
    errors = np.array(errors, dtype=np.float64)
    return Outcome(arrays=(errors,), error=float(errors.mean()), problems=())


def compare_grid(tr: Tracer, report) -> list[str]:
    """The traced trials must be the report's rows, in the report's order."""
    keys = [(r.mechanism, r.epsilon, r.seed) for r in report.results]
    return [] if keys == tr.trial_keys else ["traced trials differ from the report's rows"]


TRACED = {"dawa-1d": traced_1d, "stage1-all": traced_1d, "spatial-g7": traced_spatial,
          "baseline-grid": traced_grid}
