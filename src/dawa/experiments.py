"""Experiment orchestration: run a mechanism/epsilon grid, report errors.

The default protocol draws several random workloads and runs several trials
of each mechanism on each, recording the average per-query L1 error.  Every
seed is derived from the master seed by a keyed hash and recorded in the
report, so a report is reproducible from its config alone.  The work that
trials share, stage 1's records and the query trees, is made here once and
handed to each trial's `run_mechanism` call.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import (
    DataVector,
    ParameterError,
    Partition,
    PrivacyBudget,
    RngStream,
    average_workload_error,
    derive_seed,
    read_data_file,
)
from .generators import gen_synthetic_data, gen_workload
from .estimation import flat_tree, scaled_trees
from .mechanisms import MECHANISM_NAMES, MechanismConfig, hier_tree, private_stage1, run_mechanism
from .partition import MODES, check_stage1_size, deviation_table


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one experiment grid.

    data is either {"path": file} or {"kind": ..., **params}; workload is
    {"kind": ..., **params}.  record_timing=False zeroes wall_ms in the
    report so repeated runs are byte-identical.
    """

    mechanisms: tuple[str, ...]
    epsilons: tuple[float, ...]
    workload: dict
    data: dict
    n: int = 0
    num_workloads: int = 5
    trials: int = 3
    master_seed: int = 0
    mode: str = "pow2"
    branching: int = 2
    stage1_fraction: float = 0.25
    record_timing: bool = True

    def __post_init__(self) -> None:
        ints, reals, lists = (int, np.integer), (int, float, np.integer, np.floating), (list, tuple)
        # bools are ints to Python; only record_timing may be one
        for name, kinds, what in (("n", ints, "an integer"), ("num_workloads", ints, "an integer"),
                                  ("trials", ints, "an integer"), ("master_seed", ints, "an integer"),
                                  ("branching", ints, "an integer"), ("mechanisms", lists, "a list"),
                                  ("epsilons", lists, "a list"), ("workload", dict, "an object"),
                                  ("data", dict, "an object"), ("stage1_fraction", reals, "a number"),
                                  ("record_timing", bool, "true or false")):
            value = getattr(self, name)
            if isinstance(value, bool) != (kinds is bool) or not isinstance(value, kinds):
                raise ParameterError(f"config {name!r} must be {what}, got {value!r}")
        eps_ok = all(isinstance(e, reals) and not isinstance(e, bool) and 0 < e < np.inf for e in self.epsilons)
        # a repeat would run the same trials again and count them as new ones
        for name, ok, what in (
            ("mechanisms", self.mechanisms and all(m in MECHANISM_NAMES for m in self.mechanisms)
             and len(set(self.mechanisms)) == len(self.mechanisms),
             f"a nonempty list from {MECHANISM_NAMES} without repeats"),
            ("epsilons", self.epsilons and eps_ok and len({float(e) for e in self.epsilons}) == len(self.epsilons),
             "a nonempty list of positive finite numbers without repeats"),
            ("num_workloads", self.num_workloads >= 1, "at least 1"), ("trials", self.trials >= 1, "at least 1"),
            ("mode", self.mode in MODES, "'all' or 'pow2'"), ("branching", self.branching >= 2, "at least 2"),
            ("stage1_fraction", 0 < self.stage1_fraction < 1, "in (0, 1)"),
            ("workload", "kind" in self.workload, "an object with a 'kind'"),
            ("data", "path" in self.data or "kind" in self.data, "an object with a 'path' or a 'kind'"),
            ("n", "path" in self.data or self.n >= 1, "at least 1 for synthetic data"),
        ):
            if not ok:
                raise ParameterError(f"config {name!r} must be {what}, got {getattr(self, name)!r}")
        object.__setattr__(self, "mechanisms", tuple(self.mechanisms))
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ParameterError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_json(cls, path: "str | Path") -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["mechanisms"] = list(self.mechanisms)
        d["epsilons"] = list(self.epsilons)
        return d


@dataclass(frozen=True)
class TrialResult:
    mechanism: str
    epsilon: float
    workload_id: int
    trial: int
    seed: int
    avg_l1_error: float
    wall_ms: float


@dataclass(frozen=True)
class Report:
    config: dict
    results: tuple[TrialResult, ...]
    aggregates: tuple[dict, ...]


def _load_data(cfg: ExperimentConfig) -> DataVector:
    if "path" in cfg.data:
        x = read_data_file(cfg.data["path"])
        if cfg.n and cfg.n != x.n:
            raise ParameterError(f"config n={cfg.n} but data file has n={x.n}")
        return x
    params = {k: v for k, v in cfg.data.items() if k != "kind"}
    return gen_synthetic_data(cfg.data["kind"], cfg.n, derive_seed(cfg.master_seed, "data"), **params)


def compute_aggregates(results: "tuple[TrialResult, ...] | list[TrialResult]") -> tuple[dict, ...]:
    """Per (mechanism, epsilon): mean/std of trial errors and mean runtime."""
    groups: dict[tuple[str, float], list[TrialResult]] = {}
    for r in results:
        groups.setdefault((r.mechanism, r.epsilon), []).append(r)
    out = []
    for (mech, eps) in sorted(groups):
        rows = groups[(mech, eps)]
        errs = np.asarray([r.avg_l1_error for r in rows])
        walls = np.asarray([r.wall_ms for r in rows])
        out.append({
            "mechanism": mech,
            "epsilon": eps,
            "num_trials": len(rows),
            "mean_error": float(errs.mean()),
            "std_error": float(errs.std()),
            "mean_wall_ms": float(walls.mean()),
        })
    return tuple(out)


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Execute the full grid deterministically.

    Trial seeds depend only on (master_seed, workload_id, trial), never on
    the mechanism or epsilon, so extending the grid leaves existing rows
    unchanged.  The work trials share is made here, before they start, and
    handed to each trial's `run_mechanism` call, which gives it the bits of
    a release that makes its own: once per experiment stage 1's deviations,
    the hier_* trees and identity's flat tree; per workload the
    `private_stage1` record of every (epsilon, trial), on a fresh stream of
    the trial's seed, which dawa and partition_laplace both take, then
    dawa's tree over each record's partition and greedy_no_partition's,
    scaled together.  A trial's wall_ms leaves out this shared work.  Every
    epsilon's budget is split, and refused if a share is below
    `core.EPSILON_FLOOR`, before the data is loaded.
    """
    budgets = [PrivacyBudget.split(eps, cfg.stage1_fraction) for eps in cfg.epsilons]
    x = _load_data(cfg)
    two_stage = {"dawa", "partition_laplace"} & set(cfg.mechanisms)
    deviations = None
    if two_stage:
        # refused before any trial unless the shared deviations fit beside one trial's noisy costs
        check_stage1_size(x.n, x.total(), cfg.mode, tables=2)
        deviations = deviation_table(x, cfg.mode)
    fixed_trees = {name: hier_tree(name, x.n, cfg.branching) for name in ("hier_uniform", "hier_geometric")
                   if name in cfg.mechanisms}
    if "identity" in cfg.mechanisms:
        fixed_trees["identity"] = flat_tree(x.n)
    wparams = {k: v for k, v in cfg.workload.items() if k != "kind"}
    results = []
    for wid in range(cfg.num_workloads):
        W = gen_workload(cfg.workload["kind"], x.n, derive_seed(cfg.master_seed, "workload", wid), **wparams)
        seeds = [derive_seed(cfg.master_seed, "trial", wid, trial) for trial in range(cfg.trials)]
        stage1 = {(eps, seed): private_stage1(x, budget, RngStream(seed), cfg.mode, deviations)
                  for eps, budget in zip(cfg.epsilons, budgets) for seed in seeds} if two_stage else {}
        keys = list(stage1) if "dawa" in cfg.mechanisms else []
        partitions = [stage1[key].buckets for key in keys]
        if "greedy_no_partition" in cfg.mechanisms:
            keys.append("greedy_no_partition")
            partitions.append(Partition.unit(x.n))
        trees = {**fixed_trees, **dict(zip(keys, scaled_trees(partitions, W, cfg.branching)))}
        for name in cfg.mechanisms:
            for eps, budget in zip(cfg.epsilons, budgets):
                config = MechanismConfig(name=name, budget=budget, mode=cfg.mode, branching=cfg.branching)
                for trial, seed in enumerate(seeds):
                    # a dawa tree is read by its own trial alone
                    tree = trees.pop((eps, seed)) if name == "dawa" else trees.get(name)
                    rng = RngStream(seed)
                    start = time.perf_counter()
                    xhat = run_mechanism(config, x, W, rng, stage1.get((eps, seed)), tree)
                    wall_ms = (time.perf_counter() - start) * 1000.0 if cfg.record_timing else 0.0
                    error = average_workload_error(W, x, xhat)
                    results.append(TrialResult(name, eps, wid, trial, seed, error, wall_ms))
    results = tuple(results)
    return Report(config=cfg.to_dict(), results=results, aggregates=compute_aggregates(results))


def report_emit(report: Report, path: "str | Path") -> None:
    """Write the report as JSON; floats round-trip exactly through json.  A
    report holding a value JSON cannot carry, such as NaN, is not written."""
    doc = {
        "config": report.config,
        "results": [asdict(r) for r in report.results],
        "aggregates": list(report.aggregates),
    }
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")
