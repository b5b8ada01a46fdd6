"""Experiment orchestration: run a mechanism/epsilon grid, report errors.

The default protocol draws several random workloads and runs several trials
of each mechanism on each, recording the average per-query L1 error.  Every
seed is derived from the master seed by a keyed hash and recorded in the
report, so a report is reproducible from its config alone.
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
    PrivacyBudget,
    RngStream,
    Partition,
    Workload,
    average_workload_error,
    derive_seed,
    read_data_file,
)
from .estimation import scaled_tree
from .generators import gen_synthetic_data, gen_workload
from .mechanisms import MECHANISM_NAMES, MechanismConfig, SharedWork, run_mechanism
from .partition import MODES, PartitionParams, check_stage1_size, deviation_table


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
        for name, ok, what in (
            ("mechanisms", self.mechanisms and all(m in MECHANISM_NAMES for m in self.mechanisms),
             f"a nonempty list from {MECHANISM_NAMES}"),
            ("epsilons", self.epsilons and eps_ok, "a nonempty list of positive finite numbers"),
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
    unchanged.  Stage 1's deviations are made once per experiment and each
    workload's greedy_no_partition tree before that workload's first trial;
    a trial's wall_ms leaves out this shared work.
    """
    x = _load_data(cfg)
    deviations = None
    if {"dawa", "partition_laplace"} & set(cfg.mechanisms):
        # refused before any trial unless the shared deviations fit beside one trial's noisy costs
        # and the costs at the smallest epsilon, which are the largest, cannot overflow
        smallest = PrivacyBudget.split(min(cfg.epsilons), cfg.stage1_fraction)
        params = PartitionParams(smallest.eps1, smallest.eps2, cfg.mode)
        check_stage1_size(x.n, x.total(), cfg.mode, tables=2, eps2=params.eps2, noise_scale=params.noise_scale)
        deviations = deviation_table(x, cfg.mode)
    wparams = {k: v for k, v in cfg.workload.items() if k != "kind"}
    results = []
    for wid in range(cfg.num_workloads):
        W = gen_workload(cfg.workload["kind"], x.n, derive_seed(cfg.master_seed, "workload", wid), **wparams)
        tree = scaled_tree(Partition.unit(x.n), W, cfg.branching) if "greedy_no_partition" in cfg.mechanisms else None
        shared = SharedWork(deviations, tree)
        for name in cfg.mechanisms:
            for eps in cfg.epsilons:
                budget = PrivacyBudget.split(eps, cfg.stage1_fraction)
                config = MechanismConfig(name=name, budget=budget, mode=cfg.mode, branching=cfg.branching)
                for trial in range(cfg.trials):
                    seed = derive_seed(cfg.master_seed, "trial", wid, trial)
                    rng = RngStream(seed)
                    start = time.perf_counter()
                    xhat = run_mechanism(config, x, W, rng, shared)
                    wall_ms = (time.perf_counter() - start) * 1000.0 if cfg.record_timing else 0.0
                    results.append(TrialResult(name, eps, wid, trial, seed,
                                               average_workload_error(W, x, xhat), wall_ms))
    results = tuple(results)
    return Report(config=cfg.to_dict(), results=results, aggregates=compute_aggregates(results))


def report_emit(report: Report, path: "str | Path") -> None:
    """Write the report as JSON; floats round-trip exactly through json."""
    doc = {
        "config": report.config,
        "results": [asdict(r) for r in report.results],
        "aggregates": list(report.aggregates),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
