"""Experiment orchestration: run a mechanism/epsilon grid, report errors.

The default protocol draws several random workloads and runs several trials
of each mechanism on each, recording the average per-query L1 error.  Every
seed is derived from the master seed by a keyed hash and recorded in the
report, so a report is reproducible from its config alone.
"""
from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
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
from .partition import check_stage1_size, deviation_table

THREADS_ENV = "DAWA_THREADS"


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
            ("mode", self.mode in ("all", "pow2"), "'all' or 'pow2'"), ("branching", self.branching >= 2, "at least 2"),
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


@dataclass(frozen=True)
class _Trial:
    mechanism: str
    epsilon: float
    workload_id: int
    trial: int
    seed: int


_worker_grid: tuple | None = None  # a pool worker's grid, set once by _set_worker_grid


def _set_worker_grid(grid: tuple) -> None:
    global _worker_grid
    _worker_grid = grid


def _execute_trial(task: _Trial, grid: tuple | None = None) -> TrialResult:
    """One trial on the grid (cfg, x, per workload id (W, SharedWork)), by
    default the pool worker's; wall_ms leaves out the work the grid shares."""
    cfg, x, workloads = grid or _worker_grid
    W, shared = workloads[task.workload_id]
    budget = PrivacyBudget.split(task.epsilon, cfg.stage1_fraction)
    config = MechanismConfig(name=task.mechanism, budget=budget, mode=cfg.mode, branching=cfg.branching)
    rng = RngStream(task.seed)
    start = time.perf_counter()
    xhat = run_mechanism(config, x, W, rng, shared)
    wall_ms = (time.perf_counter() - start) * 1000.0 if cfg.record_timing else 0.0
    return TrialResult(**vars(task), avg_l1_error=average_workload_error(W, x, xhat), wall_ms=wall_ms)


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


def _thread_count() -> int:
    """Worker processes for experiment trials: DAWA_THREADS, 1 when unset."""
    value = os.environ.get(THREADS_ENV, "1")
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ParameterError(f"{THREADS_ENV} must be a positive integer, got {value!r}")
    return workers


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Execute the full grid deterministically.

    Trial seeds depend only on (master_seed, workload_id, trial), never on
    the mechanism or epsilon, so extending the grid leaves existing rows
    unchanged.  Set the DAWA_THREADS env var above 1 to run trials in
    worker processes; results are merged in deterministic order either way.
    Stage 1's deviations and each workload's greedy_no_partition tree are
    made once, before the first trial, and each worker gets them once.
    """
    workers = _thread_count()
    x = _load_data(cfg)
    deviations = None
    if {"dawa", "partition_laplace"} & set(cfg.mechanisms):
        # refused before any trial unless the deviations fit beside one noisy table per trial
        # process; a worker that is not forked also unpickles its own copy of the deviations
        copies = 2 if workers > 1 and multiprocessing.get_start_method() != "fork" else 1
        check_stage1_size(x.n, x.total(), cfg.mode, tables=1 + copies * workers)
        deviations = deviation_table(x, cfg.mode)
    workloads, tasks = [], []
    for wid in range(cfg.num_workloads):
        wparams = {k: v for k, v in cfg.workload.items() if k != "kind"}
        W = gen_workload(cfg.workload["kind"], x.n, derive_seed(cfg.master_seed, "workload", wid), **wparams)
        tree = scaled_tree(Partition.unit(x.n), W, cfg.branching) if "greedy_no_partition" in cfg.mechanisms else None
        workloads.append((W, SharedWork(deviations, tree)))
        for name in cfg.mechanisms:
            for eps in cfg.epsilons:
                for trial in range(cfg.trials):
                    tasks.append(_Trial(name, eps, wid, trial, derive_seed(cfg.master_seed, "trial", wid, trial)))
    if workers > 1:
        with ProcessPoolExecutor(workers, initializer=_set_worker_grid, initargs=((cfg, x, workloads),)) as pool:
            results = tuple(pool.map(_execute_trial, tasks))
    else:
        results = tuple(_execute_trial(t, (cfg, x, workloads)) for t in tasks)
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


def load_report(path: "str | Path") -> dict:
    with open(path) as fh:
        return json.load(fh)
