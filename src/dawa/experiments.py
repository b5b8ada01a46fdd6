"""Experiment orchestration: run a mechanism/epsilon grid, report errors.

The default protocol draws several random workloads and runs several trials
of each mechanism on each, recording the average per-query L1 error.  Every
seed is derived from the master seed by a keyed hash and recorded in the
report, so a report is reproducible from its config alone.
"""
from __future__ import annotations

import json
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
    Workload,
    average_workload_error,
    derive_seed,
    read_data_file,
)
from .generators import gen_synthetic_data, gen_workload
from .mechanisms import MECHANISM_NAMES, MechanismConfig, run_mechanism

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
        ints, lists = (int, np.integer), (list, tuple)
        for name, kinds, what in (("n", ints, "an integer"), ("num_workloads", ints, "an integer"),
                                  ("trials", ints, "an integer"), ("master_seed", ints, "an integer"),
                                  ("branching", ints, "an integer"), ("mechanisms", lists, "a list"),
                                  ("epsilons", lists, "a list"), ("workload", dict, "an object"),
                                  ("data", dict, "an object")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ParameterError(f"config {name!r} must be {what}, got {value!r}")
        object.__setattr__(self, "mechanisms", tuple(self.mechanisms))
        object.__setattr__(self, "epsilons", tuple(float(e) for e in self.epsilons))
        if not self.mechanisms:
            raise ParameterError("at least one mechanism required")
        for name in self.mechanisms:
            if name not in MECHANISM_NAMES:
                raise ParameterError(f"unknown mechanism {name!r}")
        if not self.epsilons or any(e <= 0 for e in self.epsilons):
            raise ParameterError("epsilons must be positive")
        if self.num_workloads < 1 or self.trials < 1:
            raise ParameterError("num_workloads and trials must be >= 1")
        if "kind" not in self.workload:
            raise ParameterError("workload config needs a 'kind'")
        if "path" not in self.data and "kind" not in self.data:
            raise ParameterError("data config needs a 'path' or a 'kind'")
        if "path" not in self.data and self.n < 1:
            raise ParameterError("synthetic data needs n >= 1")

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


def _execute_trial(task: tuple) -> TrialResult:
    (name, eps, wid, trial, seed, mode, branching, stage1_fraction, record_timing, x, W) = task
    config = MechanismConfig(
        name=name,
        budget=PrivacyBudget.split(eps, stage1_fraction),
        mode=mode,
        branching=branching,
    )
    rng = RngStream(seed)
    start = time.perf_counter()
    xhat = run_mechanism(config, x, W, rng)
    wall_ms = (time.perf_counter() - start) * 1000.0 if record_timing else 0.0
    return TrialResult(
        mechanism=name,
        epsilon=eps,
        workload_id=wid,
        trial=trial,
        seed=seed,
        avg_l1_error=average_workload_error(W, x, xhat),
        wall_ms=wall_ms,
    )


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
    """
    workers = _thread_count()
    x = _load_data(cfg)
    n = x.n
    tasks = []
    for wid in range(cfg.num_workloads):
        wparams = {k: v for k, v in cfg.workload.items() if k != "kind"}
        W = gen_workload(cfg.workload["kind"], n, derive_seed(cfg.master_seed, "workload", wid), **wparams)
        for name in cfg.mechanisms:
            for eps in cfg.epsilons:
                for trial in range(cfg.trials):
                    seed = derive_seed(cfg.master_seed, "trial", wid, trial)
                    tasks.append((name, eps, wid, trial, seed, cfg.mode, cfg.branching,
                                  cfg.stage1_fraction, cfg.record_timing, x, W))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = tuple(pool.map(_execute_trial, tasks))
    else:
        results = tuple(_execute_trial(t) for t in tasks)
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
