"""The floor on epsilon, `core.EPSILON_FLOOR`, at every entry point.

At the floor each entry point runs, with finite output and no warning; one
ulp below it each refuses the epsilon under the name its caller gave, before
any Laplace draw is recorded or any stage-1 window index is built.  Budgets
come from `PrivacyBudget.split` at stage1_fraction 0.5, so at the floor both
stage shares sit on it.
"""

import json
import warnings

import numpy as np
import pytest

from dawa.cli import main
from dawa.core import EPSILON_FLOOR, ParameterError, PrivacyBudget, RngStream
from dawa.estimation import build_query_tree, measure
from dawa.experiments import ExperimentConfig, run_experiment
from dawa.generators import gen_synthetic_data, gen_workload
from dawa.mechanisms import MECHANISM_NAMES, MechanismConfig, run_identity, run_mechanism
from dawa.partition import PartitionParams, all_costs, deviation_table, exact_partition, perturb_costs, private_partition
from dawa.spatial import GridSpec, RectangleQuery, run_spatial

BELOW = float(np.nextafter(EPSILON_FLOOR, 0))
RULE = "the least epsilon accepted is 2**-50, about 8.9e-16"

N = 64
X = gen_synthetic_data("piecewise_constant", N, seed=2, segments=4)
W = gen_workload("uniform", N, seed=3, num_queries=20)
DEVIATIONS = deviation_table(X, "all")  # built here, before any test's window index spy
POINTS = np.random.default_rng(4).uniform(0, 1, size=(100, 2))


def budget(eps):
    return PrivacyBudget.split(2 * eps, 0.5)


def by_name(name):
    return lambda eps: f"{name} = {eps} is too small: {RULE}"


def by_total(eps):
    return f"epsilon = {2 * eps} is too small: its stage-1 share at stage1_fraction 0.5 is {eps}, and {RULE}"


def cli(argv, tmp_path, capsys, out=None):
    """main(argv) under warnings as errors: stdout on success, or its one
    `dawa: error:` line raised as a ParameterError after checking that no
    output was written."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([str(a) for a in argv])
    captured = capsys.readouterr()
    if rc == 0:
        return captured.out
    assert captured.out == "" and (out is None or not out.exists())
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dawa: error: ")
    raise ParameterError(lines[0].removeprefix("dawa: error: "))


def experiment_config(eps):
    return {"mechanisms": list(MECHANISM_NAMES), "epsilons": [2 * eps], "stage1_fraction": 0.5, "n": N,
            "data": {"kind": "piecewise_constant", "segments": 4}, "workload": {"kind": "uniform", "num_queries": 20},
            "num_workloads": 1, "trials": 1, "mode": "all", "record_timing": False}


def report_values(report):
    return np.array([r.avg_l1_error for r in report.results]
                    + [a[k] for a in report.aggregates for k in ("mean_error", "std_error")])


def spatial(eps, tmp_path, capsys):
    rects = [RectangleQuery(0, 3, 0, 3), RectangleQuery(2, 7, 1, 5)]
    answers, xhat = run_spatial(POINTS, rects, GridSpec(g=3), budget(eps), RngStream(0))
    return np.concatenate((answers, xhat.values))


def cli_run(eps, tmp_path, capsys):
    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(experiment_config(eps)))
    cli(["run", "--config", cfg, "--out", out], tmp_path, capsys, out)
    doc = json.loads(out.read_text())
    return np.array([r["avg_l1_error"] for r in doc["results"]])


def cli_spatial(eps, tmp_path, capsys):
    pts, rects, out = tmp_path / "pts.csv", tmp_path / "rects.csv", tmp_path / "answers.csv"
    pts.write_text("x,y\n" + "".join(f"{x!r},{y!r}\n" for x, y in POINTS.tolist()))
    rects.write_text("xlo,xhi,ylo,yhi\n0,0.5,0,0.5\n0.2,0.9,0.4,0.6\n")
    cli(["spatial", "--points", pts, "--rects", rects, "--epsilon", repr(2 * eps), "--stage1-fraction", "0.5",
         "--g", "3", "--out", out], tmp_path, capsys, out)
    return np.array([float(line.rsplit(",", 1)[1]) for line in out.read_text().splitlines()[1:]])


def cli_partition(flags):
    def run(eps, tmp_path, capsys):
        data = tmp_path / "x.txt"
        data.write_text("".join(f"{c}\n" for c in X.counts.tolist()))
        argv = ["partition", "--data", data, "--mode", "all"] + [a if a != "EPS" else repr(eps) for a in flags]
        return np.array([int(line.split(",")[1]) for line in cli(argv, tmp_path, capsys).splitlines()[1:]])
    return run


# entry point -> (run(eps, tmp_path, capsys) -> outputs, message(eps) for eps below the floor)
ENTRIES = {
    **{f"run_mechanism-{name}": (
        lambda eps, tmp_path, capsys, name=name:
            run_mechanism(MechanismConfig(name, budget(eps), mode="all"), X, W, RngStream(0)).values,
        by_total) for name in MECHANISM_NAMES},
    "run_identity": (lambda eps, tmp_path, capsys: run_identity(X, eps, RngStream(0)).values, by_name("eps")),
    "PrivacyBudget": (lambda eps, tmp_path, capsys: np.array([PrivacyBudget(1.0 + eps, eps, 1.0).eps1]),
                      by_name("eps1")),
    "run_experiment": (
        lambda eps, tmp_path, capsys: report_values(run_experiment(ExperimentConfig(**experiment_config(eps)))),
        by_total),
    "run_spatial": (spatial, by_total),
    "private_partition": (
        lambda eps, tmp_path, capsys: private_partition(X, PartitionParams(eps, eps, "all"), RngStream(0)).his,
        by_name("eps1")),
    "all_costs": (lambda eps, tmp_path, capsys: all_costs(X, eps, "all").costs, by_name("eps2")),
    "exact_partition": (lambda eps, tmp_path, capsys: exact_partition(X, eps, "all").his, by_name("eps2")),
    "perturb_costs": (lambda eps, tmp_path, capsys: perturb_costs(DEVIATIONS, eps, RngStream(0)).costs,
                      by_name("eps1")),
    "measure": (lambda eps, tmp_path, capsys: measure(X.counts, build_query_tree(N), eps, RngStream(0)),
                by_name("eps2")),
    "cli-run": (cli_run, by_total),
    "cli-spatial": (cli_spatial, by_total),
    "cli-partition": (cli_partition(["--eps1", "EPS", "--eps2", "EPS"]), by_name("eps1")),
    "cli-partition-exact": (cli_partition(["--eps2", "EPS", "--exact"]), by_name("eps2")),
}


@pytest.fixture
def ledger(monkeypatch):
    """One ledger on every random stream made while the test runs."""
    entries = []
    init = RngStream.__init__
    monkeypatch.setattr(RngStream, "__init__", lambda self, seed, ledger=None: init(self, seed, entries))
    return entries


@pytest.mark.parametrize("entry", ENTRIES)
def test_runs_at_the_floor(entry, tmp_path, capsys, ledger):
    run, _ = ENTRIES[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = np.asarray(run(EPSILON_FLOOR, tmp_path, capsys), dtype=np.float64)
    assert out.size and np.all(np.isfinite(out))
    # stage 1's 4/eps1 is the largest scale any epsilon can give
    assert all(scale <= 2.0**52 for scale, _ in ledger)


@pytest.mark.parametrize("entry", ENTRIES)
def test_refused_one_ulp_below_the_floor(entry, tmp_path, capsys, ledger, window_index_calls):
    run, message = ENTRIES[entry]
    with pytest.raises(ParameterError) as refused:
        run(BELOW, tmp_path, capsys)
    assert str(refused.value) == message(BELOW)
    assert ledger == [] and window_index_calls == []
