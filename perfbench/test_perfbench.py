"""Tests of the benchmark itself, on smoke-size inputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from dawa.partition import BUCKET_COST_SENSITIVITY  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--smoke", "--seconds", "0.2", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_declared_metric(workload, trace):
    out = last_json(bench("--workload", workload, "--seed", "3", "--trace", trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 2
    declared = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    for m in out["metrics"].values():
        assert np.isfinite(m["value"])


def test_counts_and_error_repeat_for_a_seed_and_move_with_it():
    def run_once(seed, trace):
        return last_json(bench("--workload", "dawa-1d", "--seed", seed, "--trace", trace))["metrics"]

    first, again = run_once("5", "1"), run_once("5", "1")
    for name in ("partition.candidates", "partition.k", "estimation.active_measurements",
                 "transform.matrix_cells"):
        assert first[name]["value"] == again[name]["value"]
    error = run_once("5", "0")["l1_error"]["value"]
    assert run_once("5", "0")["l1_error"]["value"] == error
    assert run_once("6", "0")["l1_error"]["value"] != error


def test_without_library_source_exits_nonzero_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "dawa-1d", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_hard_stop_before_the_minimum_counts_the_missing_releases_as_failed(monkeypatch, capsys):
    monkeypatch.setattr(worker, "HARD_STOP_S", 0.0)
    assert worker.main(["--workload", "dawa-1d", "--seed", "1", "--seconds", "0", "--smoke",
                        "--spawned-at", repr(time.time())]) == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert record["attempted"] == 2 and record["failed"] == 1
    assert record["problems"] == ["hard stop after 1 releases"]


def test_child_environment_is_single_threaded(monkeypatch):
    monkeypatch.setenv("DAWA_THREADS", "4")
    env = run.child_env()
    assert "DAWA_THREADS" not in env
    assert all(env[var] == "1" for var in run.THREAD_VARS)
    assert env["PYTHONPATH"] == str(ROOT / "src")


def test_same_bits_sees_one_ulp():
    a = np.array([1.0, 2.0])
    b = a.copy()
    b[1] = np.nextafter(b[1], 3.0)
    one = workloads.Outcome(arrays=(a,), error=0.0, problems=())
    assert one.same_bits(workloads.Outcome(arrays=(a.copy(),), error=0.0, problems=()))
    assert not one.same_bits(workloads.Outcome(arrays=(b,), error=0.0, problems=()))


def test_ledger_check_flags_wrong_scale_and_count():
    eps1, eps2 = 0.25, 0.75
    good1 = [(2.0 * BUCKET_COST_SENSITIVITY / eps1, 10)]
    good2 = [(1.0 / eps2, 4)]
    tr = tracing.Tracer(release=0)
    tracing.check_ledger(tr, good1, good2, eps1, eps2, candidates=10, active=4)
    assert tr.problems == []
    tracing.check_ledger(tr, [(1.0 / eps1, 10)], good2, eps1, eps2, candidates=10, active=4)
    tracing.check_ledger(tr, good1, good2, eps1, eps2, candidates=11, active=4)
    tracing.check_ledger(tr, good1, [(1.0 / eps1, 4)], eps1, eps2, candidates=10, active=4)
    assert len(tr.problems) == 3


@pytest.mark.parametrize("workload", ["dawa-1d", "spatial-g7", "baseline-grid"])
def test_traced_rebuild_matches_release_and_ledger(workload):
    wdef = workloads.WORKLOADS[workload]
    inputs = wdef.smoke.build(11)
    seed = workloads.noise_seeds(workload, 1)[0]
    result = wdef.release(inputs, seed)
    outcome = wdef.check(inputs, result)
    tr = tracing.Tracer(release=0)
    rebuilt = tracing.TRACED[workload](tr, inputs, seed)
    assert tr.problems == []
    assert rebuilt.same_bits(outcome)
    assert tr.counts["partition.laplace_draws"] == tr.counts["partition.candidates"] > 0
    assert tr.counts["estimation.laplace_draws"] == tr.counts["estimation.active_measurements"] > 0
    if workload == "baseline-grid":
        assert tracing.compare_grid(tr, result) == []
