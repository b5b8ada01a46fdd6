"""Experiment grid: config plumbing, seed discipline, report stability."""

import json
import os

import numpy as np
import pytest

from dawa.core import ParameterError
from dawa.experiments import (
    ExperimentConfig,
    TrialResult,
    compute_aggregates,
    load_report,
    report_emit,
    run_experiment,
    _thread_count,
)


def small_config(**overrides):
    base = dict(
        mechanisms=("identity", "partition_laplace"),
        epsilons=(0.5, 1.0),
        workload={"kind": "uniform", "num_queries": 25},
        data={"kind": "piecewise_constant", "segments": 4},
        n=64,
        num_workloads=2,
        trials=2,
        master_seed=11,
        record_timing=False,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_round_trip(self):
        cfg = small_config()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_json(self, tmp_path):
        cfg = small_config()
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_json(p) == cfg

    def test_unknown_key_rejected(self):
        doc = small_config().to_dict()
        doc["typo_field"] = 1
        with pytest.raises(ParameterError):
            ExperimentConfig.from_dict(doc)

    def test_validation(self):
        with pytest.raises(ParameterError):
            small_config(mechanisms=("nope",))
        with pytest.raises(ParameterError):
            small_config(trials=0)
        with pytest.raises(ParameterError):
            small_config(epsilons=())


class TestSeedDiscipline:
    def test_rows_stable_under_grid_extension(self):
        # adding a mechanism must not move the noise of existing rows
        small = run_experiment(small_config(mechanisms=("identity",)))
        big = run_experiment(
            small_config(mechanisms=("identity", "hier_uniform"))
        )
        key = lambda r: (r.mechanism, r.epsilon, r.workload_id, r.trial)
        small_rows = {key(r): r for r in small.results}
        for r in big.results:
            if r.mechanism == "identity":
                assert small_rows[key(r)].avg_l1_error == r.avg_l1_error
                assert small_rows[key(r)].seed == r.seed

    def test_trial_seeds_mechanism_independent(self):
        report = run_experiment(small_config())
        seeds = {}
        for r in report.results:
            seeds.setdefault((r.workload_id, r.trial), set()).add(r.seed)
        for key, vals in seeds.items():
            assert len(vals) == 1, f"seed varies across mechanisms for {key}"


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        cfg = small_config()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        report_emit(run_experiment(cfg), p1)
        report_emit(run_experiment(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        cfg = small_config()
        p1, p2 = tmp_path / "s.json", tmp_path / "p.json"
        report_emit(run_experiment(cfg), p1)
        os.environ["DAWA_THREADS"] = "2"
        try:
            report_emit(run_experiment(cfg), p2)
        finally:
            del os.environ["DAWA_THREADS"]
        assert p1.read_bytes() == p2.read_bytes()

    def test_thread_count(self, monkeypatch):
        monkeypatch.delenv("DAWA_THREADS", raising=False)
        assert _thread_count() == 1
        monkeypatch.setenv("DAWA_THREADS", "3")
        assert _thread_count() == 3
        for bad in ("abc", "0", "-1", "2.0"):
            monkeypatch.setenv("DAWA_THREADS", bad)
            with pytest.raises(ParameterError, match=f"DAWA_THREADS must be a positive integer, got '{bad}'"):
                _thread_count()

    def test_timing_flag(self):
        rep = run_experiment(small_config(record_timing=False, trials=1, num_workloads=1))
        assert all(r.wall_ms == 0.0 for r in rep.results)
        rep2 = run_experiment(small_config(record_timing=True, trials=1, num_workloads=1))
        assert all(r.wall_ms >= 0.0 for r in rep2.results)


class TestAggregates:
    def test_hand_computed(self):
        rows = [
            TrialResult("identity", 0.5, 0, 0, 1, 4.0, 1.0),
            TrialResult("identity", 0.5, 0, 1, 2, 6.0, 3.0),
            TrialResult("dawa", 0.5, 0, 0, 1, 2.0, 5.0),
        ]
        aggs = compute_aggregates(rows)
        by_mech = {a["mechanism"]: a for a in aggs}
        assert by_mech["identity"]["mean_error"] == 5.0
        assert by_mech["identity"]["std_error"] == 1.0
        assert by_mech["identity"]["num_trials"] == 2
        assert by_mech["identity"]["mean_wall_ms"] == 2.0
        assert by_mech["dawa"]["mean_error"] == 2.0

    def test_groups_sorted(self):
        rep = run_experiment(small_config())
        keys = [(a["mechanism"], a["epsilon"]) for a in rep.aggregates]
        assert keys == sorted(keys)


class TestReportFile:
    def test_schema(self, tmp_path):
        cfg = small_config(trials=1, num_workloads=1)
        p = tmp_path / "r.json"
        report_emit(run_experiment(cfg), p)
        doc = load_report(p)
        assert set(doc) == {"aggregates", "config", "results"}
        assert doc["config"] == cfg.to_dict()
        row = doc["results"][0]
        assert set(row) == {
            "mechanism", "epsilon", "workload_id", "trial",
            "seed", "avg_l1_error", "wall_ms",
        }

    def test_data_from_file(self, tmp_path):
        data_path = tmp_path / "x.txt"
        data_path.write_text("\n".join(["4"] * 32) + "\n")
        cfg = small_config(
            data={"path": str(data_path)}, n=0, trials=1, num_workloads=1
        )
        rep = run_experiment(cfg)
        assert len(rep.results) == 4  # 2 mechanisms x 2 epsilons
