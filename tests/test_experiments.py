"""Experiment grid: config plumbing, seed discipline, report stability."""

import json

import numpy as np
import pytest

import dawa.experiments
from dawa.core import ParameterError, PrivacyBudget, RngStream, average_workload_error, derive_seed
from dawa.experiments import (
    ExperimentConfig,
    TrialResult,
    compute_aggregates,
    report_emit,
    run_experiment,
    _load_data,
)
from dawa.generators import gen_workload
from dawa.mechanisms import MECHANISM_NAMES, MechanismConfig, run_mechanism


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
        doc = json.loads(p.read_text())
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


class TestSharedWork:
    """Stage 1's deviations and greedy_no_partition's tree depend on neither
    epsilon nor the noise: an experiment makes them once and its trials
    only read them, with the bits of a release that makes its own."""

    @staticmethod
    def config(mode):
        # n = 200 in mode all has 20,100 candidates: 3 slices of stage 1
        return small_config(mechanisms=MECHANISM_NAMES, mode=mode, n=200, trials=2, epsilons=(0.1, 1.0))

    @pytest.mark.parametrize("mode", ["all", "pow2"])
    def test_rows_equal_fresh_releases(self, mode):
        cfg = self.config(mode)
        report = run_experiment(cfg)
        x = _load_data(cfg)
        workloads = [gen_workload("uniform", x.n, derive_seed(cfg.master_seed, "workload", wid), num_queries=25)
                     for wid in range(cfg.num_workloads)]
        assert len(report.results) == 6 * 2 * 2 * 2
        for row in report.results:
            config = MechanismConfig(row.mechanism, PrivacyBudget.split(row.epsilon), mode=mode)
            xhat = run_mechanism(config, x, workloads[row.workload_id], RngStream(row.seed))
            assert row.avg_l1_error == average_workload_error(workloads[row.workload_id], x, xhat)

    def test_made_once_and_read_only(self, monkeypatch):
        seen, indexes = [], []
        real_run, real_index = dawa.experiments.run_mechanism, dawa.partition._WindowIndex

        def run(config, x, W, rng, shared):
            seen.append(shared)
            return real_run(config, x, W, rng, shared)

        def index(values):
            indexes.append(values.size)
            return real_index(values)

        monkeypatch.setattr(dawa.experiments, "run_mechanism", run)
        monkeypatch.setattr(dawa.partition, "_WindowIndex", index)
        run_experiment(self.config("all"))
        # one window index for the whole experiment, none per trial
        assert indexes == [200]
        deviations = {id(shared.deviations) for shared in seen}
        trees = {id(shared.unit_tree) for shared in seen}
        assert len(seen) == 48 and len(deviations) == 1 and len(trees) == 2
        for shared in seen:
            assert not shared.deviations.costs.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                shared.unit_tree.scalings[0] = 1.0

    def test_memory_check_charges_a_table_per_trial_process(self, monkeypatch):
        # 20,100 candidates of 8 B: the shared deviations and one trial's noisy costs
        def run(*args):
            raise AssertionError("a trial started")

        monkeypatch.setattr("dawa.partition._physical_memory", lambda: 2.5 * 8 * 20_100)
        assert len(run_experiment(self.config("all")).results) == 48
        monkeypatch.setattr("dawa.partition._physical_memory", lambda: 1.5 * 8 * 20_100)
        monkeypatch.setattr(dawa.experiments, "run_mechanism", run)
        with pytest.raises(ParameterError, match=r"needs about .* for 20100 candidate buckets \(mode 'all', n = 200\)"):
            run_experiment(self.config("all"))

    def test_overflow_at_smallest_epsilon_refused_before_any_trial(self, monkeypatch, window_index_calls):
        # at eps 1e-306 stage 1's costs could overflow; at 1.0 they could not
        def run(*args):
            raise AssertionError("a trial started")

        monkeypatch.setattr(dawa.experiments, "run_mechanism", run)
        with pytest.raises(ParameterError, match="a larger eps1 or eps2 is needed"):
            run_experiment(small_config(epsilons=(1.0, 1e-306)))
        assert window_index_calls == []

    def test_one_stage1_ledger_entry_per_trial(self, monkeypatch):
        ledgers = []

        def stream(seed):
            ledgers.append([])
            return RngStream(seed, ledger=ledgers[-1])

        monkeypatch.setattr(dawa.experiments, "RngStream", stream)
        report = run_experiment(self.config("all"))
        assert len(ledgers) == len(report.results)
        for row, ledger in zip(report.results, ledgers):
            if row.mechanism in ("dawa", "partition_laplace"):
                eps1 = PrivacyBudget.split(row.epsilon).eps1
                assert len(ledger) == 2 and ledger[0] == (2.0 * 2.0 / eps1, 20_100)
            else:
                assert len(ledger) == 1
