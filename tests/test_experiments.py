"""Experiment grid: config plumbing, seed discipline, report stability."""

import json
from dataclasses import replace

import numpy as np
import pytest

import dawa.estimation
import dawa.experiments
import dawa.mechanisms
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
        # a repeat would count one trial's seed as several trials; 1 and 1.0 are one epsilon
        for field, value in (("mechanisms", ["dawa", "dawa"]), ("epsilons", [1, 1.0])):
            with pytest.raises(ParameterError, match=rf"^config '{field}' must be .* without repeats, got \["):
                small_config(**{field: value})


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

    def test_value_json_cannot_carry_is_not_written(self, tmp_path):
        report = run_experiment(small_config(trials=1, num_workloads=1))
        for bad in (float("nan"), float("inf")):
            rows = (replace(report.results[0], avg_l1_error=bad),) + report.results[1:]
            p = tmp_path / "r.json"
            with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
                report_emit(replace(report, results=rows), p)
            assert not p.exists()

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
    only read them, with the bits of a release that makes its own.  The
    private partition of an (epsilon, trial) is made once too and serves
    both dawa and partition_laplace."""

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

    @pytest.mark.parametrize("mode", ["all", "pow2"])
    def test_one_private_partition_per_epsilon_and_trial(self, monkeypatch, mode):
        # dawa and partition_laplace draw the same stage-1 noise from the same seed
        calls = []
        real = dawa.partition.least_cost_partition

        def spy(table, n):
            calls.append(n)
            return real(table, n)

        monkeypatch.setattr(dawa.partition, "least_cost_partition", spy)
        cfg = self.config(mode)
        run_experiment(cfg)
        assert len(calls) == cfg.num_workloads * len(cfg.epsilons) * cfg.trials == 8

    @staticmethod
    def rows(cfg, mechanism=None):
        return {(r.mechanism, r.epsilon, r.workload_id, r.trial): r for r in run_experiment(cfg).results
                if mechanism in (None, r.mechanism)}

    def test_rows_do_not_depend_on_which_mechanism_makes_the_partition(self):
        cfg = self.config("pow2")
        swapped = ("partition_laplace",) + tuple(m for m in MECHANISM_NAMES if m != "partition_laplace")
        assert self.rows(cfg) == self.rows(small_config(**{**cfg.to_dict(), "mechanisms": swapped}))

    @pytest.mark.parametrize("mode", ["all", "pow2"])
    @pytest.mark.parametrize("mechanism", MECHANISM_NAMES)
    def test_alone_has_its_rows_in_the_full_grid(self, mechanism, mode):
        cfg = self.config(mode)
        alone = self.rows(small_config(**{**cfg.to_dict(), "mechanisms": [mechanism]}))
        assert len(alone) == 8 and alone == self.rows(cfg, mechanism)

    def test_made_once_and_read_only(self, monkeypatch):
        seen, indexes, built, read = [], [], [], []
        real_run, real_index = dawa.experiments.run_mechanism, dawa.partition._WindowIndex
        real_build, real_stage1 = dawa.estimation.build_query_tree, dawa.experiments.private_stage1

        def run(config, x, W, rng, stage1, tree):
            seen.append((config, rng.seed, stage1, tree))
            return real_run(config, x, W, rng, stage1, tree)

        def stage1(x, budget, rng, mode, deviations):
            read.append(deviations)
            return real_stage1(x, budget, rng, mode, deviations)

        def index(values):
            indexes.append(values.size)
            return real_index(values)

        def build(k, t=2):
            built.append(k)
            return real_build(k, t)

        monkeypatch.setattr(dawa.experiments, "run_mechanism", run)
        monkeypatch.setattr(dawa.experiments, "private_stage1", stage1)
        monkeypatch.setattr(dawa.partition, "_WindowIndex", index)
        monkeypatch.setattr(dawa.estimation, "build_query_tree", build)
        monkeypatch.setattr(dawa.mechanisms, "build_query_tree", build)
        cfg = self.config("all")
        run_experiment(cfg)
        # one window index and one read-only deviation table for the whole
        # experiment, read by every stage-1 record
        assert indexes == [200]
        assert len(read) == cfg.num_workloads * len(cfg.epsilons) * cfg.trials == 8
        assert len({id(deviations) for deviations in read}) == 1 and not read[0].costs.flags.writeable
        # no trial builds a tree: two hier_* trees per experiment, then per
        # workload one dawa tree per (epsilon, trial) and the unit tree
        assert len(seen) == 48
        assert len(built) == 2 + cfg.num_workloads * (len(cfg.epsilons) * cfg.trials + 1)
        trees = {name: [tree for config, _, _, tree in seen if config.name == name] for name in MECHANISM_NAMES}
        # each dawa tree is given to one trial; identity's flat tree is one per experiment
        for name, made in (("dawa", 8), ("identity", 1), ("hier_uniform", 1), ("hier_geometric", 1),
                           ("greedy_no_partition", 2)):
            assert len({id(tree) for tree in trees[name]}) == made
        assert len(trees["dawa"]) == 8 and trees["identity"][0].level_sizes == (200,)
        assert trees["partition_laplace"] == [None] * 8
        records = {}
        for config, seed, record, tree in seen:
            if config.name in ("dawa", "partition_laplace"):  # both read the (epsilon, trial)'s one record
                assert records.setdefault((config.budget.epsilon, seed), record) is record is not None
            if tree is not None:
                with pytest.raises(ValueError, match="read-only"):
                    tree.scalings[0] = 1.0
        assert len(records) == 8

    def test_one_forest_pass_per_workload(self, monkeypatch):
        # every dawa tree of a workload and its unit tree are scaled in one pass
        passes = []
        real = dawa.estimation._scale_pass

        def spy(pairs):
            passes.append(len(pairs))
            return real(pairs)

        monkeypatch.setattr(dawa.estimation, "_scale_pass", spy)
        cfg = self.config("pow2")
        run_experiment(cfg)
        assert passes == [len(cfg.epsilons) * cfg.trials + 1] * cfg.num_workloads == [5, 5]

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

    def test_one_stage1_ledger_entry_per_trial(self, monkeypatch):
        # run_experiment makes the stage-1 records' streams too: read the trials' own
        ledgers = []
        real = dawa.experiments.run_mechanism

        def run(config, x, W, rng, stage1, tree):
            ledgers.append(rng.ledger)
            return real(config, x, W, rng, stage1, tree)

        monkeypatch.setattr(dawa.experiments, "RngStream", lambda seed: RngStream(seed, ledger=[]))
        monkeypatch.setattr(dawa.experiments, "run_mechanism", run)
        report = run_experiment(self.config("all"))
        assert len(ledgers) == len(report.results)
        for row, ledger in zip(report.results, ledgers):
            budget = PrivacyBudget.split(row.epsilon)
            if row.mechanism in ("dawa", "partition_laplace"):
                assert len(ledger) == 2 and ledger[0] == (2.0 * 2.0 / budget.eps1, 20_100)
                assert ledger[1][0] == 1.0 / budget.eps2
            else:
                assert len(ledger) == 1
