"""End-to-end mechanisms: budget accounting, baselines, dispatch."""

from unittest import mock

import numpy as np
import pytest

from dawa import estimation
from dawa.core import (
    EPSILON_FLOOR,
    DataVector,
    ParameterError,
    PrivacyBudget,
    RngStream,
    Workload,
    evaluate_workload,
)
from dawa.estimation import build_query_tree, leaf_cover_sums, measure
from dawa.generators import gen_synthetic_data, gen_workload
from dawa.mechanisms import (
    MECHANISM_NAMES,
    MechanismConfig,
    private_stage1,
    run_dawa,
    run_greedy_no_partition,
    run_hier_geometric,
    run_hier_uniform,
    run_identity,
    run_mechanism,
    run_partition_laplace,
)
from dawa.partition import PartitionParams, all_costs, deviation_table, perturb_costs

from .memory import peak_bytes
from .reference import reference_identity, reference_partition_laplace


@pytest.fixture
def piecewise_x():
    return gen_synthetic_data("piecewise_constant", 64, seed=2, segments=4)


@pytest.fixture
def uniform_W():
    return gen_workload("uniform", 64, seed=3, num_queries=40)


class TestIdentity:
    def test_deterministic(self, piecewise_x):
        a = run_identity(piecewise_x, 0.5, RngStream(1))
        b = run_identity(piecewise_x, 0.5, RngStream(1))
        assert np.array_equal(a.values, b.values)

    def test_noise_scale_on_ledger(self, piecewise_x):
        ledger = []
        run_identity(piecewise_x, 0.5, RngStream(1, ledger=ledger))
        assert ledger == [(2.0, piecewise_x.n)]

    def test_converges(self, piecewise_x):
        got = run_identity(piecewise_x, 1e9, RngStream(1))
        assert np.max(np.abs(got.values - piecewise_x.counts)) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 7, 64, 2048])
def test_flat_tree_baselines_keep_their_direct_bits(n):
    # on the flat tree least squares returns each noisy count as it is, so
    # identity and partition_laplace are their direct formulas bit for bit;
    # and a two-stage release that takes a private_stage1 record, made
    # without the shared deviations at even seeds and with them at odd ones,
    # is the fresh release
    x = DataVector(np.random.default_rng(n).integers(0, 50, size=n))
    W = gen_workload("uniform", n, seed=n, num_queries=20)
    tables = {mode: deviation_table(x, mode) for mode in ("pow2", "all")}
    for eps in (0.1, 1.0, 1e9):
        budget = PrivacyBudget.split(eps)
        for seed in range(3):
            for mode, table in tables.items():
                ledgers = {"dawa": [], "partition_laplace": []}
                fresh = {"dawa": run_dawa(x, W, budget, RngStream(seed, ledgers["dawa"]), mode),
                         "partition_laplace": run_partition_laplace(
                             x, budget, RngStream(seed, ledgers["partition_laplace"]), mode)}
                want_ledger = []
                want = reference_partition_laplace(x, budget, RngStream(seed, want_ledger), mode, table)
                assert fresh["partition_laplace"].values.tobytes() == want.values.tobytes()
                assert ledgers["partition_laplace"] == want_ledger
                record = private_stage1(x, budget, RngStream(seed), mode, (None, table)[seed % 2])
                for name, want in fresh.items():
                    got_ledger = []
                    got = run_mechanism(MechanismConfig(name, budget, mode), x, W, RngStream(seed, got_ledger), record)
                    assert got.values.tobytes() == want.values.tobytes()
                    assert got_ledger == ledgers[name]
            got_ledger, want_ledger = [], []
            got = run_identity(x, eps, RngStream(seed, got_ledger))
            want = reference_identity(x, eps, RngStream(seed, want_ledger))
            assert got.values.tobytes() == want.values.tobytes()
            assert got_ledger == want_ledger == [(1.0 / eps, n)]


@pytest.mark.parametrize("name", MECHANISM_NAMES)
def test_stage2_noise_is_drawn_once_in_measure(name, measured_trees, piecewise_x, uniform_W):
    budget = PrivacyBudget(1.0, 0.25, 0.75)
    ledger = []
    run_mechanism(MechanismConfig(name=name, budget=budget), piecewise_x, uniform_W, RngStream(4, ledger=ledger))
    (tree,) = measured_trees
    two_stage = name in ("dawa", "partition_laplace")
    # stage 1's one entry, if any, then measure's, one draw per scaled node
    assert len(ledger) == 1 + two_stage
    assert ledger[-1] == (1.0 / (budget.eps2 if two_stage else budget.epsilon), int(np.sum(tree.scalings > 0)))
    if name in ("identity", "partition_laplace"):
        assert tree.level_sizes == (tree.k,) and np.all(tree.scalings == 1.0)


class TestHierBaselines:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 37, 64, 100])
    @pytest.mark.parametrize("runner", [run_hier_uniform, run_hier_geometric])
    def test_zero_noise_recovery(self, n, runner):
        x = DataVector(np.arange(n) % 5)
        got = runner(x, 1e9, RngStream(0), t=2)
        assert np.max(np.abs(got.values - x.counts)) < 1e-5

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 37, 64])
    def test_cover_sums_exactly_one(self, n, measured_trees):
        # every leaf column must sum to 1.0 exactly, not within float
        # tolerance: that is the privacy budget
        x = DataVector(np.ones(n, dtype=np.int64))
        run_hier_uniform(x, 1.0, RngStream(0))
        run_hier_geometric(x, 1.0, RngStream(0))
        assert len(measured_trees) == 2
        for tree in measured_trees:
            assert np.all(leaf_cover_sums(tree) == 1.0)

    def test_geometric_weights_leaf_heavy(self, measured_trees):
        run_hier_geometric(DataVector(np.ones(8, dtype=np.int64)), 1.0, RngStream(0))
        (tree,) = measured_trees
        weights = [tree.scalings[sum(tree.level_sizes[:d])] for d in range(len(tree.level_sizes))]
        assert weights[-1] == max(weights)
        assert all(a < b for a, b in zip(weights, weights[1:]))

    def test_deterministic(self, piecewise_x):
        a = run_hier_uniform(piecewise_x, 0.5, RngStream(2))
        b = run_hier_uniform(piecewise_x, 0.5, RngStream(2))
        assert np.array_equal(a.values, b.values)


class TestPartitionLaplace:
    def test_zero_noise_on_flat_segments(self):
        x = DataVector([6] * 8 + [2] * 8)
        got = run_partition_laplace(x, PrivacyBudget.split(1e9), RngStream(0), mode="all")
        assert np.max(np.abs(got.values - x.counts)) < 1e-5

    def test_budget_ledger(self, piecewise_x):
        ledger = []
        run_partition_laplace(
            piecewise_x, PrivacyBudget(1.0, 0.25, 0.75), RngStream(1, ledger=ledger)
        )
        scales = {s for s, _ in ledger}
        # stage 1 pays 2*sensitivity/eps1 per cost entry, stage 2 pays 1/eps2
        assert scales == {2.0 * 2.0 / 0.25, 1.0 / 0.75}


class TestGreedyNoPartition:
    def test_equals_identity_on_identity_workload(self, piecewise_x):
        W = gen_workload("identity", 64, seed=0)
        a = run_identity(piecewise_x, 0.5, RngStream(7))
        b = run_greedy_no_partition(piecewise_x, W, 0.5, RngStream(7))
        assert np.array_equal(a.values, b.values)

    def test_zero_noise(self, piecewise_x, uniform_W):
        got = run_greedy_no_partition(piecewise_x, uniform_W, 1e9, RngStream(0))
        assert np.max(np.abs(got.values - piecewise_x.counts)) < 1e-5


class TestLargeDomainMemory:
    # n = 16384 unit buckets: a dense k x k Gram alone would take 2 GiB
    N = 16384

    @pytest.mark.parametrize("runner", ["greedy_no_partition", "hier_uniform"])
    def test_peak_traced_memory(self, runner):
        x = gen_synthetic_data("piecewise_constant", self.N, seed=4, segments=8)
        W = gen_workload("uniform", self.N, seed=5, num_queries=20)
        if runner == "greedy_no_partition":
            peak, got = peak_bytes(run_greedy_no_partition, x, W, 1.0, RngStream(6))
        else:
            peak, got = peak_bytes(run_hier_uniform, x, 1.0, RngStream(6))
        assert got.values.shape == (self.N,)
        assert np.all(np.isfinite(got.values))
        assert peak < 200 * 2**20


class TestDawa:
    def test_deterministic(self, piecewise_x, uniform_W):
        budget = PrivacyBudget.split(0.5)
        a = run_dawa(piecewise_x, uniform_W, budget, RngStream(3))
        b = run_dawa(piecewise_x, uniform_W, budget, RngStream(3))
        assert np.array_equal(a.values, b.values)

    def test_zero_noise(self, piecewise_x, uniform_W):
        got = run_dawa(piecewise_x, uniform_W, PrivacyBudget.split(1e9), RngStream(0))
        assert np.max(np.abs(got.values - piecewise_x.counts)) < 1e-4

    def test_budget_ledger(self, piecewise_x, uniform_W):
        ledger = []
        run_dawa(
            piecewise_x, uniform_W, PrivacyBudget(1.0, 0.25, 0.75),
            RngStream(3, ledger=ledger),
        )
        scales = {s for s, _ in ledger}
        assert scales == {2.0 * 2.0 / 0.25, 1.0 / 0.75}

    @pytest.mark.parametrize("mode, n", [("all", 200), ("pow2", 8192)])
    def test_one_ledger_entry_per_stage(self, mode, n):
        # stage 1 draws its 20,100 or 98,319 candidates' noise in slices but
        # records it once, before the first slice
        x = gen_synthetic_data("piecewise_constant", n, seed=2, segments=4)
        ledger = []
        run_dawa(x, gen_workload("uniform", n, seed=3, num_queries=40),
                 PrivacyBudget(1.0, 0.25, 0.75), RngStream(3, ledger=ledger), mode=mode)
        assert [s for s, _ in ledger] == [2.0 * 2.0 / 0.25, 1.0 / 0.75]
        assert ledger[0][1] == len(all_costs(x, 0.75, mode))

    def test_estimates_unclamped(self):
        # near-zero counts with real noise must be allowed to go negative
        x = DataVector([0] * 32)
        W = gen_workload("identity", 32, seed=0)
        got = run_dawa(x, W, PrivacyBudget.split(0.5), RngStream(11))
        assert np.min(got.values) < 0.0

    def test_modes_and_branching(self, piecewise_x, uniform_W):
        budget = PrivacyBudget.split(1.0)
        for mode in ("all", "pow2"):
            for t in (2, 3):
                got = run_dawa(piecewise_x, uniform_W, budget, RngStream(0), mode=mode, t=t)
                assert got.values.shape == (64,)

    def test_bad_branching_is_refused_before_stage1(self, monkeypatch, piecewise_x, uniform_W):
        def stage1(*args):
            raise AssertionError("stage 1 ran")

        monkeypatch.setattr("dawa.mechanisms.private_partition", stage1)
        with pytest.raises(ParameterError, match=r"^need branching t >= 2, got 1$"):
            run_dawa(piecewise_x, uniform_W, PrivacyBudget.split(1.0), RngStream(0), t=1)


class TestDispatch:
    def test_all_names_run(self, piecewise_x, uniform_W):
        budget = PrivacyBudget.split(1.0)
        for name in MECHANISM_NAMES:
            cfg = MechanismConfig(name=name, budget=budget)
            got = run_mechanism(cfg, piecewise_x, uniform_W, RngStream(0))
            assert got.values.shape == (64,)
            assert np.all(np.isfinite(got.values))

    def test_unknown_name(self):
        with pytest.raises(ParameterError):
            MechanismConfig(name="magic", budget=PrivacyBudget.split(1.0))

    def test_deterministic_dispatch(self, piecewise_x, uniform_W):
        cfg = MechanismConfig(name="dawa", budget=PrivacyBudget.split(1.0))
        a = run_mechanism(cfg, piecewise_x, uniform_W, RngStream(5))
        b = run_dawa(piecewise_x, uniform_W, cfg.budget, RngStream(5))
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("name", MECHANISM_NAMES)
    @pytest.mark.parametrize("n", [8, 64])
    def test_tiny_epsilon(self, name, n):
        # the least budget: both shares at the floor on epsilon, so the largest
        # noise scale, 4/eps1 = 2**52, is drawn and every estimate is finite,
        # with no warning; one ulp less and split refuses the budget
        x = gen_synthetic_data("piecewise_constant", n, seed=2, segments=4)
        W = gen_workload("uniform", n, seed=3, num_queries=20)
        budget = PrivacyBudget.split(2 * EPSILON_FLOOR, 0.5)
        assert budget.eps1 == budget.eps2 == EPSILON_FLOOR
        ledger = []
        got = run_mechanism(MechanismConfig(name=name, budget=budget), x, W, RngStream(0, ledger=ledger))
        assert np.all(np.isfinite(got.values))
        assert max(scale for scale, _ in ledger) == (2.0**52 if name in ("dawa", "partition_laplace") else 2.0**49)
        with pytest.raises(ParameterError, match=r"^epsilon = .* is too small: its stage-1 share"):
            PrivacyBudget.split(np.nextafter(2 * EPSILON_FLOOR, 0), 0.5)

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            MechanismConfig(name="dawa", budget=PrivacyBudget.split(1.0), mode="bad")
        with pytest.raises(ParameterError, match=r"^need branching t >= 2, got 1$"):
            MechanismConfig(name="dawa", budget=PrivacyBudget.split(1.0), branching=1)


def _epsilon_entries():
    x = gen_synthetic_data("piecewise_constant", 16, seed=2, segments=2)
    W = gen_workload("uniform", 16, seed=3, num_queries=5)
    return {
        "all_costs": ("eps2", lambda eps: all_costs(x, eps)),
        "perturb_costs": ("eps1", lambda eps: perturb_costs(deviation_table(x), eps, RngStream(0))),
        "measure": ("eps2", lambda eps: measure(x.counts, build_query_tree(16), eps, RngStream(0))),
        "run_identity": ("eps", lambda eps: run_identity(x, eps, RngStream(0))),
        "run_hier_uniform": ("eps", lambda eps: run_hier_uniform(x, eps, RngStream(0))),
        "run_hier_geometric": ("eps", lambda eps: run_hier_geometric(x, eps, RngStream(0))),
        "run_greedy_no_partition": ("eps", lambda eps: run_greedy_no_partition(x, W, eps, RngStream(0))),
        "PrivacyBudget": ("eps1", lambda eps: PrivacyBudget(1.0, eps, 1.0 - eps)),
        "PartitionParams": ("eps2", lambda eps: PartitionParams(0.25, eps)),
    }


@pytest.mark.parametrize("entry, eps", [(entry, eps) for entry in _epsilon_entries()
                                        for eps in (np.nan, np.inf, 0.0, -1.0)])
def test_bad_epsilon_is_refused_by_name_before_any_work(entry, eps):
    name, call = _epsilon_entries()[entry]
    with mock.patch.object(estimation, "greedy_scale", wraps=estimation.greedy_scale) as spy:
        with pytest.raises(ParameterError, match=rf"^{name} must be positive"):
            call(eps)
    spy.assert_not_called()


class TestRegimeSmoke:
    def test_dawa_beats_identity_on_blocky_data(self):
        # small version of the qualitative claim; the acceptance suite runs
        # the full-size comparison
        n, eps, trials = 256, 0.1, 6
        x = gen_synthetic_data("piecewise_constant", n, seed=1, segments=4)
        W = gen_workload("uniform", n, seed=2, num_queries=200)
        y = evaluate_workload(W, x)

        def mean_err(runner):
            errs = []
            for s in range(trials):
                xhat = runner(RngStream(1000 + s))
                errs.append(float(np.mean(np.abs(evaluate_workload(W, xhat) - y))))
            return float(np.mean(errs))

        e_dawa = mean_err(lambda r: run_dawa(x, W, PrivacyBudget.split(eps), r, mode="pow2"))
        e_ident = mean_err(lambda r: run_identity(x, eps, r))
        assert e_dawa < e_ident
