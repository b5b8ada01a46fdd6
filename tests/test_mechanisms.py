"""End-to-end mechanisms: budget accounting, baselines, dispatch."""

import numpy as np
import pytest

from dawa.core import (
    DataVector,
    ParameterError,
    PrivacyBudget,
    RngStream,
    Workload,
    evaluate_workload,
)
from dawa.estimation import build_query_tree, leaf_cover_sums
from dawa.generators import gen_synthetic_data, gen_workload
from dawa.mechanisms import (
    MECHANISM_NAMES,
    MechanismConfig,
    _level_weights,
    run_dawa,
    run_greedy_no_partition,
    run_hier_geometric,
    run_hier_uniform,
    run_identity,
    run_mechanism,
    run_partition_laplace,
)
from dawa.partition import all_costs

from .memory import peak_bytes


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


class TestHierBaselines:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 37, 64, 100])
    @pytest.mark.parametrize("runner", [run_hier_uniform, run_hier_geometric])
    def test_zero_noise_recovery(self, n, runner):
        x = DataVector(np.arange(n) % 5)
        got = runner(x, 1e9, RngStream(0), t=2)
        assert np.max(np.abs(got.values - x.counts)) < 1e-5

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 37, 64])
    def test_cover_sums_exactly_one(self, n):
        # the per-level weights must make every leaf column sum to 1.0
        # exactly, not within float tolerance: that is the privacy budget
        tree = build_query_tree(n, 2)
        L = len(tree.level_sizes)
        for raw in ([1.0] * L, [2.0 ** (-(L - 1 - d) / 3.0) for d in range(L)]):
            weights = _level_weights(raw)
            assert sum(w for w in weights) <= 1.0 + 0.0  # no overshoot
            tree.scalings[:] = np.repeat(weights, tree.level_sizes)
            cover = leaf_cover_sums(tree)
            assert np.all(cover == 1.0)

    def test_geometric_weights_leaf_heavy(self):
        weights = _level_weights([2.0 ** (-(3 - d) / 3.0) for d in range(4)])
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
        # at 1e-300 every noise scale is finite and so are the estimates; at
        # 1e-310 (subnormal) 1/eps overflows and the sampler rejects the scale
        x = gen_synthetic_data("piecewise_constant", n, seed=2, segments=4)
        W = gen_workload("uniform", n, seed=3, num_queries=20)
        got = run_mechanism(MechanismConfig(name=name, budget=PrivacyBudget.split(1e-300)),
                            x, W, RngStream(0))
        assert np.all(np.isfinite(got.values))
        with pytest.raises(ParameterError, match="scale must be positive and finite"):
            run_mechanism(MechanismConfig(name=name, budget=PrivacyBudget.split(1e-310)),
                          x, W, RngStream(0))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            MechanismConfig(name="dawa", budget=PrivacyBudget.split(1.0), mode="bad")
        with pytest.raises(ParameterError, match=r"^need branching t >= 2, got 1$"):
            MechanismConfig(name="dawa", budget=PrivacyBudget.split(1.0), branching=1)


def test_dawa_refuses_costs_that_overflow(window_index_calls):
    # at eps = 1e-306 the noisy stage-1 costs near 1e308 overflow when summed;
    # refused from the parameters, before any cost
    x = gen_synthetic_data("piecewise_constant", 1024, seed=1)
    W = gen_workload("uniform", 1024, seed=2, num_queries=50)
    with pytest.raises(ParameterError, match="a larger eps1 or eps2 is needed"):
        run_dawa(x, W, PrivacyBudget.split(1e-306), RngStream(1))
    assert window_index_calls == []


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
