"""Measurement-tree scaling: greedy budget split, fast objective, OLS recovery."""

import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dawa import estimation
from dawa.core import (
    DataVector,
    DimensionError,
    ParameterError,
    Partition,
    RngStream,
    SingularStrategyError,
    Workload,
    laplace_sample,
)
from dawa.estimation import (
    LAMBDA_CAP,
    _PackedQueries,
    _image_norms2,
    _objective,
    _search_lambda,
    build_query_tree,
    decay_factor,
    estimate_buckets,
    flat_tree,
    greedy_scale,
    greedy_scale_forest,
    leaf_cover_sums,
    measure,
    ols_infer,
)
from dawa.mechanisms import run_hier_geometric, run_hier_uniform
from dawa.transform import transform_workload

from .memory import peak_bytes
from .reference import (dense_ols, dense_scaling_objective, node_by_node_greedy, rows_of,
                        oracle_dense_stage2, strategy_error, strategy_matrix, undo_root_discount)
from .strategies import partitions_of, random_transformed_workload, workload_of, workloads_over


def dense(What):
    """The m-by-k matrix of a transformed workload, written one query at a time."""
    return rows_of(What)


def identity_workload(k):
    """Every bucket of the unit partition of [1, k] as its own query."""
    part = Partition.unit(k)
    return transform_workload(workload_of(part), part)


def whole_domain_workload(k):
    """The one query [1, k] over the unit partition."""
    return transform_workload(Workload([1], [k]), Partition.unit(k))


def scaled_identity_tree(k, t=2):
    """Tree scaled by the greedy pass on the identity workload over k buckets."""
    return greedy_scale(identity_workload(k), build_query_tree(k, t))


def explicit_grouping_bounds(k, t):
    """Node bounds in level order from grouping runs of t nodes bottom-up."""
    level = [(j, j) for j in range(1, k + 1)]
    levels = [level]
    while len(level) > 1:
        level = [(group[0][0], group[-1][1]) for group in (level[i : i + t] for i in range(0, len(level), t))]
        levels.append(level)
    return [node for lev in reversed(levels) for node in lev]


def objective_at(sums, lam, mu):
    return float(_objective(sums, mu, lam)[0])


def searched_columns(What, t):
    """Every (sums, mu) batch the greedy pass hands the weight search, split
    into one batch per decay mu."""
    seen = []

    def record(sums, mu):
        for one in np.unique(mu):
            seen.append((sums[:, mu == one].copy(), float(one)))
        return _search_lambda(sums, mu)

    with mock.patch.object(estimation, "_search_lambda", record):
        greedy_scale(What, build_query_tree(What.partition.k, t))
    return seen


class TestTreeStructure:
    def test_single_leaf(self):
        tree = build_query_tree(1)
        assert tree.k == 1
        assert tree.level_sizes == (1,)
        assert tree.num_nodes() == 1
        los, his = tree.bounds()
        assert los.tolist() == [1] and his.tolist() == [1]

    def test_balanced_eight(self):
        tree = build_query_tree(8, 2)
        assert tree.level_sizes == (1, 2, 4, 8)
        los, his = tree.bounds()
        assert list(zip(los.tolist()[:3], his.tolist()[:3])) == [(1, 8), (1, 4), (5, 8)]

    def test_ragged_seven(self):
        tree = build_query_tree(7, 2)
        assert tree.level_sizes == (1, 2, 4, 7)
        los, his = tree.bounds()
        # the last node of each level holds the remainder
        assert list(zip(los.tolist()[1:7], his.tolist()[1:7])) == [
            (1, 4), (5, 7), (1, 2), (3, 4), (5, 6), (7, 7)]

    def test_ternary(self):
        tree = build_query_tree(9, 3)
        assert tree.level_sizes == (1, 3, 9)

    def test_leaf_intervals_are_units(self):
        tree = build_query_tree(12, 3)
        los, his = tree.bounds()
        assert los[-12:].tolist() == his[-12:].tolist() == list(range(1, 13))

    def test_parent_spans_children(self):
        # node i's children are nodes t*i .. t*i + t - 1 of the level below,
        # which tile the parent's interval left to right
        for k, t in ((13, 2), (29, 3), (70, 4)):
            tree = build_query_tree(k, t)
            los, his = tree.bounds()
            starts = np.cumsum((0,) + tree.level_sizes)
            for d in range(len(tree.level_sizes) - 1):
                for i in range(tree.level_sizes[d]):
                    first = starts[d + 1] + t * i
                    last = min(first + t, starts[d + 2]) - 1
                    assert los[starts[d] + i] == los[first]
                    assert his[starts[d] + i] == his[last]
                    assert np.array_equal(los[first + 1 : last + 1], his[first:last] + 1)

    def test_levels_are_top_down(self):
        tree = build_query_tree(16, 2)
        los, his = tree.bounds()
        assert tree.level_sizes[0] == 1 and (los[0], his[0]) == (1, 16)
        assert tree.level_sizes[-1] == 16

    def test_nodes_level_order(self):
        # root first; each level's nodes run left to right and tile [1, k]
        # in spans of t**height, the last one possibly shorter
        tree = build_query_tree(6, 2)
        los, his = tree.bounds()
        assert len(los) == tree.num_nodes()
        starts = np.cumsum((0,) + tree.level_sizes)
        height = len(tree.level_sizes) - 1
        for d, (a, b) in enumerate(zip(starts, starts[1:])):
            assert los[a] == 1 and his[b - 1] == 6
            assert np.array_equal(los[a + 1 : b], his[a : b - 1] + 1)
            assert np.all(his[a:b] - los[a:b] + 1 <= 2 ** (height - d))
            assert his[a] - los[a] + 1 == min(2 ** (height - d), 6)

    def test_bounds_match_explicit_grouping(self):
        # the closed form equals grouping runs of t nodes level by level
        for t in (2, 3, 4, 5):
            for k in range(1, 300):
                tree = build_query_tree(k, t)
                los, his = tree.bounds()
                assert los.dtype == his.dtype == np.int64
                assert list(zip(los.tolist(), his.tolist())) == explicit_grouping_bounds(k, t)
                assert sum(tree.level_sizes) == tree.num_nodes() == len(los)

    def test_initial_scalings(self):
        tree = build_query_tree(8, 2)
        assert tree.scalings.dtype == np.float64
        assert tree.scalings.tolist() == [0.0] * 7 + [1.0] * 8

    def test_invalid_args(self):
        with pytest.raises(ParameterError):
            build_query_tree(0)
        with pytest.raises(ParameterError):
            build_query_tree(4, 1)


class TestDecay:
    def test_values(self):
        assert decay_factor(2, 0) == 1.0
        assert decay_factor(2, 2) == 0.5
        assert decay_factor(4, 1) == 0.5
        assert decay_factor(3, 2) == pytest.approx(1.0 / 3.0)

    def test_monotone_in_depth(self):
        vals = [decay_factor(2, d) for d in range(8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestCoverSums:
    def test_leaves_only(self):
        tree = build_query_tree(8, 2)
        assert np.array_equal(leaf_cover_sums(tree), np.ones(8))

    def test_manual_scaling(self):
        tree = build_query_tree(4, 2)
        tree.scalings[:] = 0.25
        # each leaf is covered once per level
        assert np.allclose(leaf_cover_sums(tree), 0.75)

    def test_matches_strategy_matrix(self):
        # ragged trees: the per-level repeat equals the column sums of the
        # scaled indicator rows
        rng = np.random.default_rng(13)
        for k, t in ((7, 2), (13, 3), (30, 4), (1, 2)):
            tree = build_query_tree(k, t)
            tree.scalings[:] = rng.uniform(size=tree.num_nodes())
            want = tree.scalings @ strategy_matrix(tree)
            assert np.allclose(leaf_cover_sums(tree), want, rtol=1e-12)


class TestObjectiveAgainstDense:
    def test_grid_agreement_small(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            k = int(rng.integers(2, 24))
            t = int(rng.choice([2, 3]))
            What = random_transformed_workload(rng, k, int(rng.integers(1, 12)))
            sums = node_by_node_greedy(dense(What), build_query_tree(k, t))
            tree = greedy_scale(What, build_query_tree(k, t))
            undo_root_discount(tree)
            mu = decay_factor(t, 0)
            for lam in (0.0, 0.1, 0.5, 0.9):
                fast = objective_at(sums, lam, mu)
                slow = dense_scaling_objective(dense(What), tree, lam, mu)
                assert fast == pytest.approx(slow, rel=1e-6, abs=1e-9)

    def test_lambda_zero_is_plain_sum(self):
        rng = np.random.default_rng(3)
        What = random_transformed_workload(rng, 8, 6)
        sums = node_by_node_greedy(dense(What), build_query_tree(8, 2))
        tree = greedy_scale(What, build_query_tree(8, 2))
        undo_root_discount(tree)
        mu = decay_factor(2, 0)
        f0 = objective_at(sums, 0.0, mu)
        assert f0 == sums[0, 0]
        slow = dense_scaling_objective(dense(What), tree, 0.0, mu)
        assert f0 == pytest.approx(slow, rel=1e-9)

    def test_domain_checks(self):
        # the weight search is defined at internal nodes; a one-node tree has none
        with pytest.raises(ParameterError):
            dense_scaling_objective(np.ones((1, 1)), build_query_tree(1), 0.5, 1.0)


class TestOptimizeLambda:
    def test_identity_prefers_zero_exactly(self):
        for k in (2, 3, 4, 7, 16):
            # every internal lambda stays at zero on the identity workload,
            # so the search at the root must return exact 0.0
            sums = node_by_node_greedy(dense(identity_workload(k)), build_query_tree(k, 2))
            assert _search_lambda(sums, decay_factor(2, 0))[0] == 0.0

    @given(st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_column_searched_alone_matches_batch_bit_for_bit(self, t, seed):
        # the columns of one depth from several workloads, searched together
        rng = np.random.default_rng(seed)
        by_mu = {}
        for _ in range(4):
            What = random_transformed_workload(rng, int(rng.integers(2, 40)), int(rng.integers(1, 30)))
            for sums, mu in searched_columns(What, t):
                by_mu.setdefault(mu, []).append(sums)
        for mu, parts in by_mu.items():
            sums = np.hstack(parts)
            batch = _search_lambda(sums, mu)
            alone = [_search_lambda(sums[:, j : j + 1], mu)[0] for j in range(sums.shape[1])]
            assert batch.tobytes() == np.array(alone).tobytes()

    def test_no_worse_than_dense_scan(self):
        # the returned weight is within rounding of the least value over a
        # 100,001-point scan of the whole domain, and lies in [0, LAMBDA_CAP]
        rng = np.random.default_rng(21)
        batches = [searched_columns(random_transformed_workload(rng, int(rng.integers(2, 40)),
                                                                int(rng.integers(1, 10))), 2)
                   for _ in range(15)]
        saturating = [searched_columns(transform_workload(Workload([1] * c, [k] * c), Partition.unit(k)), 2)
                      for k in (4, 16, 33) for c in (1, 2, 3)]
        identity = [searched_columns(identity_workload(k), 2) for k in (2, 7, 16)]
        # an interior minimum one cell inside the end of a 33-point grid,
        # which a zooming grid search missed (it returned 0, f = 16120.125);
        # the least point is near 0.19 with f = 16119.49
        missed = [[(np.array([[16120.125], [32.0], [507666.625], [255922.625]]), decay_factor(2, 7))]]
        dense_grid = np.linspace(0.0, LAMBDA_CAP, 100_001)
        for group in (batches, saturating, identity, missed):
            for sums, mu in (batch for seen in group for batch in seen):
                lam = _search_lambda(sums, mu)
                assert np.all((0.0 <= lam) & (lam <= LAMBDA_CAP))
                best = np.array([_objective(column, mu, dense_grid).min() for column in sums.T])
                got = _objective(sums, mu, lam)
                assert np.all(got <= best + 1e-12 * np.abs(best))
                if group is identity:
                    assert np.all(lam == 0.0)
        assert all(_search_lambda(*seen[-1])[0] > 0.9 for seen in saturating)
        assert _search_lambda(*missed[0][0])[0] == pytest.approx(0.1899, abs=1e-4)
        # a node no query touches: T = B = 0, so the objective is 0 everywhere
        untouched = np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 0.0], [0.0, 0.0]])
        assert _search_lambda(untouched, decay_factor(2, 3)).tolist() == [0.0, 0.0]

    def test_total_sum_pushes_to_cap(self):
        k = 16
        tree = greedy_scale(whole_domain_workload(k), build_query_tree(k, 2))
        assert tree.scalings[0] > 0.9

    def test_result_in_domain(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            k = int(rng.integers(2, 20))
            What = random_transformed_workload(rng, k, 5)
            tree = greedy_scale(What, build_query_tree(k, 2))
            assert np.all((0.0 <= tree.scalings) & (tree.scalings <= 1.0))


class TestGreedyScale:
    def test_identity_fixed_point(self):
        for k in (1, 2, 5, 8, 13, 32):
            tree = scaled_identity_tree(k)
            internal = tree.num_nodes() - k
            assert tree.scalings.tolist() == [0.0] * internal + [1.0] * k

    def test_sensitivity_constraint(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = int(rng.integers(1, 40))
            What = random_transformed_workload(rng, k, int(rng.integers(1, 10)))
            tree = greedy_scale(What, build_query_tree(k, int(rng.choice([2, 3]))))
            assert np.max(leaf_cover_sums(tree)) <= 1.0

    def test_never_worse_than_leaves_only(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            k = int(rng.integers(2, 32))
            t = int(rng.choice([2, 3]))
            What = random_transformed_workload(rng, k, int(rng.integers(1, 8)))
            greedy = greedy_scale(What, build_query_tree(k, t))
            leaves_only = build_query_tree(k, t)  # initialization is leaves-only
            e_greedy = strategy_error(dense(What), greedy, 1.0)
            e_leaves = strategy_error(dense(What), leaves_only, 1.0)
            assert e_greedy <= e_leaves * (1.0 + 1e-9)

    def test_scaling_matches_matrix_error(self):
        # strategy_error agrees with the dense stage-2 oracle
        rng = np.random.default_rng(12)
        k = 12
        What = random_transformed_workload(rng, k, 6)
        tree = greedy_scale(What, build_query_tree(k, 2))
        Y = strategy_matrix(tree)
        c = tree.scalings
        keep = c > 0
        got = strategy_error(dense(What), tree, 0.7)
        want = oracle_dense_stage2(dense(What), Y[keep], c[keep], 0.7)
        assert got == pytest.approx(want, rel=1e-9)

    def test_levels_match_node_by_node_reference(self):
        # the level-batched pass must reproduce the per-node pass: the same
        # zero weights exactly, and the rest to rounding, since the per-node
        # image norms are dense dot products that round differently in the
        # last bit and a continuous weight carries that bit through; a leaf
        # is 1 - cover, so its error is absolute, at the cover's rounding
        rng = np.random.default_rng(46)
        for trial in range(60):
            k = int(rng.integers(1, 48))
            t = int(rng.choice([2, 3, 4]))
            What = random_transformed_workload(rng, k, int(rng.integers(1, 12)))
            if trial % 4 == 1:
                # single buckets only, over random partitions
                qs = [b for b in What.partition if rng.uniform() < 0.3]
                What = transform_workload(workload_of(qs or list(What.partition)[:1]), What.partition)
            elif trial % 4 == 2:
                What = whole_domain_workload(k)
            elif k > 1:
                # the intervals of the top three levels give weight below the root
                los, his = build_query_tree(k, t).bounds()
                top = slice(0, 1 + t + t * t)
                What = transform_workload(Workload(los[top], his[top]), Partition.unit(k))
            got = greedy_scale(What, build_query_tree(k, t))
            want = build_query_tree(k, t)
            node_by_node_greedy(dense(What), want)
            assert np.array_equal(got.scalings == 0.0, want.scalings == 0.0)
            np.testing.assert_allclose(got.scalings, want.scalings, rtol=1e-14, atol=1e-14)

    def test_rejects_bad_matrix(self):
        # a workload over five buckets cannot scale a four-leaf tree
        tree = build_query_tree(4, 2)
        with pytest.raises(DimensionError):
            greedy_scale(random_transformed_workload(np.random.default_rng(0), 5, 2), tree)


class TestForest:
    """One greedy pass over several packed (workload, tree) pairs gives each
    tree the bits it gets alone."""

    @given(st.sampled_from([2, 3, 4]), st.integers(1, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_pass_equals_each_pair_alone(self, t, count, data):
        # heights differ with k (k = 1 has none), and a workload may hold the whole domain
        pairs, alone = [], []
        for _ in range(count):
            n = data.draw(st.integers(1, 40))
            part = data.draw(partitions_of(n))
            W = data.draw(workloads_over(n))
            if data.draw(st.booleans()):
                W = Workload(np.append(W.los, 1), np.append(W.his, n))
            What = transform_workload(W, part)
            pairs.append((What, build_query_tree(part.k, t)))
            alone.append(greedy_scale(What, build_query_tree(part.k, t)).scalings)
        greedy_scale_forest(pairs)
        for (_, tree), want in zip(pairs, alone):
            assert tree.scalings.tobytes() == want.tobytes()

    def test_pass_over_the_leaf_cap_splits_and_keeps_the_bits(self, monkeypatch):
        # at t = 2 and 40 leaves a pass: 16 + 16 + 3 leaves, then 16 + 16 + 7;
        # k = 50 alone exceeds the cap and is a pass of its own, and a tree of
        # another branching starts a new pass
        rng = np.random.default_rng(5)
        shapes = [(5, 2), (9, 2), (3, 2), (16, 2), (1, 2), (7, 2), (50, 2), (2, 2), (4, 3)]
        whats = [random_transformed_workload(rng, k, 6) for k, _ in shapes]
        alone = [greedy_scale(What, build_query_tree(k, t)).scalings for What, (k, t) in zip(whats, shapes)]
        passes = []
        real = estimation._scale_pass

        def spy(pairs):
            passes.append([tree.k for _, tree in pairs])
            return real(pairs)

        monkeypatch.setattr(estimation, "_FOREST_LEAVES", 40)
        monkeypatch.setattr(estimation, "_scale_pass", spy)
        pairs = [(What, build_query_tree(k, t)) for What, (k, t) in zip(whats, shapes)]
        greedy_scale_forest(pairs)
        assert passes == [[5, 9, 3], [16, 1, 7], [50], [2], [4]]
        for (_, tree), want in zip(pairs, alone):
            assert tree.scalings.tobytes() == want.tobytes()

    def test_rejects_bad_matrix_before_any_pass(self, monkeypatch):
        monkeypatch.setattr(estimation, "_scale_pass", None)
        rng = np.random.default_rng(0)
        good = random_transformed_workload(rng, 4, 2)
        with pytest.raises(DimensionError):
            greedy_scale_forest([(good, build_query_tree(4, 2)),
                                 (random_transformed_workload(rng, 5, 2), build_query_tree(4, 2))])


class TestPlan:
    """The tree-only half of measure and ols_infer is a plan, kept on a tree
    whose scalings are read-only and made afresh for a writable one."""

    @staticmethod
    def outcome(tree, measurements):
        try:
            return ols_infer(tree, measurements).tobytes()
        except SingularStrategyError as err:
            return str(err)

    @given(st.integers(1, 20), st.sampled_from([2, 3, 4]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_kept_plan_gives_the_bits_of_a_fresh_one(self, k, t, data):
        # random scalings, zeros included, so many strategies are singular
        writable = build_query_tree(k, t)
        choices = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
        writable.scalings[:] = [data.draw(choices) for _ in range(writable.num_nodes())]
        kept = build_query_tree(k, t)
        kept.scalings[:] = writable.scalings
        kept.scalings.setflags(write=False)
        counts = np.arange(1.0, k + 1.0)
        for seed in (0, 1):  # the second round reads the kept plan
            fresh = measure(counts, writable, 1.0, RngStream(seed))
            assert measure(counts, kept, 1.0, RngStream(seed)).tobytes() == fresh.tobytes()
            assert self.outcome(kept, fresh) == self.outcome(writable, fresh)
        assert kept._plan is not None and writable._plan is None

    def test_singular_message_after_measure_draws(self, example_counts):
        # one answer at the root leaves both halves undetermined
        tree = build_query_tree(4, 2)
        tree.scalings[:] = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        tree.scalings.setflags(write=False)
        ledger = []
        ms = measure(example_counts, tree, 1.0, RngStream(3, ledger=ledger))
        assert len(ms) == 1 and ledger == [(1.0, 1)]
        with pytest.raises(SingularStrategyError, match="^two sibling subtrees are both undetermined$"):
            ols_infer(tree, ms)

    def test_changed_scalings_are_seen(self, example_counts):
        tree = build_query_tree(4, 2)
        leaves_only = ols_infer(tree, measure(example_counts, tree, 1e12, RngStream(0)))
        np.testing.assert_allclose(leaves_only, example_counts, atol=1e-6)
        # a writable tree changed after a call: the next call reads the change
        tree.scalings[:] = [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        ms = measure(example_counts, tree, 1.0, RngStream(3))
        assert len(ms) == 1
        with pytest.raises(SingularStrategyError):
            ols_infer(tree, ms)
        # a read-only tree keeps its plan; made writable and changed, it drops it
        tree.scalings.setflags(write=False)
        assert len(measure(example_counts, tree, 1.0, RngStream(3))) == 1
        tree.scalings.setflags(write=True)
        tree.scalings[:] = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0]
        ms = measure(example_counts, tree, 1e12, RngStream(4))
        assert len(ms) == 4
        np.testing.assert_allclose(ols_infer(tree, ms), example_counts, atol=1e-6)


class TestFlatTree:
    """k leaves at scaling 1 and no root: measure adds one draw per bucket
    and least squares returns the answers as they are."""

    @pytest.mark.parametrize("k", [1, 2, 3, 1000])
    def test_least_squares_returns_the_answers(self, k):
        tree = flat_tree(k)
        answers = laplace_sample(1e3, RngStream(k), size=k)
        assert ols_infer(tree, answers).tobytes() == answers.tobytes()
        assert np.all(leaf_cover_sums(tree) == 1.0)
        assert estimation._plan_of(tree).singular is None
        assert estimation._plan_of(tree) is estimation._plan_of(tree)  # kept: the scalings are read-only
        assert not tree.scalings.flags.writeable

    @pytest.mark.parametrize("k", [1, 2, 3, 1000])
    def test_shape_and_measure(self, k):
        tree = flat_tree(k)
        los, his = tree.bounds()
        assert tree.level_sizes == (k,) and tree.num_nodes() == k
        assert los.tolist() == his.tolist() == list(range(1, k + 1))
        counts = np.arange(k, dtype=np.float64) % 9
        want = counts + laplace_sample(2.0, RngStream(5), size=k)
        assert measure(counts, tree, 0.5, RngStream(5)).tobytes() == want.tobytes()


class TestExactCharge:
    """Stage 2 charges exactly eps2: every tree that reaches `measure` covers
    each leaf with scalings that sum to exactly 1.0."""

    def test_every_measured_leaf_has_cover_sum_one(self, measured_trees):
        rng = np.random.default_rng(24)
        for trial in range(120):
            k, t = int(rng.integers(1, 40)), [2, 3, 4][trial % 3]
            part = random_transformed_workload(rng, k, 1).partition
            m, n = int(rng.integers(1, 10)), part.n
            los = rng.integers(1, n + 1, size=m)
            if trial % 4 == 0:  # random intervals
                W = Workload(los, rng.integers(los, n + 1))
            elif trial % 4 == 1:  # short runs
                W = Workload(los, np.minimum(n, los + rng.geometric(0.3, size=m) - 1))
            elif trial % 4 == 2:  # one interval, repeated, and the whole domain
                W = Workload([los[0]] * 5 + [1], [n] * 6)
            else:  # the whole domain, once or many times
                W = Workload([1] * (1 + trial % 7), [n] * (1 + trial % 7))
            x = DataVector(rng.integers(0, 9, size=n))
            estimate_buckets(part, W, x, 1.0, t, RngStream(0))
        for n in (1, 2, 5, 17, 64, 100, 399):
            x = DataVector(np.arange(n) % 7)
            for t in (2, 3, 4):
                run_hier_uniform(x, 1.0, RngStream(0), t=t)
                run_hier_geometric(x, 1.0, RngStream(0), t=t)
        assert len(measured_trees) == 120 + 7 * 3 * 2
        for tree in measured_trees:
            assert np.all(leaf_cover_sums(tree) == 1.0)

    @pytest.mark.parametrize("t", [2, 3, 4])
    @pytest.mark.parametrize("k", [2, 5, 16, 33, 100])
    def test_saturating_workloads_keep_every_leaf(self, k, t):
        # a leaf reaches 0 only if its ancestors' cover rounds to 1.0, which
        # takes about three nested weights at LAMBDA_CAP; the first node of
        # every level gives nested intervals [1, span]
        shape = build_query_tree(k, t)
        los, his = shape.bounds()
        firsts = np.cumsum((0,) + shape.level_sizes)[:-1]
        for c in (1, 5, 100, 1000):
            for W in (Workload([1] * c, [k] * c), Workload(np.repeat(los[firsts], c), np.repeat(his[firsts], c))):
                tree = greedy_scale(transform_workload(W, Partition.unit(k)), build_query_tree(k, t))
                assert tree.scalings[-k:].min() > 0.0
                assert np.all(leaf_cover_sums(tree) == 1.0)


class TestMeasure:
    def test_zero_scaling_skipped(self, example_counts):
        tree = scaled_identity_tree(4)
        ledger = []
        got = measure(example_counts, tree, 1.0, RngStream(0, ledger=ledger))
        assert len(got) == 4  # leaves only; internals carry zero scaling
        assert ledger == [(1.0, 4)]
        assert tree.scalings[-4:].tolist() == [1.0] * 4

    def test_values_near_truth_at_huge_budget(self, example_counts):
        tree = build_query_tree(4, 2)
        tree.scalings[:] = 0.5
        got = measure(example_counts, tree, 1e9, RngStream(1))
        prefix = np.concatenate(([0.0], np.cumsum(example_counts)))
        assert len(got) == tree.num_nodes()
        for value, lo, hi in zip(got, *tree.bounds()):
            true = prefix[hi] - prefix[lo - 1]
            assert value == pytest.approx(0.5 * true, abs=1e-6)

    def test_level_order_of_active_nodes(self, example_counts):
        # answers follow level order over the positively scaled nodes only,
        # one Laplace draw each, in that order
        tree = build_query_tree(4, 2)
        tree.scalings[:] = [0.5, 0.0, 0.25, 0.0, 0.75, 0.5, 0.0]
        got = measure(example_counts, tree, 2.0, RngStream(5))
        prefix = np.concatenate(([0.0], np.cumsum(example_counts)))
        noise = laplace_sample(0.5, RngStream(5), size=4)
        want = [0.5 * prefix[4], 0.25 * (prefix[4] - prefix[2]),
                0.75 * (prefix[2] - prefix[1]), 0.5 * (prefix[3] - prefix[2])]
        assert got.tolist() == (np.array(want) + noise).tolist()

    def test_deterministic(self, example_counts):
        tree = scaled_identity_tree(4)
        a = measure(example_counts, tree, 1.0, RngStream(7))
        b = measure(example_counts, tree, 1.0, RngStream(7))
        assert np.array_equal(a, b)

    def test_shape_checks(self, example_counts):
        tree = scaled_identity_tree(4)
        with pytest.raises(DimensionError):
            measure(np.zeros(5), tree, 1.0, RngStream(0))
        with pytest.raises(ParameterError):
            measure(example_counts, tree, 0.0, RngStream(0))


class TestOls:
    def test_zero_noise_recovery(self, example_counts):
        rng = np.random.default_rng(2)
        for k, t in ((4, 2), (9, 3), (13, 2)):
            counts = rng.integers(0, 20, size=k).astype(float)
            What = random_transformed_workload(rng, k, 5)
            tree = greedy_scale(What, build_query_tree(k, t))
            ms = measure(counts, tree, 1e12, RngStream(int(rng.integers(1 << 30))))
            got = ols_infer(tree, ms)
            assert np.max(np.abs(got - counts)) <= 1e-6

    def test_matches_dense_on_manual_tree(self, example_counts):
        # hand-set scalings unlike any greedy output; compare to lstsq
        tree = build_query_tree(4, 2)
        tree.scalings[:] = [0.3, 0.2, 0.25, 0.6, 0.55, 0.5, 0.45]
        ms = measure(example_counts, tree, 2.0, RngStream(21))
        got = ols_infer(tree, ms)
        Y = strategy_matrix(tree)
        c = tree.scalings
        want = dense_ols(Y, c, ms)
        assert np.allclose(got, want, atol=1e-9)

    @given(
        st.integers(1, 13),
        st.sampled_from([2, 3]),
        st.data(),
    )
    def test_matches_dense_on_hand_set_scalings(self, k, t, data):
        # random scalings, zeros included: the tree solve equals lstsq when
        # the answered intervals have full rank and raises otherwise
        tree = build_query_tree(k, t)
        choices = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
        tree.scalings[:] = [data.draw(choices) for _ in range(tree.num_nodes())]
        counts = np.arange(1.0, k + 1.0)
        ms = measure(counts, tree, 1.0, RngStream(k))
        Y = strategy_matrix(tree)
        c = tree.scalings
        keep = c > 0.0
        if keep.any() and np.linalg.matrix_rank(Y[keep]) == k:
            want = dense_ols(Y[keep], c[keep], ms)
            assert np.allclose(ols_infer(tree, ms), want, rtol=1e-9, atol=1e-9)
        else:
            with pytest.raises(SingularStrategyError):
                ols_infer(tree, ms)

    def test_saturated_root_recovers_exactly(self):
        # one query over everything pushes the root weight to the cap, so
        # the leaves are measured at scalings near 4e-6; the tree solve must
        # still recover the data at a noise-free budget
        x = DataVector([3, 1, 4, 1, 5, 9, 2, 6])
        W = Workload([1], [8])
        tree = greedy_scale(transform_workload(W, Partition.unit(8)), build_query_tree(8, 2))
        assert tree.scalings[0] > 1.0 - 1e-5
        assert tree.scalings[-8:].max() < 1e-5
        h = estimate_buckets(Partition.unit(8), W, x, 1e300, 2, RngStream(0))
        assert np.max(np.abs(h.stats - x.counts)) <= 1e-9

    def test_measurement_count_must_match(self, example_counts):
        tree = scaled_identity_tree(4)
        ms = measure(example_counts, tree, 1.0, RngStream(0))
        with pytest.raises(DimensionError):
            ols_infer(tree, ms[:-1])

    def test_unbiased_rough(self, example_counts):
        tree = scaled_identity_tree(4)
        acc = np.zeros(4)
        trials = 400
        for i in range(trials):
            ms = measure(example_counts, tree, 1.0, RngStream(1000 + i))
            acc += ols_infer(tree, ms)
        mean = acc / trials
        # SE of each coordinate is sqrt(2)/sqrt(trials); stay within 4 SE
        assert np.max(np.abs(mean - example_counts)) < 4 * np.sqrt(2.0 / trials)

    def test_singular_raises(self, example_counts):
        tree = build_query_tree(4, 2)
        tree.scalings[:] = 0.0
        tree.scalings[0] = 1.0  # one measurement cannot pin four buckets
        ms = measure(example_counts, tree, 1.0, RngStream(3))
        with pytest.raises(SingularStrategyError):
            ols_infer(tree, ms)


class TestEstimateBuckets:
    def test_zero_noise_anchor(self, example_x, example_partition, tiny_workload):
        h = estimate_buckets(
            example_partition, tiny_workload, example_x, 1e12, 2, RngStream(0)
        )
        assert np.allclose(h.stats, [5.0, 8.0, 3.0, 10.0], atol=1e-6)
        assert h.partition is example_partition

    def test_deterministic(self, example_x, example_partition, tiny_workload):
        a = estimate_buckets(example_partition, tiny_workload, example_x, 0.5, 2, RngStream(4))
        b = estimate_buckets(example_partition, tiny_workload, example_x, 0.5, 2, RngStream(4))
        assert np.array_equal(a.stats, b.stats)

    def test_single_bucket(self, example_x, tiny_workload):
        part = Partition(np.array([10]))
        h = estimate_buckets(part, tiny_workload, example_x, 1e12, 2, RngStream(0))
        assert h.stats[0] == pytest.approx(26.0, abs=1e-6)


class TestStrategyErrorEdges:
    def test_requires_positive_eps(self):
        tree = scaled_identity_tree(4)
        with pytest.raises(ParameterError):
            strategy_error(dense(identity_workload(4)), tree, 0.0)

    def test_identity_leaves_only_value(self):
        # k independent Laplace measurements at scale 1/eps2: error sums to
        # k * 2/eps2^2 for the identity workload
        k, eps2 = 6, 0.5
        tree = scaled_identity_tree(k)
        got = strategy_error(dense(identity_workload(k)), tree, eps2)
        assert got == pytest.approx(k * 2.0 / eps2**2, rel=1e-12)

    def test_scaling_homogeneity(self):
        # multiplying every scaling by alpha divides the error by alpha^2
        rng = np.random.default_rng(44)
        What = random_transformed_workload(rng, 12, 5)
        tree = greedy_scale(What, build_query_tree(12, 2))
        base = strategy_error(dense(What), tree, 1.0)
        for alpha in (0.5, 2.0, 7.0):
            tree.scalings[:] *= alpha
            assert strategy_error(dense(What), tree, 1.0) == pytest.approx(base / alpha**2, rel=1e-9)
            tree.scalings[:] /= alpha


class TestImageNorms:
    """Each level's image norms against the dense matrix times each node's
    slice of the leaf weights."""

    @staticmethod
    def check_levels(What, t, v):
        matrix = dense(What)
        k = What.partition.k
        span = 1
        while True:
            nodes = -(-k // span)
            totals = np.array([v[node * span : (node + 1) * span].sum() for node in range(nodes)])
            got = _image_norms2(_PackedQueries.pack([What], 0), v, totals, span)
            assert got.shape == (nodes,)
            for node in range(nodes):
                v_node = np.zeros(k)
                v_node[node * span : (node + 1) * span] = v[node * span : (node + 1) * span]
                image = matrix @ v_node
                assert got[node] == pytest.approx(image @ image, rel=1e-12, abs=0.0)
            if nodes == 1:
                return
            span *= t

    @given(st.integers(1, 40), st.sampled_from([2, 3, 4]), st.data())
    def test_levels_match_dense_images(self, n, t, data):
        part = data.draw(partitions_of(n))
        W = data.draw(workloads_over(n))
        v = np.array(data.draw(st.lists(st.floats(0.25, 4.0), min_size=part.k, max_size=part.k)))
        self.check_levels(transform_workload(W, part), t, v)

    def test_edge_shapes(self):
        # k = 7 leaves a lone last node on every level above the leaves;
        # the queries start and end in one bucket, cover whole nodes of
        # each level, and end part-way into buckets of the random partition
        rng = np.random.default_rng(47)
        W = Workload([3, 4, 1, 1, 5, 2, 7, 3], [3, 4, 7, 4, 7, 6, 7, 4])
        for t in (2, 3, 4):
            unit = Partition.unit(7)
            self.check_levels(transform_workload(W, unit), t, rng.uniform(0.25, 4.0, 7))
            part = Partition([3, 4, 9, 12, 20, 21, 30])
            Wp = Workload([2, 5, 1, 2, 6, 21, 3], [2, 8, 30, 29, 21, 21, 14])
            self.check_levels(transform_workload(Wp, part), t, rng.uniform(0.25, 4.0, 7))


class TestComplexitySmoke:
    def test_greedy_memory_is_linear(self):
        # k about 36k buckets and 2000 queries: the m-by-k matrix alone
        # would be 580 MB; the per-level arrays are O(m + k)
        rng = np.random.default_rng(48)
        n, k, m = 65536, 36000, 2000
        part = Partition(np.append(np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False)), n))
        los = rng.integers(1, n + 1, size=m)
        his = rng.integers(los, n + 1)
        What = transform_workload(Workload(los, his), part)
        tree = build_query_tree(k, 2)
        peak, _ = peak_bytes(greedy_scale, What, tree)
        assert peak < 60e6
        assert np.max(leaf_cover_sums(tree)) <= 1.0

    def test_doubling_k_stays_subquartic(self):
        # greedy is O(m + k) per level plus a per-level search, so doubling
        # k about doubles the time; best-of-reps and retry shed scheduler
        # interference
        rng = np.random.default_rng(45)
        m = 8
        small = random_transformed_workload(rng, 512, m)
        big = random_transformed_workload(rng, 1024, m)
        greedy_scale(small, build_query_tree(512, 2))
        greedy_scale(big, build_query_tree(1024, 2))
        ratio = np.inf
        for _ in range(3):
            t_small, t_big = [], []
            for _ in range(5):
                t0 = time.perf_counter()
                greedy_scale(small, build_query_tree(512, 2))
                t_small.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                greedy_scale(big, build_query_tree(1024, 2))
                t_big.append(time.perf_counter() - t0)
            ratio = min(ratio, min(t_big) / min(t_small))
            if ratio <= 4.5:
                break
        assert ratio <= 4.5
