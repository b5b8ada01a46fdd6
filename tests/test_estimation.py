"""Measurement-tree scaling: greedy budget split, fast objective, OLS recovery."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dawa.core import (
    DataVector,
    DimensionError,
    Interval,
    ParameterError,
    Partition,
    RngStream,
    SingularStrategyError,
    Workload,
)
from dawa.estimation import (
    LAMBDA_CAP,
    NodeCache,
    QueryTree,
    build_query_tree,
    decay_factor,
    estimate_buckets,
    greedy_scale,
    leaf_cover_sums,
    measure,
    objective_at_lambda,
    ols_infer,
    optimize_lambda,
    scaling_vector,
    strategy_error,
    strategy_matrix,
    subtree_nodes,
)
from dawa.oracles import dense_ols, dense_scaling_objective, oracle_dense_stage2
from dawa.transform import transform_workload


def random_workload_matrix(rng, m, k, nonneg=True):
    mat = rng.uniform(0.0, 1.0, size=(m, k))
    if not nonneg:
        mat = mat - 0.5
    return mat


def scaled_identity_tree(k, t=2):
    """Tree scaled by the greedy pass on the k-by-k identity workload."""
    return greedy_scale(np.eye(k), build_query_tree(k, t))


def node_by_node_greedy(What, tree):
    """Reference greedy pass: one node at a time, scalar cache updates and an
    explicit walk discounting each subtree."""
    for i, leaf in enumerate(tree.leaves):
        column = What[:, i]
        norm2 = float(column @ column)
        leaf.scaling = 1.0
        leaf.cache = NodeCache(err_trace=norm2, ones_quad=1.0, wl_image=column.copy(),
                               wl_image_norm2=norm2)
    for level in reversed(tree.levels[:-1]):
        for node in level:
            caches = [child.cache for child in node.children]
            if len(caches) == 1:
                node.scaling, node.cache = 0.0, caches[0]
                continue
            lam = optimize_lambda(node, decay_factor(tree.t, node.depth))
            image = caches[0].wl_image.copy()
            for cache in caches[1:]:
                image = image + cache.wl_image
            trace = sum(cache.err_trace for cache in caches)
            quad = sum(cache.ones_quad for cache in caches)
            image2 = float(image @ image)
            g2 = (1.0 - lam) ** 2
            denom = g2 + lam * lam * quad
            beta = lam * lam / (g2 * denom)
            node.cache = NodeCache(err_trace=trace / g2 - beta * image2, ones_quad=quad / denom,
                                   wl_image=image / denom, wl_image_norm2=image2 / (denom * denom))
            node.scaling = lam
            for desc in subtree_nodes(node):
                if desc is not node:
                    desc.scaling *= 1.0 - lam
    return tree


def undo_root_discount(tree):
    """Rewind the final greedy step so stored scalings match the root's
    children caches again; returns the tree's root for convenience."""
    root = tree.root
    lam = root.scaling
    if lam > 0.0:
        for desc in subtree_nodes(root):
            if desc is not root:
                desc.scaling /= 1.0 - lam
        root.scaling = 0.0
    return root


class TestTreeStructure:
    def test_single_leaf(self):
        tree = build_query_tree(1)
        assert tree.k == 1
        assert len(tree.levels) == 1
        assert tree.root is tree.leaves[0]
        assert tree.root.lo == 1 and tree.root.hi == 1

    def test_balanced_eight(self):
        tree = build_query_tree(8, 2)
        assert [len(level) for level in tree.levels] == [1, 2, 4, 8]
        assert tree.root.depth == 0
        assert all(leaf.depth == 3 for leaf in tree.leaves)

    def test_ragged_seven(self):
        tree = build_query_tree(7, 2)
        assert len(tree.leaves) == 7
        # every leaf sits on the deepest level
        deepest = len(tree.levels) - 1
        assert all(leaf.depth == deepest for leaf in tree.leaves)
        # internal fan-out never exceeds the branching factor
        for level in tree.levels[:-1]:
            for node in level:
                assert 1 <= len(node.children) <= 2

    def test_ternary(self):
        tree = build_query_tree(9, 3)
        assert [len(level) for level in tree.levels] == [1, 3, 9]

    def test_leaf_intervals_are_units(self):
        tree = build_query_tree(12, 3)
        assert [(lf.lo, lf.hi) for lf in tree.leaves] == [(j, j) for j in range(1, 13)]

    def test_parent_spans_children(self):
        tree = build_query_tree(13, 2)
        for level in tree.levels[:-1]:
            for node in level:
                assert node.lo == node.children[0].lo
                assert node.hi == node.children[-1].hi
                for a, b in zip(node.children, node.children[1:]):
                    assert b.lo == a.hi + 1

    def test_levels_are_top_down(self):
        tree = build_query_tree(16, 2)
        assert tree.levels[0][0] is tree.root
        assert tree.levels[-1] == tree.leaves

    def test_nodes_level_order(self):
        tree = build_query_tree(6, 2)
        seen = list(tree.nodes())
        assert len(seen) == tree.num_nodes()
        depths = [node.depth for node in seen]
        assert depths == sorted(depths)

    def test_initial_scalings(self):
        tree = build_query_tree(8, 2)
        assert all(leaf.scaling == 1.0 for leaf in tree.leaves)
        for level in tree.levels[:-1]:
            assert all(node.scaling == 0.0 for node in level)

    def test_subtree_nodes_count(self):
        tree = build_query_tree(8, 2)
        assert len(list(subtree_nodes(tree.root))) == tree.num_nodes()
        assert list(subtree_nodes(tree.leaves[0])) == [tree.leaves[0]]

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
        for node in tree.nodes():
            node.scaling = 0.25
        # each leaf is covered once per level
        assert np.allclose(leaf_cover_sums(tree), 0.75)


class TestObjectiveAgainstDense:
    def test_grid_agreement_small(self):
        rng = np.random.default_rng(10)
        for trial in range(20):
            k = int(rng.integers(2, 24))
            t = int(rng.choice([2, 3]))
            What = random_workload_matrix(rng, int(rng.integers(1, 12)), k)
            tree = greedy_scale(What, build_query_tree(k, t))
            node = undo_root_discount(tree)
            if len(node.children) < 2:
                continue
            mu = decay_factor(t, node.depth)
            for lam in (0.0, 0.1, 0.5, 0.9):
                fast = objective_at_lambda(node, lam, mu)
                dense = dense_scaling_objective(What, node, lam, mu)
                assert fast == pytest.approx(dense, rel=1e-6, abs=1e-9)

    def test_lambda_zero_is_plain_sum(self):
        rng = np.random.default_rng(3)
        What = random_workload_matrix(rng, 6, 8)
        tree = greedy_scale(What, build_query_tree(8, 2))
        node = undo_root_discount(tree)
        mu = decay_factor(2, 0)
        f0 = objective_at_lambda(node, 0.0, mu)
        dense = dense_scaling_objective(What, node, 0.0, mu)
        assert f0 == pytest.approx(dense, rel=1e-9)

    def test_domain_checks(self):
        tree = scaled_identity_tree(4)
        with pytest.raises(ParameterError):
            objective_at_lambda(tree.root, -0.1, 1.0)
        with pytest.raises(ParameterError):
            objective_at_lambda(tree.root, 1.0, 1.0)


class TestOptimizeLambda:
    def test_identity_prefers_zero_exactly(self):
        for k in (2, 3, 4, 7, 16):
            tree = scaled_identity_tree(k)
            # after the greedy pass every internal lambda stayed at zero,
            # so re-running the search at the root must return exact 0.0
            lam = optimize_lambda(tree.root, decay_factor(2, 0))
            assert lam == 0.0

    def test_total_sum_pushes_to_cap(self):
        k = 16
        What = np.ones((1, k))
        tree = greedy_scale(What, build_query_tree(k, 2))
        assert tree.root.scaling > 0.9

    def test_result_in_domain(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            k = int(rng.integers(2, 20))
            What = random_workload_matrix(rng, 5, k)
            tree = greedy_scale(What, build_query_tree(k, 2))
            for node in tree.nodes():
                assert 0.0 <= node.scaling <= 1.0


class TestGreedyScale:
    def test_identity_fixed_point(self):
        for k in (1, 2, 5, 8, 13, 32):
            tree = scaled_identity_tree(k)
            assert all(leaf.scaling == 1.0 for leaf in tree.leaves)
            for level in tree.levels[:-1]:
                assert all(node.scaling == 0.0 for node in level)

    def test_sensitivity_constraint(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            k = int(rng.integers(1, 40))
            What = random_workload_matrix(rng, int(rng.integers(1, 10)), k)
            tree = greedy_scale(What, build_query_tree(k, int(rng.choice([2, 3]))))
            assert np.max(leaf_cover_sums(tree)) <= 1.0 + 1e-9

    def test_never_worse_than_leaves_only(self):
        rng = np.random.default_rng(9)
        for _ in range(15):
            k = int(rng.integers(2, 32))
            t = int(rng.choice([2, 3]))
            What = random_workload_matrix(rng, int(rng.integers(1, 8)), k)
            greedy = greedy_scale(What, build_query_tree(k, t))
            leaves_only = build_query_tree(k, t)  # initialization is leaves-only
            e_greedy = strategy_error(What, greedy, 1.0)
            e_leaves = strategy_error(What, leaves_only, 1.0)
            assert e_greedy <= e_leaves * (1.0 + 1e-9)

    def test_scaling_matches_matrix_error(self):
        # strategy_error agrees with the dense stage-2 oracle
        rng = np.random.default_rng(12)
        k = 12
        What = random_workload_matrix(rng, 6, k)
        tree = greedy_scale(What, build_query_tree(k, 2))
        Y = strategy_matrix(tree)
        c = scaling_vector(tree)
        keep = c > 0
        got = strategy_error(What, tree, 0.7)
        want = oracle_dense_stage2(What, Y[keep], c[keep], 0.7)
        assert got == pytest.approx(want, rel=1e-9)

    def test_levels_match_node_by_node_reference(self):
        # the level-batched pass must reproduce the per-node pass bit for bit:
        # same weights, same products of discounts, same caches
        rng = np.random.default_rng(46)
        for trial in range(60):
            k = int(rng.integers(1, 48))
            t = int(rng.choice([2, 3, 4]))
            What = random_workload_matrix(rng, int(rng.integers(1, 12)), k)
            if trial % 4 == 1:
                What = What * (rng.uniform(size=What.shape) < 0.3)
            elif trial % 4 == 2:
                What = np.ones((1, k))
            elif k > 1:
                # the intervals of the top three levels give weight below the root
                What = strategy_matrix(build_query_tree(k, t))[:1 + t + t * t]
            got = greedy_scale(What, build_query_tree(k, t))
            want = node_by_node_greedy(What, build_query_tree(k, t))
            assert scaling_vector(got).tobytes() == scaling_vector(want).tobytes()
            for a, b in zip(got.nodes(), want.nodes()):
                assert (a.cache.err_trace, a.cache.ones_quad, a.cache.wl_image_norm2) == (
                    b.cache.err_trace, b.cache.ones_quad, b.cache.wl_image_norm2)
                assert a.cache.wl_image.tobytes() == b.cache.wl_image.tobytes()

    def test_rejects_bad_matrix(self):
        tree = build_query_tree(4, 2)
        with pytest.raises(DimensionError):
            greedy_scale(np.ones((2, 5)), tree)


class TestMeasure:
    def test_zero_scaling_skipped(self, example_counts):
        tree = scaled_identity_tree(4)
        ledger = []
        got = measure(example_counts, tree, 1.0, RngStream(0, ledger=ledger))
        assert len(got) == 4  # leaves only; internals carry zero scaling
        assert ledger == [(1.0, 4)]
        assert all(leaf.scaling == 1.0 for leaf in tree.leaves)

    def test_values_near_truth_at_huge_budget(self, example_counts):
        tree = build_query_tree(4, 2)
        for node in tree.nodes():
            node.scaling = 0.5
        got = measure(example_counts, tree, 1e9, RngStream(1))
        prefix = np.concatenate(([0.0], np.cumsum(example_counts)))
        assert len(got) == tree.num_nodes()
        for value, node in zip(got, tree.nodes()):
            true = prefix[node.hi] - prefix[node.lo - 1]
            assert value == pytest.approx(0.5 * true, abs=1e-6)

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
            What = random_workload_matrix(rng, 5, k)
            tree = greedy_scale(What, build_query_tree(k, t))
            ms = measure(counts, tree, 1e12, RngStream(int(rng.integers(1 << 30))))
            got = ols_infer(tree, ms)
            assert np.max(np.abs(got - counts)) <= 1e-6

    def test_matches_dense_on_manual_tree(self, example_counts):
        # hand-set scalings unlike any greedy output; compare to lstsq
        tree = build_query_tree(4, 2)
        scal = iter([0.3, 0.2, 0.25, 0.6, 0.55, 0.5, 0.45])
        for node in tree.nodes():
            node.scaling = next(scal)
        ms = measure(example_counts, tree, 2.0, RngStream(21))
        got = ols_infer(tree, ms)
        Y = strategy_matrix(tree)
        c = scaling_vector(tree)
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
        for node in tree.nodes():
            node.scaling = data.draw(choices)
        counts = np.arange(1.0, k + 1.0)
        ms = measure(counts, tree, 1.0, RngStream(k))
        Y = strategy_matrix(tree)
        c = scaling_vector(tree)
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
        W = Workload((Interval(1, 8),))
        tree = greedy_scale(transform_workload(W, Partition.unit(8)), build_query_tree(8, 2))
        assert tree.root.scaling > 1.0 - 1e-5
        assert max(leaf.scaling for leaf in tree.leaves) < 1e-5
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
        for node in tree.nodes():
            node.scaling = 0.0
        tree.root.scaling = 1.0  # one measurement cannot pin four buckets
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
        part = Partition.single(10)
        h = estimate_buckets(part, tiny_workload, example_x, 1e12, 2, RngStream(0))
        assert h.stats[0] == pytest.approx(26.0, abs=1e-6)


class TestStrategyErrorEdges:
    def test_requires_positive_eps(self):
        tree = scaled_identity_tree(4)
        with pytest.raises(ParameterError):
            strategy_error(np.eye(4), tree, 0.0)

    def test_identity_leaves_only_value(self):
        # k independent Laplace measurements at scale 1/eps2: error sums to
        # k * 2/eps2^2 for the identity workload
        k, eps2 = 6, 0.5
        tree = scaled_identity_tree(k)
        got = strategy_error(np.eye(k), tree, eps2)
        assert got == pytest.approx(k * 2.0 / eps2**2, rel=1e-12)

    def test_scaling_homogeneity(self):
        # multiplying every scaling by alpha divides the error by alpha^2
        rng = np.random.default_rng(44)
        What = random_workload_matrix(rng, 5, 12)
        tree = greedy_scale(What, build_query_tree(12, 2))
        base = strategy_error(What, tree, 1.0)
        for alpha in (0.5, 2.0, 7.0):
            for node in tree.nodes():
                node.scaling *= alpha
            assert strategy_error(What, tree, 1.0) == pytest.approx(base / alpha**2, rel=1e-9)
            for node in tree.nodes():
                node.scaling /= alpha


class TestComplexitySmoke:
    def test_doubling_k_stays_subquartic(self):
        # greedy is O(mk) plus a per-level search, so doubling k about
        # doubles the time; best-of-reps and retry shed scheduler interference
        rng = np.random.default_rng(45)
        m = 8
        small = rng.uniform(0.0, 1.0, size=(m, 512))
        big = rng.uniform(0.0, 1.0, size=(m, 1024))
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
