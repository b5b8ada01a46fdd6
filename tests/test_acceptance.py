"""Acceptance checklist: one test per shipped guarantee, in release order.

Every test ends with a printed PASS line so `pytest -s tests/test_acceptance.py`
reads as a checklist.  Statistical checks pin their seeds and were sized so
that a correct implementation clears them with wide margin; timing checks
take the best of several repeats to shed scheduler jitter.
"""

import itertools
import time

import numpy as np
import pytest

from dawa.core import (
    DataVector,
    EstimateVector,
    Histogram,
    Interval,
    Partition,
    PrivacyBudget,
    RngStream,
    Workload,
    average_workload_error,
    evaluate_query,
    uniform_expand,
)
from dawa.estimation import (
    build_query_tree,
    decay_factor,
    estimate_buckets,
    greedy_scale,
    leaf_cover_sums,
    objective_at_lambda,
    ols_infer,
    scaling_vector,
    strategy_matrix,
    subtree_nodes,
)
from dawa.experiments import ExperimentConfig, report_emit, run_experiment
from dawa.generators import gen_synthetic_data, gen_workload
from dawa.mechanisms import run_dawa, run_greedy_no_partition, run_identity
from dawa.oracles import dense_scaling_objective, oracle_brute_partition
from dawa.partition import (
    PartitionParams,
    all_costs,
    bucket_cost,
    bucket_dev,
    candidate_lengths,
    least_cost_partition,
    partition_cost,
    private_partition,
    utility_bound,
)
from dawa.spatial import (
    GridSpec,
    HilbertMap,
    RectangleQuery,
    answer_rectangle,
    hilbert_cell,
    hilbert_index,
    rectangle_to_ranges,
)
from dawa.transform import transform_query, transform_workload

EXAMPLE_COUNTS = [2, 3, 8, 1, 0, 2, 0, 4, 2, 4]
EXAMPLE_BUCKETS = (Interval(1, 2), Interval(3, 3), Interval(4, 7), Interval(8, 10))


def _ok(line: str) -> None:
    print(f"PASS  {line}")


def _example() -> tuple[DataVector, Partition]:
    return DataVector(EXAMPLE_COUNTS), Partition(EXAMPLE_BUCKETS)


def _random_partition(rng, n: int) -> Partition:
    k = int(rng.integers(1, n + 1))
    cuts = sorted(rng.choice(np.arange(1, n), size=k - 1, replace=False)) if k > 1 else []
    edges = [0] + [int(c) for c in cuts] + [n]
    return Partition(tuple(Interval(a + 1, b) for a, b in zip(edges, edges[1:])))


def _random_workload(rng, n: int, m: int) -> Workload:
    qs = []
    for _ in range(m):
        lo = int(rng.integers(1, n + 1))
        hi = int(rng.integers(lo, n + 1))
        qs.append(Interval(lo, hi))
    return Workload(tuple(qs))


def _undo_root_discount(tree):
    """Rewind the final greedy step so cached children tables line up with
    the stored scalings again; returns the root."""
    root = tree.root
    lam = root.scaling
    if lam > 0.0:
        for desc in subtree_nodes(root):
            if desc is not root:
                desc.scaling /= 1.0 - lam
        root.scaling = 0.0
    return root


def test_a01_dynamic_program_matches_brute_force():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(1, 11))
        x = DataVector(rng.integers(0, 9, size=n))
        eps2 = float(rng.uniform(0.05, 2.0))
        table = all_costs(x, eps2, mode="all")
        chosen = least_cost_partition(table, n)
        _, brute = oracle_brute_partition(x, eps2)
        assert partition_cost(x, chosen, eps2) == brute
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(f"solver cost equals brute force on 100 instances, n <= 10 ({elapsed:.2f}s)")


def test_a02_cost_tables_match_naive_recomputation():
    rng = np.random.default_rng(102)
    x = DataVector(rng.integers(0, 40, size=128))
    eps2 = 0.37
    for mode in ("all", "pow2"):
        table = all_costs(x, eps2, mode=mode)
        checked = 0
        for length in candidate_lengths(x.n, mode):
            for lo in range(1, x.n - length + 2):
                hi = lo + length - 1
                assert table.cost(lo, hi) == bucket_cost(x, Interval(lo, hi), eps2)
                checked += 1
        assert checked == len(table)

    # worked-example anchors
    ex, part = _example()
    assert bucket_dev(ex, Interval(4, 7)) == 3.0
    assert partition_cost(ex, part, 1.0) == pytest.approx(10 + 2 / 3, abs=1e-12)
    assert bucket_cost(ex, Interval(1, 10), 1.0) == pytest.approx(18.2, abs=1e-12)
    assert partition_cost(ex, part, 0.1) == pytest.approx(46 + 2 / 3, abs=1e-12)
    assert bucket_cost(ex, Interval(1, 10), 0.1) == pytest.approx(27.2, abs=1e-12)
    _ok("cost tables equal naive recomputation bit for bit; worked anchors hold")


def test_a03_bucket_cost_neighbor_sensitivity_exhaustive():
    # Integer form of the check: the deviation equals 2N/L with N an integer
    # numerator, so |cost change| <= 2 is exactly |N - N'| <= L.  Enumerate
    # every count vector, bucket, position, and +-1 edit with no rounding.
    worst = 0.0
    for n in range(1, 7):
        grid = np.array(list(itertools.product(range(5), repeat=n)), dtype=np.int64)
        for lo in range(1, n + 1):
            for hi in range(lo, n + 1):
                length = hi - lo + 1
                seg = grid[:, lo - 1:hi]
                total = seg.sum(axis=1)
                num = np.maximum(seg * length - total[:, None], 0).sum(axis=1)
                for col in range(length):
                    for delta in (-1, 1):
                        keep = seg[:, col] > 0 if delta < 0 else slice(None)
                        edited = seg[keep].copy()
                        if edited.size == 0:
                            continue
                        edited[:, col] += delta
                        total2 = edited.sum(axis=1)
                        num2 = np.maximum(edited * length - total2[:, None], 0).sum(axis=1)
                        worst = max(worst, np.abs(num2 - num[keep]).max() / length)
    assert 2.0 * worst <= 2.0

    # float-level spot check through the public cost function
    rng = np.random.default_rng(103)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        v = rng.integers(0, 5, size=n)
        pos = int(rng.integers(0, n))
        delta = int(rng.choice([-1, 1]))
        if v[pos] + delta < 0:
            continue
        w = v.copy()
        w[pos] += delta
        x, y = DataVector(v), DataVector(w)
        for lo in range(1, n + 1):
            for hi in range(lo, n + 1):
                b = Interval(lo, hi)
                assert abs(bucket_cost(x, b, 0.7) - bucket_cost(y, b, 0.7)) <= 2.0 + 1e-12
    _ok(f"neighbor edits move any bucket cost by at most 2 (worst seen {2 * worst:.3f})")


def test_a04_bucket_transform_is_exact():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        part = _random_partition(rng, n)
        W = _random_workload(rng, n, int(rng.integers(1, 9)))
        stats = rng.uniform(-10.0, 10.0, size=part.k)
        xhat = uniform_expand(Histogram(part, stats), n)
        direct = np.array([evaluate_query(q, xhat) for q in W])
        through = transform_workload(W, part).matrix @ stats
        worst = max(worst, float(np.abs(direct - through).max()))
    assert worst <= 1e-9

    _, part = _example()
    assert np.array_equal(transform_query(Interval(2, 6), part), [0.5, 1.0, 0.75, 0.0])
    _ok(f"bucket-space workload answers match position space on 1000 triples (max gap {worst:.1e})")


def _implicit_inverse(tree) -> np.ndarray:
    """Inverse strategy Gram, one column per OLS solve.

    Answering leaf j with 1/scaling and every other node with 0 makes the
    normal equations' right-hand side the j-th identity column, so the
    least-squares solve returns column j of the inverse Gram.
    """
    active = [node for node in tree.nodes() if node.scaling > 0.0]
    assert all(leaf.scaling > 0.0 for leaf in tree.leaves)
    inv = np.empty((tree.k, tree.k))
    for j, leaf in enumerate(tree.leaves):
        answers = np.array([1.0 / node.scaling if node is leaf else 0.0 for node in active])
        inv[:, j] = ols_infer(tree, answers)
    return inv


def test_a05_fast_objective_and_implicit_inverse():
    rng = np.random.default_rng(105)
    grid = np.linspace(0.0, 0.95, 20)
    worst_obj = 0.0
    worst_inv = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 65))
        t = int(rng.choice([2, 3]))
        What = rng.uniform(0.0, 1.0, size=(int(rng.integers(3, 13)), k))
        tree = greedy_scale(What, build_query_tree(k, t))

        # tree least-squares inverse against direct inversion of the final gram
        Y = strategy_matrix(tree)
        c = scaling_vector(tree)
        gram = (c[:, None] * Y).T @ (c[:, None] * Y)
        direct = np.linalg.inv(gram)
        fast = _implicit_inverse(tree)
        worst_inv = max(worst_inv, float(np.linalg.norm(fast - direct) / np.linalg.norm(direct)))

        node = _undo_root_discount(tree)
        if len(node.children) < 2:
            continue
        mu = decay_factor(t, node.depth)
        for lam in grid:
            fast_val = objective_at_lambda(node, float(lam), mu)
            dense_val = dense_scaling_objective(What, node, float(lam), mu)
            worst_obj = max(worst_obj, abs(fast_val - dense_val) / abs(dense_val))
    assert worst_obj <= 1e-6
    assert worst_inv <= 1e-6
    _ok(f"fast objective and tree least-squares inverse track dense algebra (rel {worst_obj:.1e}, {worst_inv:.1e})")


def test_a06_identity_workload_keeps_leaf_allocation():
    for k in range(1, 65):
        tree = greedy_scale(np.eye(k), build_query_tree(k, 2))
        for node in tree.nodes():
            assert node.scaling == (1.0 if node.is_leaf() else 0.0)
    _ok("greedy scaling leaves identity workloads on the leaf-only allocation, k = 1..64")


def test_a07_leaf_cover_sums_bounded():
    rng = np.random.default_rng(107)
    worst = 0.0
    for trial in range(100):
        k = int(rng.integers(1, 65))
        t = int(rng.choice([2, 3]))
        What = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 13)), k))
        if trial % 3 == 0:
            What = What * (rng.uniform(size=What.shape) < 0.4)
        tree = greedy_scale(What, build_query_tree(k, t))
        worst = max(worst, float(leaf_cover_sums(tree).max()))
    assert worst <= 1.0 + 1e-9
    _ok(f"per-position scaling sums stay within budget on 100 workloads (max {worst:.9f})")


def test_a08_ols_recovery_and_unbiasedness():
    ex, part = _example()
    W = Workload((Interval(1, 10), Interval(2, 6), Interval(4, 4), Interval(5, 9)))
    true_counts = np.array([5.0, 8.0, 3.0, 10.0])

    # effectively noise-free budget recovers the bucket counts
    h = estimate_buckets(part, W, ex, 1e12, 2, RngStream(81))
    assert np.allclose(h.stats, true_counts, atol=1e-6)

    rng = np.random.default_rng(108)
    for _ in range(25):
        n = int(rng.integers(4, 33))
        x = DataVector(rng.integers(0, 20, size=n))
        p = _random_partition(rng, n)
        Wr = _random_workload(rng, n, int(rng.integers(3, 9)))
        want = np.array([x.counts[b.lo - 1:b.hi].sum() for b in p], dtype=float)
        got = estimate_buckets(p, Wr, x, 1e12, 2, RngStream(int(rng.integers(0, 2**31))))
        assert np.allclose(got.stats, want, atol=1e-6)

    # unbiasedness: per-bucket mean within 3 standard errors over 2000 trials
    trials = 2000
    ests = np.empty((trials, 4))
    for trial in range(trials):
        ests[trial] = estimate_buckets(part, W, ex, 1.0, 2, RngStream(81000 + trial)).stats
    se = ests.std(axis=0, ddof=1) / np.sqrt(trials)
    z = np.abs(ests.mean(axis=0) - true_counts) / se
    assert z.max() <= 3.0

    # expansion anchor: the printed decimals are exact to an ulp
    spread = uniform_expand(Histogram(part, np.array([6.3, 7.1, 3.6, 8.4])), 10)
    want = [3.15, 3.15, 7.1, 0.9, 0.9, 0.9, 0.9, 2.8, 2.8, 2.8]
    assert np.allclose(spread.values, want, atol=1e-12, rtol=0)
    _ok(f"recovery exact at huge budget, unbiased at eps2 = 1 (max |z| = {z.max():.2f})")


def test_a09_expected_error_bound_for_fixed_partitions():
    rng = np.random.default_rng(109)
    trials = 5000
    cases = [_example()]
    for _ in range(3):
        n = int(rng.integers(8, 33))
        cases.append((DataVector(rng.integers(0, 12, size=n)), _random_partition(rng, n)))
    for x, part in cases:
        eps2 = 1.0
        k = part.k
        counts = np.array([x.counts[b.lo - 1:b.hi].sum() for b in part], dtype=float)
        bound = sum(bucket_dev(x, b) for b in part) + k / eps2
        noise = rng.laplace(0.0, 1.0 / eps2, size=(trials, k))
        l1 = np.empty(trials)
        for i in range(trials):
            xh = uniform_expand(Histogram(part, counts + noise[i]), x.n)
            l1[i] = np.abs(xh.values - x.counts).sum()
        slack = 3.0 * l1.std(ddof=1) / np.sqrt(trials)
        assert l1.mean() <= bound + slack
    _ok("mean L1 error of noisy fixed partitions stays under the deviation + k/eps2 bound")


def test_a10_private_partition_utility():
    n, eps1, eps2, delta = 10, 1.0, 1.0, 0.05
    rng = np.random.default_rng(110)
    params = PartitionParams(eps1=eps1, eps2=eps2, mode="all")
    bound = utility_bound(n, n * (n + 1) // 2, delta, eps1)
    trials, hits = 400, 0
    for _ in range(trials):
        x = DataVector(rng.integers(0, 30, size=n))
        _, opt = oracle_brute_partition(x, eps2)
        chosen = private_partition(x, params, RngStream(int(rng.integers(0, 2**31))))
        if partition_cost(x, chosen, eps2) <= opt + bound:
            hits += 1
    assert hits >= int(0.95 * trials)
    _ok(f"private partition lands within the utility bound in {hits}/{trials} trials")


def test_a11_identity_noise_calibration():
    eps, n, trials = 2.0, 1000, 100
    x = DataVector(np.zeros(n, dtype=int))
    errs = np.empty((trials, n))
    for trial in range(trials):
        errs[trial] = np.abs(run_identity(x, eps, RngStream(300 + trial)).values)
    mean_abs = float(errs.mean())
    assert abs(mean_abs - 1.0 / eps) <= 0.02 / eps
    _ok(f"identity per-cell error averages {mean_abs:.4f} vs 1/eps = {1 / eps:.4f} over 1e5 draws")


def test_a12_mechanism_regimes():
    n, eps, trials = 1024, 0.1, 20
    budget = PrivacyBudget.split(eps)
    W = gen_workload("uniform", n, 402, num_queries=200)

    # smooth data: the two-stage mechanism beats per-cell noise
    x = gen_synthetic_data("piecewise_constant", n, 401, segments=8)
    two_stage = np.mean([
        average_workload_error(W, x, run_dawa(x, W, budget, RngStream(5000 + t), mode="pow2"))
        for t in range(trials)
    ])
    flat = np.mean([
        average_workload_error(W, x, run_identity(x, eps, RngStream(6000 + t)))
        for t in range(trials)
    ])
    assert two_stage < flat

    # incompressible data: partitioning costs at most a factor of two
    rng = np.random.default_rng(77)
    xh = DataVector(rng.integers(0, 50, size=n))
    part_err = np.mean([
        average_workload_error(W, xh, run_dawa(xh, W, budget, RngStream(7000 + t), mode="pow2"))
        for t in range(trials)
    ])
    tree_err = np.mean([
        average_workload_error(W, xh, run_greedy_no_partition(xh, W, eps, RngStream(8000 + t)))
        for t in range(trials)
    ])
    assert part_err <= 2.0 * tree_err
    _ok(
        f"two-stage beats flat noise on smooth data ({two_stage:.1f} < {flat:.1f}) "
        f"and stays within 2x on hard data ({part_err:.1f} vs {tree_err:.1f})"
    )


def test_a13_runtime_and_scaling():
    rng = np.random.default_rng(7)
    x4096 = DataVector(rng.integers(0, 16, size=4096))
    params = PartitionParams(eps1=0.25, eps2=0.75, mode="pow2")
    t0 = time.perf_counter()
    private_partition(x4096, params, RngStream(113))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0

    # quadrupling n should cost ~4x plus one extra candidate length; allow 5.5x.
    # best-of-reps per size, and up to three attempts, shed scheduler interference
    rng = np.random.default_rng(7)
    small = DataVector(rng.integers(0, 4, size=1024))
    big = DataVector(rng.integers(0, 4, size=4096))
    all_costs(small, 0.75, mode="pow2")
    all_costs(big, 0.75, mode="pow2")
    ratio = np.inf
    for _ in range(3):
        t_small, t_big = [], []
        for _ in range(5):
            t0 = time.perf_counter()
            all_costs(small, 0.75, mode="pow2")
            t_small.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            all_costs(big, 0.75, mode="pow2")
            t_big.append(time.perf_counter() - t0)
        ratio = min(ratio, min(t_big) / min(t_small))
        if ratio <= 5.5:
            break
    assert ratio <= 5.5
    _ok(f"n = 4096 partition in {elapsed:.2f}s; cost-table scaling 1024 -> 4096 is {ratio:.2f}x")


def test_a14_curve_layout_and_rectangles():
    # bijection and unit steps, exhaustively for every grid up to 64 x 64
    for g in range(1, 7):
        m = HilbertMap(g)
        prev = None
        for d in range(m.domain_size):
            cx, cy = hilbert_cell(m, d)
            assert hilbert_index(m, cx, cy) == d
            if prev is not None:
                assert abs(cx - prev[0]) + abs(cy - prev[1]) == 1
            prev = (cx, cy)

    def brute_runs(rect, m):
        ds = sorted(
            hilbert_index(m, cx, cy)
            for cx in range(rect.xlo, rect.xhi + 1)
            for cy in range(rect.ylo, rect.yhi + 1)
        )
        runs, start, prev = [], ds[0], ds[0]
        for d in ds[1:]:
            if d != prev + 1:
                runs.append((start + 1, prev + 1))
                start = d
            prev = d
        runs.append((start + 1, prev + 1))
        return runs

    rng = np.random.default_rng(114)
    for _ in range(500):
        g = int(rng.integers(1, 7))
        m = HilbertMap(g)
        xlo = int(rng.integers(0, m.side))
        xhi = int(rng.integers(xlo, m.side))
        ylo = int(rng.integers(0, m.side))
        yhi = int(rng.integers(ylo, m.side))
        rect = RectangleQuery(xlo, xhi, ylo, yhi)
        got = [(iv.lo, iv.hi) for iv in rectangle_to_ranges(rect, m)]
        assert got == brute_runs(rect, m)

    # cell-aligned rectangles are answered with no approximation at all
    g = 4
    m = HilbertMap(g)
    spec = GridSpec(g=g, xmin=0.0, xmax=16.0, ymin=0.0, ymax=16.0)
    grid = rng.integers(0, 9, size=(m.side, m.side)).astype(float)
    flat = np.empty(m.domain_size)
    for cx in range(m.side):
        for cy in range(m.side):
            flat[hilbert_index(m, cx, cy)] = grid[cx, cy]
    xhat = EstimateVector(flat)
    for _ in range(50):
        xlo = int(rng.integers(0, m.side))
        xhi = int(rng.integers(xlo, m.side))
        ylo = int(rng.integers(0, m.side))
        yhi = int(rng.integers(ylo, m.side))
        rect = RectangleQuery(xlo, xhi, ylo, yhi)
        got = answer_rectangle(xhat, rect, m, spec)
        assert got == grid[xlo:xhi + 1, ylo:yhi + 1].sum()
    _ok("curve layout exhaustive to g = 6; 500 rectangles match brute force; aligned sums exact")


def test_a15_reports_reproduce_byte_identically(tmp_path):
    cfg = ExperimentConfig(
        mechanisms=("identity", "dawa"),
        epsilons=(0.5,),
        workload={"kind": "uniform", "num_queries": 20},
        data={"kind": "piecewise_constant", "segments": 4},
        n=64,
        num_workloads=1,
        trials=2,
        master_seed=115,
        record_timing=False,
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    report_emit(run_experiment(cfg), a)
    report_emit(run_experiment(cfg), b)
    assert a.read_bytes() == b.read_bytes()
    _ok("identical master seed reproduces the report byte for byte")
