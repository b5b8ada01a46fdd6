"""Scalar and dense references that the tests compare the array-native code
against: per-bucket stage-1 costs, cost-table and Hilbert-curve lookups,
the grid cell of a point, brute-force partitions, dense stage-2 matrices,
the least-cost dynamic program, the level-batched greedy scaling and the
workload generators; the private partition's utility bound; the two
direct baselines, identity and partition_laplace, that now release
through the flat query tree; and the two forms that faster ones replaced,
the per-level walk of the Hilbert curve and the two-branch Laplace sampler."""

import math
from functools import cache

import numpy as np

from dawa.core import (DataVector, EstimateVector, Histogram, Interval, InvalidIntervalError, ParameterError,
                       Partition, RngStream, SingularStrategyError, Workload, _values_of, check_epsilon,
                       laplace_sample, uniform_expand)
from dawa.estimation import QueryTree, _objective, _search_lambda, decay_factor
from dawa.partition import BUCKET_COST_SENSITIVITY, CostTable, PartitionParams, private_partition
from dawa.spatial import GridSpec, HilbertMap

BRUTE_FORCE_MAX_N = 12


def _dev_numerator(values: list[int], total: int, length: int) -> int:
    """Sum of (v*length - total) over v with v*length >= total, exactly."""
    acc = 0
    for v in values:
        scaled = v * length - total
        if scaled >= 0:
            acc += scaled
    return acc


def bucket_dev(x: DataVector, b: Interval) -> float:
    """Total absolute deviation of the bucket's counts from their mean.

    Equal to twice the one-sided deviation above the mean; the integer
    numerator is exact and only the final division rounds.
    """
    if not b.hi <= x.n:
        raise ParameterError(f"bucket {b} outside domain of size {x.n}")
    length = b.hi - b.lo + 1
    values = [int(v) for v in x.counts[b.lo - 1 : b.hi]]
    total = sum(values)
    num = _dev_numerator(values, total, length)
    return (2 * num) / length


def bucket_cost(x: DataVector, b: Interval, eps2: float) -> float:
    """Deviation plus the stage-2 noise price of carrying one more bucket."""
    if eps2 <= 0:
        raise ParameterError(f"eps2 must be positive, got {eps2}")
    return bucket_dev(x, b) + 1.0 / eps2


def partition_cost(x: DataVector, buckets: "Partition | list[Interval]", eps2: float) -> float:
    """Sum of bucket costs, accumulated left to right."""
    total = 0.0
    for b in buckets:
        total += bucket_cost(x, b, eps2)
    return total


def cost_at(table: CostTable, lo: int, hi: int) -> float:
    """The table's cost of bucket [lo, hi]; KeyError for a non-candidate."""
    length = hi - lo + 1
    i = int(np.searchsorted(table.lengths, length))
    if not (lo >= 1 and hi <= table.n and i < table.lengths.size and table.lengths[i] == length):
        raise KeyError((lo, hi))
    return float(table.costs[table.offsets[i] + lo - 1])


def evaluate_query(q: Interval, x: "DataVector | EstimateVector | np.ndarray") -> float:
    """Sum of x over [q.lo, q.hi]."""
    vals = _values_of(x)
    if not q.hi <= vals.size:
        raise InvalidIntervalError(f"query {q} outside domain of size {vals.size}")
    return float(vals[q.lo - 1 : q.hi].sum())


def hilbert_index(map_: HilbertMap, cx: int, cy: int) -> int:
    """0-based curve position of cell (cx, cy)."""
    if not (0 <= cx < map_.side and 0 <= cy < map_.side):
        raise ParameterError(f"cell ({cx}, {cy}) outside {map_.side}x{map_.side} grid")
    return int(map_.position[cx, cy])


def hilbert_cell(map_: HilbertMap, d: int) -> tuple[int, int]:
    """Cell at 0-based curve position d."""
    if not 0 <= d < map_.domain_size:
        raise ParameterError(f"index {d} outside [0, {map_.domain_size})")
    return divmod(int(np.flatnonzero(map_.position.ravel() == d)[0]), map_.side)


def xy_to_d(g: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized cell-to-index walk down the quadrant recursion, over int64
    cell coordinate arrays."""
    d = np.zeros_like(x)
    n = 1 << g
    s = n >> 1
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        swap = ry == 0
        flip = swap & (rx == 1)
        xf = np.where(flip, n - 1 - x, x)
        yf = np.where(flip, n - 1 - y, y)
        x, y = np.where(swap, yf, xf), np.where(swap, xf, yf)
        s >>= 1
    return d


def grid_cell(spec: GridSpec, px: float, py: float) -> tuple[int, int]:
    """Cell (cx, cy) of one point: ceil(offset / cell size) - 1 per axis, so
    that a point on a cell boundary takes the smaller index, clamped to the
    grid in Python integers."""
    def axis(c, lo, size):
        return min(spec.side - 1, max(0, math.ceil((c - lo) / size) - 1))

    return axis(px, spec.xmin, spec.cell_width), axis(py, spec.ymin, spec.cell_height)


def oracle_brute_partition(x: DataVector, eps2: float) -> tuple[Partition, float]:
    """Exact least-cost partition by enumerating all 2^(n-1) bucketings.

    Costs accumulate left to right over each candidate's buckets, matching
    the dynamic program's summation order so optimal costs compare exactly.
    """
    n = x.n
    if n > BRUTE_FORCE_MAX_N:
        raise ParameterError(f"brute force capped at n={BRUTE_FORCE_MAX_N}, got {n}")

    @cache
    def cached_cost(lo: int, hi: int) -> float:
        return bucket_cost(x, Interval(lo, hi), eps2)

    best_cost = np.inf
    best: "list[int] | None" = None
    for mask in range(1 << (n - 1)):
        total = 0.0
        his = []
        lo = 1
        for j in range(1, n + 1):
            if j == n or (mask >> (j - 1)) & 1:
                total += cached_cost(lo, j)
                his.append(j)
                lo = j + 1
        if total < best_cost:
            best_cost = total
            best = his
    return Partition(np.array(best)), float(best_cost)


def utility_bound(n: int, num_candidates: int, delta: float, eps1: float) -> float:
    """Additive gap to the optimal partition cost, holding except with
    probability delta."""
    if n < 1 or num_candidates < 1:
        raise ParameterError("n and num_candidates must be >= 1")
    if not 0 < delta < 1:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    check_epsilon("eps1", eps1)
    return 4.0 * BUCKET_COST_SENSITIVITY * n * math.log(num_candidates / delta) / eps1


def strategy_matrix(tree: QueryTree) -> np.ndarray:
    """Dense 0/1 interval-indicator rows of all nodes in level order."""
    los, his = tree.bounds()
    positions = np.arange(1, tree.k + 1)
    return ((los[:, None] <= positions) & (positions <= his[:, None])).astype(np.float64)


def dense_transform(W: Workload, partition: Partition) -> np.ndarray:
    """The m-by-k rewritten workload: per query and bucket, the covered
    length over the bucket length."""
    q_lo, q_hi = W.los[:, None], W.his[:, None]
    b_lo, b_hi = partition.los, partition.his
    covered = np.maximum(np.minimum(q_hi, b_hi) - np.maximum(q_lo, b_lo) + 1, 0)
    return covered / (b_hi - b_lo + 1)


def oracle_dense_stage2(matrix: np.ndarray, Y: np.ndarray, scalings: np.ndarray, eps2: float) -> float:
    """Expected total squared workload error from explicit dense matrices: 2/eps2^2
    times the trace of the workload Gram against the inverse strategy Gram."""
    if eps2 <= 0:
        raise ParameterError(f"eps2 must be positive, got {eps2}")
    scaled = np.asarray(scalings, dtype=np.float64)[:, None] * np.asarray(Y, dtype=np.float64)
    try:
        inv = np.linalg.inv(scaled.T @ scaled)
    except np.linalg.LinAlgError as err:
        raise SingularStrategyError(f"strategy Gram is singular: {err}") from None
    return (2.0 / eps2**2) * float(np.sum((matrix.T @ matrix) * inv))


def strategy_error(matrix: np.ndarray, tree: QueryTree, eps2: float) -> float:
    """Expected total squared workload error of the scaled tree strategy."""
    return oracle_dense_stage2(matrix, strategy_matrix(tree), tree.scalings, eps2)


def dense_scaling_objective(matrix: np.ndarray, tree: QueryTree, lam: float, mu: float) -> float:
    """Direct evaluation of the greedy weight-search objective at the root.

    Builds the whole strategy explicitly: the root takes weight lam, every
    other node's current scaling is discounted by (1 - lam), and the target
    matrix blends the workload Gram with the block-diagonal of the root's
    children's workload Grams.
    """
    if tree.k < 2:
        raise ParameterError("objective is defined for internal nodes only")
    scalings = tree.scalings * (1.0 - lam)
    scalings[0] = lam
    scaled = scalings[:, None] * strategy_matrix(tree)
    gram = scaled.T @ scaled
    try:
        inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError as err:
        raise SingularStrategyError(f"strategy Gram is singular: {err}") from None
    target = mu * (matrix.T @ matrix)
    los, his = tree.bounds()
    children = slice(1, 1 + tree.level_sizes[1])
    for lo, hi in zip(los[children].tolist(), his[children].tolist()):
        Wc = matrix[:, lo - 1 : hi]
        target[lo - 1 : hi, lo - 1 : hi] += (1.0 - mu) * (Wc.T @ Wc)
    return float(np.sum(target * inv))


def dense_ols(rows: np.ndarray, scalings: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Weighted least-squares solve by lstsq on the explicit design matrix."""
    design = np.asarray(scalings)[:, None] * np.asarray(rows, dtype=np.float64)
    solution, *_ = np.linalg.lstsq(design, np.asarray(values, dtype=np.float64), rcond=None)
    return solution


def reference_least_cost_partition(table, n):
    """Least-cost partition by a scalar loop over (endpoint, length) pairs.

    Candidate lengths are scanned longest first with strict improvement, so
    among equal-cost partitions the one with the longer final bucket wins.
    """
    if n != table.n:
        raise ParameterError(f"table covers [1, {table.n}], asked for [1, {n}]")
    costs = table.costs.tolist()
    by_length = sorted(zip(table.lengths.tolist(), table.offsets.tolist()), reverse=True)
    best = [math.inf] * (n + 1)
    best[0] = 0.0
    pick = [0] * (n + 1)
    for j in range(1, n + 1):
        bj = math.inf
        pj = 0
        for length, offset in by_length:
            if length > j:
                continue
            lo = j - length + 1
            c = best[lo - 1] + costs[offset + lo - 1]
            if c < bj:
                bj = c
                pj = length
        best[j] = bj
        pick[j] = pj
    his = []
    j = n
    while j > 0:
        his.append(j)
        j -= pick[j]
    return Partition(np.array(his[::-1]))


def rows_of(What):
    """Dense rows of a transformed workload, written one query at a time
    from its end buckets and their fractions."""
    rows = np.zeros((len(What.first), What.partition.k))
    for row, f, l, f_frac, l_frac in zip(rows, What.first.tolist(), What.last.tolist(),
                                         What.first_frac.tolist(), What.last_frac.tolist()):
        row[f + 1 : l] = 1.0
        row[l] = l_frac
        row[f] = f_frac
    return rows


def node_by_node_greedy(matrix, tree):
    """Reference greedy pass over the implicit tree: one node at a time,
    scalar summary updates and an explicit discount of every descendant.

    A node's summary is (err_trace, ones_quad, wl_image, wl_image_norm2) of
    its scaled subtree; each internal node with two or more children picks
    its weight with _search_lambda on the 4 x 1 column of its children's
    summed summaries.  Writes tree.scalings and returns the root's column,
    or None when the root is a leaf.
    """
    t, sizes = tree.t, tree.level_sizes
    height = len(sizes) - 1
    starts = np.cumsum((0,) + sizes).tolist()
    scalings = tree.scalings
    scalings[:] = 0.0
    scalings[starts[height]:] = 1.0
    below = []
    for j in range(tree.k):
        column = matrix[:, j]
        norm2 = float(column @ column)
        below.append((norm2, 1.0, column.copy(), norm2))
    root_sums = None
    for depth in range(height - 1, -1, -1):
        level = []
        for i in range(sizes[depth]):
            children = below[t * i : t * i + t]
            if len(children) == 1:
                level.append(children[0])
                continue
            trace = sum(child[0] for child in children)
            quad = sum(child[1] for child in children)
            image = children[0][2].copy()
            for child in children[1:]:
                image = image + child[2]
            image2 = float(image @ image)
            norm2 = sum(child[3] for child in children)
            sums = np.array([[trace], [quad], [image2], [norm2]])
            lam = float(_search_lambda(sums, decay_factor(t, depth))[0])
            g = 1.0 - lam
            denom = g * g + lam * lam * quad
            level.append((float(_objective(sums, 1.0, lam)[0]), quad / denom, image / denom,
                          image2 / (denom * denom)))
            scalings[starts[depth] + i] = lam
            for below_depth in range(depth + 1, height + 1):
                span = t ** (below_depth - depth)
                first = starts[below_depth] + i * span
                last = starts[below_depth] + min((i + 1) * span, sizes[below_depth])
                scalings[first:last] *= 1.0 - lam
            if depth == 0:
                root_sums = sums
        below = level
    return root_sums


def undo_root_discount(tree):
    """Rewind the final greedy step so the stored scalings are those the
    root's weight was searched against again."""
    lam = tree.scalings[0]
    if lam > 0.0:
        tree.scalings[1:] /= 1.0 - lam
        tree.scalings[0] = 0.0


def reference_laplace_sample(scale, rng, size):
    """Laplace draws by the inverse CDF with both branches evaluated: a log
    of 2u below one half and of 2(1 - u) above it."""
    u = rng.uniform_open(size)
    return np.where(u < 0.5, scale * np.log(2.0 * u), -scale * np.log(2.0 * (1.0 - u)))


def reference_identity(x, eps, rng):
    """Every count plus one Laplace(1/eps) draw, position by position."""
    return EstimateVector(x.counts.astype(np.float64) + laplace_sample(1.0 / eps, rng, size=x.n))


def reference_partition_laplace(x, budget, rng, mode, deviations=None):
    """Stage 1's private partition, then every bucket total plus one
    Laplace(1/eps2) draw, spread uniformly over its bucket."""
    buckets = private_partition(x, PartitionParams(budget.eps1, budget.eps2, mode), rng, deviations)
    stats = buckets.bucket_totals(x.counts) + laplace_sample(1.0 / budget.eps2, rng, size=buckets.k)
    return uniform_expand(Histogram(partition=buckets, stats=stats), x.n)


def reference_gen_workload(kind, n, seed, num_queries=2000, num_clusters=5,
                           queries_per_cluster=400, sigma=None):
    """(lo, hi) pairs of a uniform or clustered workload, one query at a
    time: clustered ends are rounded, clamped to the domain and swapped if
    they cross."""
    gen = RngStream(seed).generator
    if kind == "uniform":
        ends = gen.integers(1, n + 1, size=(num_queries, 2))
        return [(int(min(a, b)), int(max(a, b))) for a, b in ends]
    if sigma is None:
        sigma = 256.0 if kind == "clustered" else 1024.0
    centers = gen.uniform(1.0, float(n), size=num_clusters)
    half = np.abs(gen.normal(0.0, sigma, size=(num_clusters, queries_per_cluster, 2)))
    queries = []
    for c, widths in zip(centers, half):
        lo = np.clip(np.rint(c - widths[:, 0]), 1, n).astype(np.int64)
        hi = np.clip(np.rint(c + widths[:, 1]), 1, n).astype(np.int64)
        for a, b in zip(lo, hi):
            if a > b:
                a, b = b, a
            queries.append((int(a), int(b)))
    return queries
