"""Stage 2: workload-aware noisy measurement of bucket counts.

Bucket counts are measured through a hierarchy of interval sums, each
scaled by a weight chosen greedily to suit the (transformed) workload, then
reconciled by least squares.  Weights obey a unit-sensitivity constraint:
the scalings covering any single bucket sum to at most 1, so each noisy
answer costs Laplace(1/eps2) regardless of how many are taken.

Raising a parent's weight is a rank-one change to its subtree Gram, so the
weight search needs only three scalars and one workload image (an m-vector)
per child (NodeCache); no Gram matrix or inverse is formed.  The greedy pass
searches a whole tree level at once, bottom-up.  Least squares runs in the
eliminated form of Hay et al. (VLDB 2010) with unequal per-node variances
(Qardaji, Yang & Li, VLDB 2013), linear in the tree size, for every scaled
tree including the fixed hierarchies of the hier_* baselines.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DataVector,
    DimensionError,
    Histogram,
    ParameterError,
    Partition,
    RngStream,
    SingularStrategyError,
    Workload,
    laplace_sample,
)
from .transform import TransformedWorkload, transform_workload

# Parent weights may approach but never reach 1; at 1 the children's
# effective scalings vanish and the Gram loses rank.
LAMBDA_CAP = 1.0 - 1e-6

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class TreeNode:
    """One interval sum over bucket positions [lo, hi]."""

    __slots__ = ("lo", "hi", "depth", "children", "scaling", "cache")

    def __init__(self, lo: int, hi: int, children: "tuple[TreeNode, ...]" = ()):
        self.lo = lo
        self.hi = hi
        self.depth = 0
        self.children = children
        self.scaling = 1.0 if not children else 0.0
        self.cache: "NodeCache | None" = None

    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:
        return f"TreeNode([{self.lo},{self.hi}], depth={self.depth}, c={self.scaling:.4g})"


@dataclass
class NodeCache:
    """Summaries of one subtree's scaled strategy for its parent's weight search.

    With v solving (subtree Gram) @ v = 1, ones_quad is the total of v and
    wl_image maps v through the subtree's workload columns; wl_image_norm2
    is its squared norm and err_trace the subtree's workload error term.
    Caches reflect the scalings when the node was processed.
    """

    err_trace: float
    ones_quad: float
    wl_image: np.ndarray
    wl_image_norm2: float


@dataclass(frozen=True)
class QueryTree:
    """Interval-sum hierarchy over k bucket positions with branching t."""

    root: TreeNode
    levels: tuple[tuple[TreeNode, ...], ...]
    k: int
    t: int

    @property
    def leaves(self) -> tuple[TreeNode, ...]:
        return self.levels[-1]

    def nodes(self):
        """All nodes in level order, root first, left to right."""
        for level in self.levels:
            yield from level

    def num_nodes(self) -> int:
        return sum(len(level) for level in self.levels)


def build_query_tree(k: int, t: int = 2) -> QueryTree:
    """Complete-as-possible t-ary tree whose leaves are the unit intervals.

    Node i of a level has nodes t*i .. t*i + t - 1 of the level below as
    children; only the last node of a level may hold fewer than t.  All
    leaves sit on the deepest level.
    """
    if k < 1:
        raise ParameterError(f"need k >= 1, got {k}")
    if t < 2:
        raise ParameterError(f"need branching t >= 2, got {t}")
    level = [TreeNode(j, j) for j in range(1, k + 1)]
    levels = [tuple(level)]
    while len(level) > 1:
        level = [
            TreeNode(group[0].lo, group[-1].hi, tuple(group))
            for group in (level[i : i + t] for i in range(0, len(level), t))
        ]
        levels.append(tuple(level))
    levels.reverse()
    for depth, lev in enumerate(levels):
        for node in lev:
            node.depth = depth
    return QueryTree(root=levels[0][0], levels=tuple(levels), k=k, t=t)


def subtree_nodes(node: TreeNode):
    """Pre-order walk of the subtree rooted at node."""
    stack = [node]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(reversed(cur.children))


def decay_factor(t: int, depth: int) -> float:
    """Weight on a node's own workload term; deeper nodes defer to ancestors."""
    return float(t) ** (-depth / 2.0)


def leaf_cover_sums(tree: QueryTree) -> np.ndarray:
    """Per bucket position, the sum of scalings of nodes covering it."""
    cover = np.zeros(tree.k)
    for node in tree.nodes():
        cover[node.lo - 1 : node.hi] += node.scaling
    return cover


def _squares(g: np.ndarray) -> np.ndarray:
    """Elementwise g ** 2 through float pow, which rounds differently from
    g * g on about 0.1 % of inputs, so weights match the scalar objective."""
    return np.array([v ** 2 for v in g.tolist()])


def _objective(sums: np.ndarray, mu: float, lam, g2) -> np.ndarray:
    """Weight-search objective at weights lam for columns of child sums.

    The rows of sums are (trace_sum, quad_sum, image2, norm2_sum); g2 is
    (1 - lam) ** 2 and broadcasts like lam.  At lam = 0 it is trace_sum.
    """
    trace_sum, quad_sum, image2, norm2_sum = sums
    lam2 = lam * lam
    beta = lam2 / (g2 * (g2 + lam2 * quad_sum))
    return trace_sum / g2 - beta * (mu * image2 + (1.0 - mu) * norm2_sum)


def _row_norms2(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each row, each one a BLAS dot like a 1-D `v @ v`."""
    return np.matmul(rows[:, None, :], rows[:, :, None]).reshape(-1)


def _sum_children(t: int, summaries: np.ndarray, images: np.ndarray):
    """Add up runs of t consecutive children in child order: the columns of
    (err_trace, ones_quad, wl_image_norm2) and the image rows (made contiguous)."""
    total = summaries[:, ::t].copy()
    image = images[::t].copy(order="K")  # the leaves' images are matrix columns
    for j in range(1, t):
        n_j = summaries[:, j::t].shape[1]
        total[:, :n_j] += summaries[:, j::t]
        image[:n_j] += images[j::t]
    return total, np.ascontiguousarray(image)


def _child_sums(node: TreeNode) -> np.ndarray:
    """One internal node's search inputs, from its children's caches, as a (4, 1) array."""
    caches = [child.cache for child in node.children]
    if not caches or any(cache is None for cache in caches):
        raise ParameterError("weights are searched at internal nodes whose children are scaled")
    summaries = np.array([[c.err_trace, c.ones_quad, c.wl_image_norm2] for c in caches]).T
    (trace_sum, quad_sum, norm2_sum), image = _sum_children(
        len(caches), summaries, np.stack([c.wl_image for c in caches]))
    return np.stack([trace_sum, quad_sum, _row_norms2(image), norm2_sum])


def objective_at_lambda(node: TreeNode, lam: float, mu: float) -> float:
    """Workload error proxy if node takes weight lam and discounts its subtree.

    The proxy blends the node's own error term (weight mu) with the
    children's block-diagonal terms (weight 1 - mu); at the root mu is 1 and
    the proxy is the exact strategy error up to the 2/eps2^2 factor.
    """
    if not 0.0 <= lam <= LAMBDA_CAP:
        raise ParameterError(f"lam must lie in [0, {LAMBDA_CAP}], got {lam}")
    if not 0.0 <= mu <= 1.0:
        raise ParameterError(f"mu must lie in [0, 1], got {mu}")
    return float(_objective(_child_sums(node), mu, lam, (1.0 - lam) ** 2)[0])


GRID_POINTS = 33
_GRID = np.linspace(0.0, LAMBDA_CAP, GRID_POINTS)
_GRID_G2 = _squares(1.0 - _GRID)


def _search_lambda(sums: np.ndarray, mu: float, tol: float = 1e-6) -> np.ndarray:
    """Minimize the objective over [0, LAMBDA_CAP] for every column of sums.

    A coarse grid scan brackets each minimum, golden-section refines it
    (nodes drop out as their brackets shrink below tol), and both endpoints
    are checked explicitly.  Ties go to 0 so that workloads already served
    by the children leave the subtree untouched.
    """
    def f(lam: np.ndarray, cols) -> np.ndarray:
        return _objective(sums[:, cols], mu, lam, _squares(1.0 - lam))

    values = _objective(sums[:, :, None], mu, _GRID, _GRID_G2)
    i = np.argmin(values, axis=1)
    a = _GRID[np.maximum(i - 1, 0)]
    b = _GRID[np.minimum(i + 1, GRID_POINTS - 1)]
    c, d = b - (b - a) * _INVPHI, a + (b - a) * _INVPHI
    fc, fd = f(c, slice(None)), f(d, slice(None))
    live = np.flatnonzero((b - a) > tol)
    while live.size:
        left = fc[live] < fd[live]
        lo, hi = live[left], live[~left]
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - (b[lo] - a[lo]) * _INVPHI
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + (b[hi] - a[hi]) * _INVPHI
        fx = f(np.where(left, c[live], d[live]), live)
        fc[lo], fd[hi] = fx[left], fx[~left]
        live = live[(b[live] - a[live]) > tol]
    lam_mid = (a + b) / 2.0
    f0, fmid, fcap = values[:, 0], f(lam_mid, slice(None)), values[:, -1]
    lam = np.where(fmid <= fcap, lam_mid, LAMBDA_CAP)
    lam[(f0 <= fmid) & (f0 <= fcap)] = 0.0
    return lam


def optimize_lambda(node: TreeNode, mu: float, tol: float = 1e-6) -> float:
    """The weight greedy_scale picks for node, given its children's caches."""
    return float(_search_lambda(_child_sums(node), mu, tol)[0])


def greedy_scale(What: "TransformedWorkload | np.ndarray", tree: QueryTree) -> QueryTree:
    """Choose node scalings for the workload, bottom-up, one level at a time.

    Each internal node with two or more children picks the weight lam
    minimizing its objective, all nodes of a level searched together.  A
    node's scaling is its weight (1 at a leaf) times 1 - lam of every
    ancestor, applied nearest ancestor first, which keeps the cover sum of
    every position at 1.  Mutates and returns the tree.
    """
    matrix = What.matrix if isinstance(What, TransformedWorkload) else np.asarray(What, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != tree.k:
        raise DimensionError(f"workload matrix shape {matrix.shape} does not match k={tree.k}")
    t = tree.t
    images = matrix.T  # row i is leaf i's workload column
    norms = _row_norms2(images)
    summaries = np.stack([norms, np.ones(tree.k), norms])
    _attach_caches(tree.leaves, summaries, images)
    lams = [np.zeros(len(level)) for level in tree.levels[:-1]]
    for depth in range(len(lams) - 1, -1, -1):
        (trace_sum, quad_sum, norm2_sum), image = _sum_children(t, summaries, images)
        image2 = _row_norms2(image)
        # A lone (last) child passes its summaries up unchanged at weight 0.
        lone = t * np.arange(len(image2)) + 1 == summaries.shape[1]
        image2[lone] = norm2_sum[lone]
        lam = lams[depth]
        sums = np.stack([trace_sum, quad_sum, image2, norm2_sum])
        lam[~lone] = _search_lambda(sums[:, ~lone], decay_factor(t, depth))
        # Rank-one update of the subtree summaries; exact identity at lam = 0.
        g2 = _squares(1.0 - lam)
        lam2 = lam * lam
        denom = g2 + lam2 * quad_sum
        beta = lam2 / (g2 * denom)
        summaries = np.stack([trace_sum / g2 - beta * image2, quad_sum / denom, image2 / (denom * denom)])
        images = np.divide(image, denom[:, None], out=image)
        _attach_caches(tree.levels[depth], summaries, images)
    for depth, level in enumerate(tree.levels):
        scaling = lams[depth].copy() if depth < len(lams) else np.ones(len(level))
        up = np.arange(len(level))
        for anc in range(depth - 1, -1, -1):
            up //= t
            scaling *= 1.0 - lams[anc][up]
        for node, value in zip(level, scaling.tolist()):
            node.scaling = value
    return tree


def _attach_caches(level, summaries: np.ndarray, images: np.ndarray) -> None:
    for node, (e, q, n2), image in zip(level, summaries.T.tolist(), images):
        node.cache = NodeCache(err_trace=e, ones_quad=q, wl_image=image, wl_image_norm2=n2)


def measure(bucket_counts: np.ndarray, tree: QueryTree, eps2: float, rng: RngStream) -> np.ndarray:
    """Noisy answers of the nodes with positive scaling, in level order.

    Each answer is scaling * true_sum + Laplace(1/eps2); nodes with zero
    scaling are skipped entirely and consume no randomness.
    """
    counts = np.asarray(bucket_counts, dtype=np.float64)
    if counts.shape != (tree.k,):
        raise DimensionError(f"expected {tree.k} bucket counts, got shape {counts.shape}")
    if eps2 <= 0:
        raise ParameterError(f"eps2 must be positive, got {eps2}")
    prefix = np.concatenate(([0.0], np.cumsum(counts)))
    active = [node for node in tree.nodes() if node.scaling > 0.0]
    noise = laplace_sample(1.0 / eps2, rng, size=len(active))
    scalings = np.array([node.scaling for node in active], dtype=np.float64)
    los = np.array([node.lo for node in active], dtype=np.int64)
    his = np.array([node.hi for node in active], dtype=np.int64)
    return scalings * (prefix[his] - prefix[los - 1]) + noise


def ols_infer(tree: QueryTree, measurements: np.ndarray) -> np.ndarray:
    """Least-squares bucket estimate from scaled noisy interval sums.

    measurements are the answers of the positively scaled nodes in level
    order, as measure returns them; answer / scaling estimates a node's sum
    with variance proportional to 1/scaling^2.  Bottom-up, each node merges
    that with its children's summed estimates by inverse variance; top-down,
    each node's final sum minus its children's estimates is shared among
    them in proportion to their variances, so a child of infinite variance
    (nothing answered on some path below it) takes the whole share.
    """
    t = tree.t
    scalings = scaling_vector(tree)
    answered = scalings > 0.0
    if np.count_nonzero(answered) != len(measurements):
        raise DimensionError(f"{len(measurements)} measurements for {np.count_nonzero(answered)} scaled nodes")
    weight = np.where(answered, scalings * scalings, 0.0)
    num = np.zeros(len(scalings))
    num[answered] = scalings[answered] * np.asarray(measurements, dtype=np.float64)
    edges = np.cumsum([0] + [len(level) for level in tree.levels])
    levels = [slice(a, b) for a, b in zip(edges, edges[1:])]
    est, var = np.zeros(len(scalings)), np.zeros(len(scalings))
    with np.errstate(divide="ignore", invalid="ignore"):
        for at, below in zip(levels[::-1], [None] + levels[:0:-1]):
            w, z, fallback = weight[at], num[at], 0.0
            if below is not None:
                fallback = _sum_groups(est[below], t)
                child_weight = 1.0 / _sum_groups(var[below], t)
                w, z = w + child_weight, z + fallback * child_weight
            est[at] = np.where(w > 0.0, z / w, fallback)
            var[at] = 1.0 / w
        if np.isinf(var[0]):
            raise SingularStrategyError("the answers do not determine the total")
        final = est[:1]
        for at in levels[1:]:
            free = np.isinf(var[at])
            if _sum_groups(free.astype(np.int64), t).max() > 1:
                raise SingularStrategyError("two sibling subtrees are both undetermined")
            parent = np.arange(at.stop - at.start) // t
            share = np.where(free, 1.0, var[at] / _sum_groups(var[at], t)[parent])
            final = est[at] + (final - _sum_groups(est[at], t))[parent] * share
    return final


def _sum_groups(values: np.ndarray, t: int) -> np.ndarray:
    """Sums over consecutive runs of t entries: per parent, over its children."""
    return np.add.reduceat(values, np.arange(0, len(values), t))


def scaling_vector(tree: QueryTree) -> np.ndarray:
    """Scalings of all nodes in level order; aligns with strategy_matrix."""
    return np.fromiter((node.scaling for node in tree.nodes()), dtype=np.float64,
                       count=tree.num_nodes())


def strategy_matrix(tree: QueryTree) -> np.ndarray:
    """Dense 0/1 interval-indicator rows of all nodes in level order."""
    rows = np.zeros((tree.num_nodes(), tree.k))
    for i, node in enumerate(tree.nodes()):
        rows[i, node.lo - 1 : node.hi] = 1.0
    return rows


def strategy_error(What: "TransformedWorkload | np.ndarray", tree: QueryTree, eps2: float) -> float:
    """Expected total squared workload error of the scaled strategy.

    Dense evaluation from first principles: 2/eps2^2 times the trace of the
    workload Gram against the inverse strategy Gram.  Used as the reference
    the greedy objective is checked against.
    """
    matrix = What.matrix if isinstance(What, TransformedWorkload) else np.asarray(What, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != tree.k:
        raise DimensionError(f"workload matrix shape {matrix.shape} does not match k={tree.k}")
    if eps2 <= 0:
        raise ParameterError(f"eps2 must be positive, got {eps2}")
    scaled = scaling_vector(tree)[:, None] * strategy_matrix(tree)
    try:
        inv = np.linalg.inv(scaled.T @ scaled)
    except np.linalg.LinAlgError as err:
        raise SingularStrategyError(f"strategy Gram is singular: {err}") from None
    return (2.0 / eps2**2) * float(np.sum((matrix.T @ matrix) * inv))


def estimate_buckets(
    partition: Partition,
    W: Workload,
    x: DataVector,
    eps2: float,
    t: int,
    rng: RngStream,
) -> Histogram:
    """Full stage 2: transform, scale greedily, measure, reconcile."""
    if partition.n != x.n:
        raise DimensionError(f"partition covers [1, {partition.n}] but data has n={x.n}")
    if W.max_hi() > x.n:
        raise DimensionError(f"workload reaches {W.max_hi()} but data has n={x.n}")
    What = transform_workload(W, partition)
    tree = build_query_tree(partition.k, t)
    greedy_scale(What, tree)
    prefix = np.concatenate(([0], np.cumsum(x.counts)))
    los, his = partition.bounds_arrays()
    counts = (prefix[his] - prefix[los - 1]).astype(np.float64)
    measurements = measure(counts, tree, eps2, rng)
    stats = ols_infer(tree, measurements)
    return Histogram(partition=partition, stats=stats)
