"""Stage 2: workload-aware noisy measurement of bucket counts.

Bucket counts are measured through a hierarchy of interval sums, each
scaled by a weight chosen greedily to suit the (transformed) workload, then
reconciled by least squares.  Weights obey a unit-sensitivity constraint:
`write_scalings` sets every tree's scalings root first, so that those
covering any single bucket sum to exactly 1.0, and stage 2 charges exactly
eps2, by construction, however many answers with Laplace(1/eps2) noise it
takes.

The tree is implicit in (k, t): a node is its index in level order, its
interval follows from its level and position, and the only per-node state
is one float64 array of scalings.  Raising a parent's weight is a rank-one
change to its subtree Gram, so the weight search needs only four scalars
per child and the squared norm of each node's workload image, kept as
arrays for one level at a time while the greedy pass searches the tree
bottom-up; each weight is the least of three candidates in closed form,
for all nodes of a level at once.
The image norms come from one length-k array of leaf weights and the
workload's end buckets in O(m + k) per level; no Gram matrix, its inverse
or any m-by-k workload matrix is formed.  Least squares runs in the
eliminated form of Hay et al. (VLDB 2010) with unequal per-node variances
(Qardaji, Yang & Li, VLDB 2013), linear in the tree size, for every scaled
tree including the fixed hierarchies of the hier_* baselines.
"""
from __future__ import annotations

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
    laplace_scale,
)
from .transform import TransformedWorkload, transform_workload

# Parent weights may approach but never reach 1; at 1 the children's
# effective scalings vanish and the Gram loses rank.
LAMBDA_CAP = 1.0 - 1e-6


@dataclass(frozen=True, eq=False)
class QueryTree:
    """Interval-sum hierarchy over k bucket positions with branching t.

    The shape is implicit: the level of height h (leaves have h = 0) holds
    ceil(k / t**h) nodes, and its node i covers [i*t**h + 1,
    min((i+1)*t**h, k)], so node i's children are nodes t*i .. t*i + t - 1
    of the level below and only the last node of a level may hold fewer
    than t.  Nodes are numbered in level order, root first, left to right;
    scalings holds one weight per node in that order.
    """

    k: int
    t: int
    level_sizes: tuple[int, ...]
    scalings: np.ndarray

    def num_nodes(self) -> int:
        return len(self.scalings)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Inclusive (los, his) of every node in level order, as int64 arrays."""
        height = len(self.level_sizes) - 1
        los, his = [], []
        for d, size in enumerate(self.level_sizes):
            span = self.t ** (height - d)
            lo = np.arange(size, dtype=np.int64) * span
            los.append(lo + 1)
            his.append(np.minimum(lo + span, self.k))
        return np.concatenate(los), np.concatenate(his)


def _level_slices(tree: QueryTree) -> list[slice]:
    """Each level's slice of the level-order node numbering, root first."""
    edges = np.cumsum((0,) + tree.level_sizes).tolist()
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def check_branching(t: int) -> None:
    if t < 2:
        raise ParameterError(f"need branching t >= 2, got {t}")


def build_query_tree(k: int, t: int = 2) -> QueryTree:
    """Complete-as-possible t-ary tree whose leaves are the unit intervals.

    Scalings start leaves-only: 1 at every leaf, 0 at every internal node.
    """
    if k < 1:
        raise ParameterError(f"need k >= 1, got {k}")
    check_branching(t)
    sizes = [k]
    while sizes[-1] > 1:
        sizes.append(-(-sizes[-1] // t))
    sizes.reverse()
    scalings = np.zeros(sum(sizes))
    scalings[-k:] = 1.0
    return QueryTree(k=k, t=t, level_sizes=tuple(sizes), scalings=scalings)


def decay_factor(t: int, depth: int) -> float:
    """Weight on a node's own workload term; deeper nodes defer to ancestors."""
    return float(t) ** (-depth / 2.0)


def leaf_cover_sums(tree: QueryTree) -> np.ndarray:
    """Per bucket position, the sum of scalings of nodes covering it, added
    one level at a time from the root down."""
    cover = np.zeros(tree.k)
    height = len(tree.level_sizes) - 1
    for d, level in enumerate(_level_slices(tree)):
        cover += np.repeat(tree.scalings[level], tree.t ** (height - d))[: tree.k]
    return cover


def write_scalings(tree: QueryTree, fractions: "list[np.ndarray] | list[float]") -> QueryTree:
    """Set every node's scaling root first, in place, from the cover of its
    ancestors: a node on internal level d takes `fractions[d]` (one float or
    one per node) of 1 - cover, and a leaf takes all of 1 - cover.  The cover
    is added in `leaf_cover_sums`' order, and c + fl(1 - c) is exactly 1.0
    for any c in [0, 1], so every leaf's cover sum is exactly 1.0."""
    height = len(tree.level_sizes) - 1
    cover = np.zeros(1)
    for d, level in enumerate(_level_slices(tree)):
        scaling = tree.scalings[level]
        np.subtract(1.0, cover, out=scaling)
        if d < height:
            scaling *= fractions[d]
            cover = np.repeat(cover + scaling, tree.t)[: tree.level_sizes[d + 1]]
    return tree


def _objective(sums: np.ndarray, mu: float, lam) -> np.ndarray:
    """Weight-search objective at weights lam for columns of child sums.

    The rows of sums are (T, Q, image2, norm2_sum), and lam broadcasts
    against a row.  With u = lam / (1 - lam), B = mu * image2 +
    (1 - mu) * norm2_sum and A = T Q - B it is
    f(u) = (1 + u)^2 (A u^2 + T) / (Q u^2 + 1), exactly T at lam = 0.
    """
    trace_sum, quad_sum, image2, norm2_sum = sums
    a = trace_sum * quad_sum - (mu * image2 + (1.0 - mu) * norm2_sum)
    u = lam / (1.0 - lam)
    u2 = u * u
    return np.square(1.0 + u) * (a * u2 + trace_sum) / (quad_sum * u2 + 1.0)


def _image_norms2(What: TransformedWorkload, v: np.ndarray, totals: np.ndarray, span: int) -> np.ndarray:
    """Per node of the level whose nodes cover `span` buckets, the squared
    workload image norm sum over queries q of (What_q . v_node)^2, where
    v_node is v on the node's buckets and 0 elsewhere.

    A node whose every bucket has coefficient 1 in a query adds its v-sum
    (totals, added up child by child) squared once per such query, counted
    by a +1/-1 difference array over node indices.  A query's (at most two)
    partly covered end nodes add its dot with them, from node-local prefix
    sums of v.
    """
    k, nodes = len(v), len(totals)
    local = np.zeros((nodes, span))
    local.reshape(-1)[:k] = v
    np.cumsum(local, axis=1, out=local)
    prefix = local.reshape(-1)
    first, last = What.first, What.last
    f_node, l_node = first // span, last // span
    # [lo, hi): the nodes covered with coefficient 1 throughout
    lo = -(-np.where(What.first_frac == 1.0, first, first + 1) // span)
    ones_end = np.where(What.last_frac == 1.0, last, last - 1)
    hi = np.maximum(lo, np.where(ones_end == k - 1, nodes, (ones_end + 1) // span))
    cover = np.cumsum(np.bincount(lo, minlength=nodes + 1) - np.bincount(hi, minlength=nodes + 1))[:nodes]
    apart = f_node < l_node
    before_last = np.where(last % span > 0, prefix[last - 1], 0.0)
    last_term = What.last_frac * v[last]
    # the dot with first's node: the first bucket, then the v-sum after it
    # up to the node's end, or up to last and last's own term
    after_first = np.where(apart, local[f_node, -1], before_last) - prefix[first]
    rest = after_first + np.where(apart, 0.0, last_term)
    near = What.first_frac * v[first] + np.where(first < last, rest, 0.0)
    near[(lo == f_node) & (f_node < hi)] = 0.0
    # the dot with last's node, when that is another partly covered node
    far = np.where(apart & (hi <= l_node), before_last + last_term, 0.0)
    return (cover * (totals * totals) + np.bincount(f_node, near * near, nodes)
            + np.bincount(l_node, far * far, nodes))


def _sum_children(values: np.ndarray, t: int) -> np.ndarray:
    """Sums over runs of t consecutive entries of the last axis, in child
    order: per parent, over its children."""
    total = values[..., ::t].copy()
    for j in range(1, t):
        n_j = values[..., j::t].shape[-1]
        total[..., :n_j] += values[..., j::t]
    return total


def _search_lambda(sums: np.ndarray, mu: float) -> np.ndarray:
    """Minimize the objective over [0, LAMBDA_CAP] for every column of sums.

    In _objective's terms f'(u) has the sign of p(u) = A Q u^4 + 2 A u^2 -
    B u + T, with p(0) = T >= 0.  If A <= 0, p only falls and the least
    point is an end (a node no query touches has T = B = 0 and f = 0).  If
    A > 0, p is convex and f's one interior minimum is p's larger root,
    which a fixed count of Newton steps reaches from a start where p >= 0
    and p' > 0.  The weight is the first least of f at 0, that root and
    LAMBDA_CAP: ties go to the smaller weight, leaving exactly 0 where the
    children already serve the workload, and a column gets the same bits
    alone or in any batch.
    """
    trace_sum, quad_sum, image2, norm2_sum = sums
    b = mu * image2 + (1.0 - mu) * norm2_sum
    a = trace_sum * quad_sum - b
    with np.errstate(all="ignore"):
        u = np.minimum(np.cbrt(b / (a * quad_sum)), b / (2.0 * a))
        for _ in range(20):
            w = a * quad_sum * u * u + a
            u -= (((w + a) * u - b) * u + trace_sum) / (4.0 * w * u - b)
        root = np.where(a > 0.0, np.nan_to_num(np.clip(u / (1.0 + u), 0.0, LAMBDA_CAP)), 0.0)
    lams = np.stack([np.zeros_like(root), root, np.full_like(root, LAMBDA_CAP)])
    return lams[np.argmin(_objective(sums, mu, lams), axis=0), np.arange(root.size)]


def greedy_scale(What: TransformedWorkload, tree: QueryTree) -> QueryTree:
    """Choose node scalings for the workload, bottom-up, one level at a time.

    Each internal node with two or more children picks the weight lam
    minimizing its objective, all nodes of a level searched together.  A
    node's scaling is lam times what its ancestors leave, and a leaf's is
    all they leave (`write_scalings`), so every cover sum is exactly 1.0 and
    stage 2 charges exactly eps2, by construction.  A node's workload image
    is What applied to its leaf weights: the products of the 1/denom factors
    of the nodes below it, kept for all leaves in one length-k array v,
    while each node's v-sum goes up the tree as a fourth summary row.
    Writes tree.scalings in place and returns the tree.
    """
    if What.partition.k != tree.k:
        raise DimensionError(f"workload over {What.partition.k} buckets does not match k={tree.k}")
    t = tree.t
    v = np.ones(tree.k)
    norms = _image_norms2(What, v, v, 1)
    summaries = np.stack([norms, v, norms, v])
    lams = [np.zeros(size) for size in tree.level_sizes[:-1]]
    for depth in range(len(lams) - 1, -1, -1):
        span = t ** (len(lams) - depth)
        trace_sum, quad_sum, norm2_sum, totals = _sum_children(summaries, t)
        image2 = _image_norms2(What, v, totals, span)
        # A lone (last) child passes its summaries up unchanged at weight 0.
        lone = t * np.arange(len(image2)) + 1 == summaries.shape[1]
        image2[lone] = norm2_sum[lone]
        lam = lams[depth]
        sums = np.stack([trace_sum, quad_sum, image2, norm2_sum])
        lam[~lone] = _search_lambda(sums[:, ~lone], decay_factor(t, depth))
        # Rank-one update of the subtree summaries; exact identity at lam = 0.
        denom = np.square(1.0 - lam) + np.square(lam) * quad_sum
        summaries = np.stack([_objective(sums, 1.0, lam), quad_sum / denom, image2 / (denom * denom),
                              totals / denom])
        v /= np.repeat(denom, span)[: tree.k]
    return write_scalings(tree, lams)


def measure(bucket_counts: np.ndarray, tree: QueryTree, eps2: float, rng: RngStream) -> np.ndarray:
    """Noisy answers of the nodes with positive scaling, in level order.

    Each answer is scaling * true_sum + Laplace(1/eps2); nodes with zero
    scaling are skipped entirely and consume no randomness.
    """
    counts = np.asarray(bucket_counts, dtype=np.float64)
    if counts.shape != (tree.k,):
        raise DimensionError(f"expected {tree.k} bucket counts, got shape {counts.shape}")
    scale = laplace_scale(1.0, "eps2", eps2)
    prefix = np.concatenate(([0.0], np.cumsum(counts)))
    active = tree.scalings > 0.0
    noise = laplace_sample(scale, rng, size=int(np.count_nonzero(active)))
    los, his = (bound[active] for bound in tree.bounds())
    return tree.scalings[active] * (prefix[his] - prefix[los - 1]) + noise


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
    scalings = tree.scalings
    answered = scalings > 0.0
    if np.count_nonzero(answered) != len(measurements):
        raise DimensionError(f"{len(measurements)} measurements for {np.count_nonzero(answered)} scaled nodes")
    weight = np.where(answered, scalings * scalings, 0.0)
    num = np.zeros(len(scalings))
    num[answered] = scalings[answered] * np.asarray(measurements, dtype=np.float64)
    levels = _level_slices(tree)
    est, var = np.zeros(len(scalings)), np.zeros(len(scalings))
    with np.errstate(divide="ignore", invalid="ignore"):
        for at, below in zip(levels[::-1], [None] + levels[:0:-1]):
            w, z, fallback = weight[at], num[at], 0.0
            if below is not None:
                fallback = _sum_children(est[below], t)
                child_weight = 1.0 / _sum_children(var[below], t)
                w, z = w + child_weight, z + fallback * child_weight
            est[at] = np.where(w > 0.0, z / w, fallback)
            var[at] = 1.0 / w
        if np.isinf(var[0]):
            raise SingularStrategyError("the answers do not determine the total")
        final = est[:1]
        for at in levels[1:]:
            free = np.isinf(var[at])
            if _sum_children(free.astype(np.int64), t).max() > 1:
                raise SingularStrategyError("two sibling subtrees are both undetermined")
            parent = np.arange(at.stop - at.start) // t
            share = np.where(free, 1.0, var[at] / _sum_children(var[at], t)[parent])
            final = est[at] + (final - _sum_children(est[at], t))[parent] * share
    return final


def scaled_tree(partition: Partition, W: Workload, t: int) -> QueryTree:
    """The query tree over the partition's buckets, scaled greedily for W; its scalings are read-only."""
    tree = greedy_scale(transform_workload(W, partition), build_query_tree(partition.k, t))
    tree.scalings.setflags(write=False)
    return tree


def estimate_buckets(
    partition: Partition,
    W: Workload,
    x: DataVector,
    eps2: float,
    t: int,
    rng: RngStream,
    tree: "QueryTree | None" = None,
) -> Histogram:
    """Full stage 2: transform, scale greedily, measure, reconcile; a `tree`
    from `scaled_tree(partition, W, t)` skips the first two and is only read."""
    if partition.n != x.n:
        raise DimensionError(f"partition covers [1, {partition.n}] but data has n={x.n}")
    tree = scaled_tree(partition, W, t) if tree is None else tree
    measurements = measure(partition.bucket_totals(x.counts), tree, eps2, rng)
    stats = ols_infer(tree, measurements)
    return Histogram(partition=partition, stats=stats)
