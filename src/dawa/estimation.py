"""Stage 2: workload-aware noisy measurement of bucket counts.

Bucket counts are measured through a hierarchy of interval sums, each
scaled by a weight chosen greedily to suit the (transformed) workload, then
reconciled by least squares.  Weights obey a unit-sensitivity constraint:
`write_scalings` sets every hierarchy's scalings root first (a `flat_tree`'s
are all 1), so that those covering any single bucket sum to exactly 1.0,
and stage 2 charges exactly eps2, by construction, however many answers
with Laplace(1/eps2) noise it takes.

The tree is implicit in (k, t): a node is its index in level order, its
interval follows from its level and position, and the only per-node state
is one float64 array of scalings.  Raising a parent's weight is a rank-one
change to its subtree Gram, so the weight search needs only four scalars
per child and the squared norm of each node's workload image, kept as
arrays for one level at a time while the greedy pass searches the tree
bottom-up; each weight is the least of three candidates in closed form,
for all nodes of a level at once.
The image norms come from one array of leaf weights and the workload's end
buckets in O(m + k) per level; no Gram matrix, its inverse or any m-by-k
workload matrix is formed.  One greedy pass scales several (workload, tree)
pairs at once: their leaves are packed side by side, each tree in a block
of t**H leaves for the largest height H, with zero-weight phantom leaves
between, so one weight search, one image-norm pass and one summary update
serve every tree at a height, and each tree gets the bits it would get
alone.  A single tree is a forest of one.
Least squares runs in the eliminated form of Hay et al. (VLDB 2010) with
unequal per-node variances (Qardaji, Yang & Li, VLDB 2013), linear in the
tree size, for every scaled tree including the fixed hierarchies of the
hier_* baselines.  Its half that reads only the tree (which nodes answer,
their intervals, each level's weights, variances and shares, and whether
the answers determine the buckets) is a plan, made once and kept on a tree
whose scalings are read-only, so trials that share a tree only add noise
and solve.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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

# The most leaves one greedy pass packs; a tree larger than this is a pass of its own.
_FOREST_LEAVES = 1 << 18


@dataclass(frozen=True, eq=False)
class QueryTree:
    """Interval-sum hierarchy over k bucket positions with branching t.

    The shape is implicit: the level of height h (leaves have h = 0) holds
    ceil(k / t**h) nodes, and its node i covers [i*t**h + 1,
    min((i+1)*t**h, k)], so node i's children are nodes t*i .. t*i + t - 1
    of the level below and only the last node of a level may hold fewer
    than t; a `flat_tree` has the leaf level alone.  Nodes are numbered in
    level order, root first, left to right; scalings holds one weight per
    node in that order.  `_plan` keeps the tree's `_Plan` while its
    scalings are read-only (`_plan_of`).
    """

    k: int
    t: int
    level_sizes: tuple[int, ...]
    scalings: np.ndarray
    _plan: "_Plan | None" = field(default=None, init=False, repr=False)

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


def flat_tree(k: int) -> QueryTree:
    """k read-only leaf scalings of 1 and no root: least squares returns the answers as they are."""
    tree = QueryTree(k=k, t=2, level_sizes=(k,), scalings=np.ones(k))
    tree.scalings.setflags(write=False)
    return tree


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


@dataclass(frozen=True, eq=False)
class _PackedQueries:
    """The queries of one packed pass, each offset to its tree's block of
    leaves: query i has coefficient first_frac[i] on leaf first[i],
    last_frac[i] on leaf last[i] and 1 on every leaf between.  Its leaves of
    coefficient 1 run from ones_lo[i] up to ones_end[i] + 1, and to_end[i]
    says that run reaches its tree's last real leaf."""

    first: np.ndarray
    last: np.ndarray
    first_frac: np.ndarray
    last_frac: np.ndarray
    ones_lo: np.ndarray
    ones_end: np.ndarray
    to_end: np.ndarray

    @classmethod
    def pack(cls, workloads: "list[TransformedWorkload]", block: int) -> "_PackedQueries":
        """The workloads' queries, workload i's offset by i * block leaves."""
        first = np.concatenate([What.first + i * block for i, What in enumerate(workloads)])
        last = np.concatenate([What.last + i * block for i, What in enumerate(workloads)])
        first_frac = np.concatenate([What.first_frac for What in workloads])
        last_frac = np.concatenate([What.last_frac for What in workloads])
        real_end = np.concatenate([np.full(len(What.last), i * block + What.partition.k - 1)
                                   for i, What in enumerate(workloads)])
        ones_end = np.where(last_frac == 1.0, last, last - 1)
        return cls(first, last, first_frac, last_frac, np.where(first_frac == 1.0, first, first + 1), ones_end,
                   ones_end == real_end)


def _image_norms2(queries: _PackedQueries, v: np.ndarray, totals: np.ndarray, span: int) -> np.ndarray:
    """Per node of the level whose nodes cover `span` leaves, the squared
    workload image norm sum over queries q of (What_q . v_node)^2, where
    v_node is v on the node's leaves and 0 elsewhere.

    A node whose every leaf has coefficient 1 in a query adds its v-sum
    (totals, added up child by child) squared once per such query, counted
    by a +1/-1 difference array over node indices.  A query's (at most two)
    partly covered end nodes add its dot with them, from node-local prefix
    sums of v.  Each node's terms are added in query order.
    """
    leaves, nodes = len(v), len(totals)
    local = np.zeros((nodes, span))
    local.reshape(-1)[:leaves] = v
    np.cumsum(local, axis=1, out=local)
    prefix = local.reshape(-1)
    first, last = queries.first, queries.last
    f_node, l_node = first // span, last // span
    # [lo, hi): the nodes covered with coefficient 1 throughout; a run to its
    # tree's last leaf covers that leaf's node, however few leaves it holds
    lo = -(-queries.ones_lo // span)
    hi = np.maximum(lo, (queries.ones_end + np.where(queries.to_end, span, 1)) // span)
    cover = np.cumsum(np.bincount(lo, minlength=nodes + 1) - np.bincount(hi, minlength=nodes + 1))[:nodes]
    apart = f_node < l_node
    before_last = np.where(last % span > 0, prefix[last - 1], 0.0)
    last_term = queries.last_frac * v[last]
    # the dot with first's node: the first leaf, then the v-sum after it
    # up to the node's end, or up to last and last's own term
    after_first = np.where(apart, local[f_node, -1], before_last) - prefix[first]
    rest = after_first + np.where(apart, 0.0, last_term)
    near = queries.first_frac * v[first] + np.where(first < last, rest, 0.0)
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


def _search_lambda(sums: np.ndarray, mu: "float | np.ndarray") -> np.ndarray:
    """Minimize the objective over [0, LAMBDA_CAP] for every column of sums,
    at one decay mu or at one per column.

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
    """`greedy_scale_forest` on the one pair; writes tree.scalings in place
    and returns the tree."""
    greedy_scale_forest([(What, tree)])
    return tree


def greedy_scale_forest(pairs: "list[tuple[TransformedWorkload, QueryTree]]") -> None:
    """Choose every tree's node scalings for its workload, in place.

    Trees of one branching are packed side by side, at most
    `_FOREST_LEAVES` leaves to a pass, and each pass scales all its trees
    together (`_scale_pass`); a tree gets the bits it would get alone.
    """
    for What, tree in pairs:
        if What.partition.k != tree.k:
            raise DimensionError(f"workload over {What.partition.k} buckets does not match k={tree.k}")
    passes: list[list] = []
    for pair in pairs:
        if (passes and passes[-1][0][1].t == pair[1].t
                and _packed_leaves([tree for _, tree in passes[-1] + [pair]]) <= _FOREST_LEAVES):
            passes[-1].append(pair)
        else:
            passes.append([pair])
    for members in passes:
        _scale_pass(members)


def _packed_leaves(trees: "list[QueryTree]") -> int:
    """Leaves of a pass over the trees: a block of t**H per tree but the last,
    which keeps its own k, for the trees' largest height H."""
    block = trees[0].t ** max(len(tree.level_sizes) - 1 for tree in trees)
    return block * (len(trees) - 1) + trees[-1].k


def _scale_pass(pairs: "list[tuple[TransformedWorkload, QueryTree]]") -> None:
    """Greedy scalings for trees of one branching t, bottom-up, one height
    at a time across all of them.

    Tree i's leaves start at i * t**H for the largest height H, so at every
    height its nodes are one run of the packed level; the leaves between
    trees are phantoms with v = 0 and all-zero summaries, so every real sum
    gains only + 0.0.  Each internal node with two or more real children
    picks the weight lam minimizing its objective, all such nodes of a
    height searched together, each with the decay of its depth in its own
    tree.  A node with at most one real child (a lone last child, a phantom
    or an ancestor above a shorter tree's root) keeps lam = 0 and passes
    its summaries up unchanged.  A node's scaling is lam times what its
    ancestors leave, and a leaf's is all they leave (`write_scalings`), so
    every cover sum is exactly 1.0 and stage 2 charges exactly eps2, by
    construction.  A node's workload image is its tree's workload applied to
    its leaf weights: the products of the 1/denom factors of the nodes below
    it, kept for all leaves in one array v, while each node's v-sum goes up
    the tree as a fourth summary row.
    """
    trees = [tree for _, tree in pairs]
    t = trees[0].t
    heights = [len(tree.level_sizes) - 1 for tree in trees]
    top = max(heights)
    block = t ** top
    queries = _PackedQueries.pack([What for What, _ in pairs], block)
    v = np.zeros(_packed_leaves(trees))
    for i, tree in enumerate(trees):
        v[i * block : i * block + tree.k] = 1.0
    norms = _image_norms2(queries, v, v, 1)
    summaries = np.stack([norms, v, norms, v])
    real = [tree.k for tree in trees]  # each tree's real nodes on the level below
    lams = [None]  # lams[h]: the weights of the nodes at height h
    for height in range(1, top + 1):
        span = t ** height
        trace_sum, quad_sum, norm2_sum, totals = _sum_children(summaries, t)
        image2 = _image_norms2(queries, v, totals, span)
        # each tree's first parents have two or more real children; the rest are lone
        searched = [(r + t - 2) // t for r in real]
        lone = np.ones(len(image2), dtype=bool)
        for i, count in enumerate(searched):
            lone[i * (block // span) : i * (block // span) + count] = False
        real = [-(-r // t) for r in real]
        image2[lone] = norm2_sum[lone]
        lam = np.zeros(len(image2))
        sums = np.stack([trace_sum, quad_sum, image2, norm2_sum])
        mu = np.repeat([decay_factor(t, h - height) for h in heights], searched)
        lam[~lone] = _search_lambda(sums[:, ~lone], mu)
        lams.append(lam)
        # Rank-one update of the subtree summaries; exact identity at lam = 0.
        denom = np.square(1.0 - lam) + np.square(lam) * quad_sum
        summaries = np.stack([_objective(sums, 1.0, lam), quad_sum / denom, image2 / (denom * denom),
                              totals / denom])
        v /= np.repeat(denom, span)[: len(v)]
    for i, (tree, h) in enumerate(zip(trees, heights)):
        # the tree's depth d is height h - d, where its nodes start at i * t**(top - h + d)
        fractions = [lams[h - d][i * t ** (top - h + d):][:size] for d, size in enumerate(tree.level_sizes[:-1])]
        write_scalings(tree, fractions)


@dataclass(frozen=True, eq=False)
class _Plan:
    """The half of `measure` and `ols_infer` that reads only the tree.

    `active` marks the nodes with positive scaling, `los`/`his` bound their
    intervals as prefix-sum indices and `scalings` holds their scalings.
    Bottom-up, per level: its slice, each node's weight (own squared scaling
    plus its children's inverse summed variance) and the children's part
    (None at the leaves).  Top-down, per level below the root: each node's
    parent and its share of the parent's residual.  `singular` is the reason
    the answers cannot be reconciled, or None.
    """

    active: np.ndarray
    los: np.ndarray
    his: np.ndarray
    scalings: np.ndarray
    levels: list
    weights: list
    child_weights: list
    parents: list
    shares: list
    singular: "str | None"

    @classmethod
    def of(cls, tree: QueryTree) -> "_Plan":
        t, scalings = tree.t, tree.scalings
        active = scalings > 0.0
        los, his = (bound[active] for bound in tree.bounds())
        weight = np.where(active, scalings * scalings, 0.0)
        levels = _level_slices(tree)[::-1]
        weights, child_weights, variances = [], [], []
        parents, shares, singular = [], [], None
        with np.errstate(divide="ignore", invalid="ignore"):
            for at in levels:
                w, child_weight = weight[at], None
                if variances:
                    child_weight = 1.0 / _sum_children(variances[-1], t)
                    w = w + child_weight
                weights.append(w)
                child_weights.append(child_weight)
                variances.append(1.0 / w)
            if np.isinf(variances[-1][0]):
                singular = "the answers do not determine the total"
            for var in variances[-2::-1]:
                free = np.isinf(var)
                if singular is None and _sum_children(free.astype(np.int64), t).max() > 1:
                    singular = "two sibling subtrees are both undetermined"
                parents.append(np.arange(len(var)) // t)
                shares.append(np.where(free, 1.0, var / _sum_children(var, t)[parents[-1]]))
        return cls(active, los - 1, his, scalings[active], levels, weights, child_weights, parents, shares,
                   singular)


def _plan_of(tree: QueryTree) -> _Plan:
    """The tree's plan, made once and kept while its scalings are read-only;
    a tree whose scalings may still change gets a fresh one each call."""
    if tree.scalings.flags.writeable:
        object.__setattr__(tree, "_plan", None)
        return _Plan.of(tree)
    if tree._plan is None:
        object.__setattr__(tree, "_plan", _Plan.of(tree))
    return tree._plan


def measure(bucket_counts: np.ndarray, tree: QueryTree, eps2: float, rng: RngStream) -> np.ndarray:
    """Noisy answers of the nodes with positive scaling, in level order.

    Each answer is scaling * true_sum + Laplace(1/eps2); nodes with zero
    scaling are skipped entirely and consume no randomness.
    """
    counts = np.asarray(bucket_counts, dtype=np.float64)
    if counts.shape != (tree.k,):
        raise DimensionError(f"expected {tree.k} bucket counts, got shape {counts.shape}")
    scale = laplace_scale(1.0, "eps2", eps2)
    plan = _plan_of(tree)
    prefix = np.concatenate(([0.0], np.cumsum(counts)))
    noise = laplace_sample(scale, rng, size=len(plan.scalings))
    return plan.scalings * (prefix[plan.his] - prefix[plan.los]) + noise


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
    plan = _plan_of(tree)
    if len(plan.scalings) != len(measurements):
        raise DimensionError(f"{len(measurements)} measurements for {len(plan.scalings)} scaled nodes")
    if plan.singular is not None:
        raise SingularStrategyError(plan.singular)
    t = tree.t
    num = np.zeros(len(tree.scalings))
    num[plan.active] = plan.scalings * np.asarray(measurements, dtype=np.float64)
    ests, child_sums = [], []
    with np.errstate(divide="ignore", invalid="ignore"):
        for at, w, child_weight in zip(plan.levels, plan.weights, plan.child_weights):
            z, fallback = num[at], 0.0
            if child_weight is not None:
                fallback = _sum_children(ests[-1], t)
                z = z + fallback * child_weight
            child_sums.append(fallback)
            ests.append(np.where(w > 0.0, z / w, fallback))
        final = ests[-1]
        for est, child_sum, parent, share in zip(ests[-2::-1], child_sums[:0:-1], plan.parents, plan.shares):
            final = est + (final - child_sum)[parent] * share
    return final


def scaled_trees(partitions: "list[Partition]", W: Workload, t: int) -> list[QueryTree]:
    """Per partition, the query tree over its buckets scaled greedily for W,
    all in packed passes; their scalings are read-only."""
    trees = [build_query_tree(partition.k, t) for partition in partitions]
    greedy_scale_forest([(transform_workload(W, partition), tree) for partition, tree in zip(partitions, trees)])
    for tree in trees:
        tree.scalings.setflags(write=False)
    return trees


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
    from `scaled_trees([partition], W, t)` skips the first two and is only read."""
    if partition.n != x.n:
        raise DimensionError(f"partition covers [1, {partition.n}] but data has n={x.n}")
    tree = scaled_trees([partition], W, t)[0] if tree is None else tree
    measurements = measure(partition.bucket_totals(x.counts), tree, eps2, rng)
    stats = ols_infer(tree, measurements)
    return Histogram(partition=partition, stats=stats)
