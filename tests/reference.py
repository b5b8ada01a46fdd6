"""Scalar references for the array-native passes: the least-cost dynamic
program, the level-batched greedy scaling and the workload generators; and
the two-branch Laplace sampler that the one-log form replaced."""

import math

import numpy as np

from dawa.core import ParameterError, Partition, RngStream
from dawa.estimation import _objective, _search_lambda, decay_factor


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
