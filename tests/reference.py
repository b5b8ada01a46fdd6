"""Node-by-node reference for the level-batched greedy scaling pass."""

import numpy as np

from dawa.estimation import _search_lambda, decay_factor


def node_by_node_greedy(What, tree):
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
        column = What[:, j]
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
            g2 = (1.0 - lam) ** 2
            denom = g2 + lam * lam * quad
            beta = lam * lam / (g2 * denom)
            level.append((trace / g2 - beta * image2, quad / denom, image / denom,
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
