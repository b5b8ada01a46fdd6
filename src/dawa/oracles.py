"""Brute-force and dense reference computations backing the test suite.

Everything here recomputes results by the most direct method available and
shares no code path with the implementations under test beyond the shared
primitive definitions (bucket costs, the tree's node intervals, matrix
shapes).
"""
from __future__ import annotations

from functools import cache

import numpy as np

from .core import DataVector, Interval, ParameterError, Partition, SingularStrategyError, Workload
from .estimation import QueryTree, strategy_matrix
from .partition import bucket_cost

BRUTE_FORCE_MAX_N = 12


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
