"""Rewrite interval queries over positions as queries over partition buckets.

Under the uniformity assumption a query picks up each bucket in proportion
to how much of it the query covers, so the rewritten query is exact on any
estimate produced by uniform expansion.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionError, Interval, Partition, Workload


@dataclass(frozen=True)
class TransformedWorkload:
    """Workload rewritten against a partition; one row per source query."""

    matrix: np.ndarray
    source: Workload
    partition: Partition

    def __post_init__(self) -> None:
        arr = np.asarray(self.matrix, dtype=np.float64)
        if arr.shape != (self.source.m, self.partition.k):
            raise DimensionError(
                f"matrix shape {arr.shape} does not match m={self.source.m}, k={self.partition.k}"
            )
        object.__setattr__(self, "matrix", arr)
        self.matrix.setflags(write=False)


def transform_query(q: Interval, partition: Partition) -> np.ndarray:
    """Coefficients of q over the buckets: covered fraction of each bucket."""
    return transform_workload(Workload((q,)), partition).matrix[0].copy()


def transform_workload(W: Workload, partition: Partition) -> TransformedWorkload:
    """One row of covered bucket fractions per query, built from bound arrays.

    A query covers every bucket strictly between its end buckets fully: a
    +1/-1 marker pair per row and one in-place cumulative sum over the flat
    matrix write those 1.0 runs, then the two end entries are set.
    """
    if W.max_hi() > partition.n:
        raise DimensionError(f"workload reaches {W.max_hi()} but partition covers [1, {partition.n}]")
    q_lo, q_hi = W.bounds_arrays()
    b_lo, b_hi = partition.bounds_arrays()
    first, last = np.searchsorted(b_hi, q_lo), np.searchsorted(b_lo, q_hi, side="right") - 1
    rows = np.zeros((W.m, partition.k))
    flat = rows.reshape(-1)
    inner = np.flatnonzero(last - first > 1)
    flat[inner * partition.k + first[inner] + 1] = 1.0
    flat[inner * partition.k + last[inner]] = -1.0
    np.cumsum(flat, out=flat)
    for end in (first, last):
        overlap = np.minimum(q_hi, b_hi[end]) - np.maximum(q_lo, b_lo[end]) + 1
        rows[np.arange(W.m), end] = overlap / (b_hi[end] - b_lo[end] + 1)
    return TransformedWorkload(matrix=rows, source=W, partition=partition)
