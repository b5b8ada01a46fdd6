"""Rewrite interval queries over positions as queries over partition buckets.

Under the uniformity assumption a query picks up each bucket in proportion
to how much of it the query covers, so the rewritten query is exact on any
estimate produced by uniform expansion.  An interval covers a contiguous
run of buckets, every one fully except possibly the two ends, so a rewritten
query is stored as its end buckets and their two covered fractions; no
query-by-bucket matrix is formed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionError, Partition, Workload


@dataclass(frozen=True)
class TransformedWorkload:
    """Workload rewritten against a partition: query i has coefficient
    first_frac[i] on bucket first[i], last_frac[i] on bucket last[i] (0-based;
    equal fractions when the buckets are) and 1 on every bucket between."""

    first: np.ndarray
    last: np.ndarray
    first_frac: np.ndarray
    last_frac: np.ndarray
    partition: Partition


def transform_workload(W: Workload, partition: Partition) -> TransformedWorkload:
    """End buckets of every query from two `searchsorted` calls over the
    bucket bounds, and the covered fraction of each end bucket."""
    q_lo, q_hi = W.los, W.his
    b_lo, b_hi = partition.los, partition.his
    if q_hi.max() > partition.n:
        raise DimensionError(f"workload reaches {q_hi.max()} but partition covers [1, {partition.n}]")
    first, last = np.searchsorted(b_hi, q_lo), np.searchsorted(b_lo, q_hi, side="right") - 1
    first_frac, last_frac = (
        (np.minimum(q_hi, b_hi[end]) - np.maximum(q_lo, b_lo[end]) + 1) / (b_hi[end] - b_lo[end] + 1)
        for end in (first, last)
    )
    return TransformedWorkload(first, last, first_frac, last_frac, partition=partition)
