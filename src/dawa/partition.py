"""Stage 1: choose a low-cost interval partition of the domain privately.

A bucket's cost is its internal deviation from uniformity plus the 1/eps2
noise price a bucket will pay in stage 2.  The deviation is 2*N/L for the
exact integer numerator N = L*S - T*C, where T is the bucket total and C and
S count and sum the values at or above the mean T/L.  `all_costs` computes
N for every candidate bucket at once from prefix sums and a merge-sort tree,
so each cost is one float division away from the exact value and matches
the direct per-bucket computation bit for bit.  The costs live in one flat
array, perturbation is one vector add, and the dynamic program indexes it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    DataVector,
    Interval,
    ParameterError,
    Partition,
    RngStream,
    laplace_sample,
)

# One count added or removed changes a bucket's deviation by at most 2.
BUCKET_COST_SENSITIVITY = 2.0

# Every numerator L*S - T*C is at most n * total; doubled, it must stay an
# exact float64 integer for the cost to round exactly once.
EXACT_COST_LIMIT = 2**52

# Candidates per slice of the cost computation; sized for the L2 cache.
_CHUNK = 1 << 13


@dataclass(frozen=True)
class PartitionParams:
    """Knobs for the private partition stage."""

    eps1: float
    eps2: float
    mode: str = "pow2"
    delta_bcost: float = BUCKET_COST_SENSITIVITY

    def __post_init__(self) -> None:
        for name in ("eps1", "eps2"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be positive and finite, got {v}")
        if self.mode not in ("all", "pow2"):
            raise ParameterError(f"mode must be 'all' or 'pow2', got {self.mode!r}")
        if self.delta_bcost <= 0:
            raise ParameterError("delta_bcost must be positive")


@dataclass(frozen=True, eq=False)
class CostTable:
    """Noisy or exact costs of every candidate bucket, as one flat array.

    `costs` runs over lengths ascending and, within a length, lo ascending:
    the bucket of length `lengths[i]` starting at lo sits at
    `offsets[i] + lo - 1`.
    """

    n: int
    mode: str
    lengths: np.ndarray
    offsets: np.ndarray
    costs: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.lengths, self.offsets, self.costs):
            arr.setflags(write=False)

    def cost(self, lo: int, hi: int) -> float:
        length = hi - lo + 1
        i = int(np.searchsorted(self.lengths, length))
        if not (lo >= 1 and hi <= self.n and i < self.lengths.size and self.lengths[i] == length):
            raise KeyError((lo, hi))
        return float(self.costs[self.offsets[i] + lo - 1])

    def __len__(self) -> int:
        return int(self.costs.size)


def candidate_lengths(n: int, mode: str) -> tuple[int, ...]:
    if n < 1:
        raise ParameterError(f"domain size must be >= 1, got {n}")
    if mode == "all":
        return tuple(range(1, n + 1))
    if mode == "pow2":
        return tuple(1 << j for j in range(int(n).bit_length()))
    raise ParameterError(f"mode must be 'all' or 'pow2', got {mode!r}")


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
    if not b.valid_for(x.n):
        raise ParameterError(f"bucket {b} outside domain of size {x.n}")
    values = [int(v) for v in x.counts[b.lo - 1 : b.hi]]
    total = sum(values)
    num = _dev_numerator(values, total, b.length)
    return (2 * num) / b.length


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


class _MergeSortTree:
    """Count and sum of the values in a window that reach a threshold.

    Level l holds every aligned block of 2**l values sorted, with prefix
    sums.  Keying a value by block * (max + 1) + value keeps a whole level
    one sorted array, so one searchsorted per level and side places every
    query's threshold inside its block.  A bottom-up segment-tree walk
    splits each window into at most one block per level and side.
    """

    def __init__(self, values: np.ndarray):
        self.stride = int(values.max()) + 1
        position = np.arange(values.size)
        self.levels = []
        for level in range(values.size.bit_length()):
            base = (position >> level) * self.stride
            keys = np.sort(base + values)
            self.levels.append((keys, np.concatenate(([0], np.cumsum(keys - base)))))

    def count_sum_at_least(
        self, starts: np.ndarray, stops: np.ndarray, thresholds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per query, count and sum of values[a:b] that are >= t."""
        count = np.zeros(starts.size, dtype=np.int64)
        total = np.zeros(starts.size, dtype=np.int64)
        lo, hi = starts.copy(), stops.copy()
        for level, (keys, sums) in enumerate(self.levels):
            live = lo < hi
            if not live.any():
                break
            take_lo = live & ((lo & 1) == 1)
            take_hi = live & ((hi & 1) == 1)
            lo_side, hi_side = np.flatnonzero(take_lo), np.flatnonzero(take_hi)
            for idx, block in ((lo_side, lo[lo_side]), (hi_side, hi[hi_side] - 1)):
                first = np.searchsorted(keys, block * self.stride + thresholds[idx])
                end = (block + 1) << level
                count[idx] += end - first
                total[idx] += sums[end] - sums[first]
            # halving an odd hi already steps past the block it just took
            lo += take_lo
            lo >>= 1
            hi >>= 1
        return count, total


def all_costs(x: DataVector, eps2: float, mode: str = "pow2") -> CostTable:
    """Exact cost table over all candidate buckets for the given mode.

    Candidates are processed in slices of _CHUNK so the per-query arrays
    stay cache-resident and slices of short buckets stop after few levels.
    """
    if eps2 <= 0:
        raise ParameterError(f"eps2 must be positive, got {eps2}")
    n = x.n
    if n * x.total() > EXACT_COST_LIMIT:
        raise ParameterError(
            f"n * total = {n * x.total()} exceeds 2**52; stage-1 costs would not be exact"
        )
    lengths = np.asarray(candidate_lengths(n, mode), dtype=np.int64)
    sizes = n - lengths + 1
    offsets = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    prefix = np.concatenate(([0], np.cumsum(x.counts)))
    tree = _MergeSortTree(x.counts)
    costs = np.empty(int(sizes.sum()))
    for at in range(0, costs.size, _CHUNK):
        index = np.arange(at, min(at + _CHUNK, costs.size))
        group = np.searchsorted(offsets, index, side="right") - 1
        length = lengths[group]
        start = index - offsets[group]
        window_total = prefix[start + length] - prefix[start]
        at_least = -(-window_total // length)
        count, total = tree.count_sum_at_least(start, start + length, at_least)
        num = length * total - window_total * count
        costs[at : at + index.size] = (2 * num) / length + 1.0 / eps2
    return CostTable(n=n, mode=mode, lengths=lengths, offsets=offsets, costs=costs)


def perturb_costs(
    table: CostTable,
    eps1: float,
    rng: RngStream,
    delta_bcost: float = BUCKET_COST_SENSITIVITY,
) -> CostTable:
    """Add Laplace(2*delta_bcost/eps1) noise to every cost entry.

    The factor 2 on the sensitivity pays for reusing each count in the
    costs of overlapping candidate buckets.
    """
    if eps1 <= 0:
        raise ParameterError(f"eps1 must be positive, got {eps1}")
    noise = laplace_sample(2.0 * delta_bcost / eps1, rng, size=len(table))
    return replace(table, costs=table.costs + noise)


def least_cost_partition(table: CostTable, n: int) -> Partition:
    """Minimize total bucket cost over partitions drawn from the table.

    Dynamic program over right endpoints; candidate lengths are scanned
    longest first with strict improvement, so among equal-cost partitions
    the one with the longer final bucket wins.
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
    buckets = []
    j = n
    while j > 0:
        length = pick[j]
        buckets.append(Interval(j - length + 1, j))
        j -= length
    return Partition(tuple(reversed(buckets)))


def exact_partition(x: DataVector, eps2: float, mode: str = "pow2") -> Partition:
    """Noise-free least-cost partition; not private, for oracles and debugging."""
    table = all_costs(x, eps2, mode)
    return least_cost_partition(table, x.n)


def private_partition(x: DataVector, params: PartitionParams, rng: RngStream) -> Partition:
    """Choose a partition under eps1-differential privacy.

    Computes exact candidate costs, perturbs each with Laplace noise scaled
    to twice the per-entry sensitivity, then solves the least-cost dynamic
    program on the noisy table.
    """
    table = all_costs(x, params.eps2, params.mode)
    noisy = perturb_costs(table, params.eps1, rng, delta_bcost=params.delta_bcost)
    return least_cost_partition(noisy, x.n)


def utility_bound(
    n: int,
    num_candidates: int,
    delta: float,
    eps1: float,
    delta_bcost: float = BUCKET_COST_SENSITIVITY,
) -> float:
    """Additive gap to the optimal partition cost, holding except with
    probability delta."""
    if n < 1 or num_candidates < 1:
        raise ParameterError("n and num_candidates must be >= 1")
    if not 0 < delta < 1:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    if eps1 <= 0:
        raise ParameterError(f"eps1 must be positive, got {eps1}")
    return 4.0 * delta_bcost * n * math.log(num_candidates / delta) / eps1
