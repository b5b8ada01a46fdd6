"""Stage 1: choose a low-cost interval partition of the domain privately.

A bucket's cost is its internal deviation from uniformity plus the 1/eps2
noise price a bucket will pay in stage 2.  The deviation is 2*N/L for the
exact integer numerator N = L*S - T*C, where T is the bucket total and C and
S count and sum the values at or above the mean T/L.  `all_costs` computes
N for every candidate bucket at once from prefix sums and one index over the
ranks of the D distinct counts: per-rank prefix rows for the lowest ranks,
as many as _TABLE_CAP entries hold, one lookup per candidate, and a wavelet
matrix for the ranks past them, log D levels per candidate.  Each cost is
one float division away from the exact value and matches the direct
per-bucket computation bit for bit.  The costs live in one flat array,
which a release prices and noises in place, and the dynamic program gathers
the candidates ending at each endpoint as one row of it.  Every epsilon is
at least `core.EPSILON_FLOOR`, so noisy costs and their sums stay far inside
float64 and nothing here predicts an overflow.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .core import (
    DataVector,
    ParameterError,
    Partition,
    RngStream,
    check_epsilon,
    laplace_draws,
    laplace_scale,
)

# One count added or removed changes a bucket's deviation by at most 2.
BUCKET_COST_SENSITIVITY = 2.0

# Candidate bucket lengths: every length, or the powers of two.
MODES = ("all", "pow2")

# Every numerator L*S - T*C is at most n * total; doubled, it must stay an
# exact float64 integer for the cost to round exactly once.
EXACT_COST_LIMIT = 2**52

# Candidates per slice of the cost computation, and per block of rows the
# dynamic program gathers; sized for the L2 cache.
_CHUNK = 1 << 13

# Most entries in the rank rows of `_WindowIndex`: its two int64 arrays
# then take at most 1 MiB, stay in cache and need no memory check.
_TABLE_CAP = 8 * _CHUNK


def check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ParameterError(f"mode must be 'all' or 'pow2', got {mode!r}")


@dataclass(frozen=True)
class PartitionParams:
    """Knobs for the private partition stage."""

    eps1: float
    eps2: float
    mode: str = "pow2"
    # a property of the cost function, not a knob: a smaller value under-noises stage 1
    delta_bcost: ClassVar[float] = BUCKET_COST_SENSITIVITY

    def __post_init__(self) -> None:
        check_epsilon("eps1", self.eps1)
        check_epsilon("eps2", self.eps2)
        check_mode(self.mode)

    @property
    def noise_scale(self) -> float:
        """Laplace scale of the cost noise: twice the per-entry sensitivity over eps1."""
        return laplace_scale(2.0 * self.delta_bcost, "eps1", self.eps1)


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

    def __len__(self) -> int:
        return int(self.costs.size)


def candidate_lengths(n: int, mode: str) -> tuple[int, ...]:
    if n < 1:
        raise ParameterError(f"domain size must be >= 1, got {n}")
    check_mode(mode)
    if mode == "all":
        return tuple(range(1, n + 1))
    return tuple(1 << j for j in range(int(n).bit_length()))


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform cannot say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, OSError, ValueError):
        return math.inf


class _WindowIndex:
    """Count and sum of the values in a window that reach a threshold, from
    the ranks of the D distinct values.  A query of rank below
    R = min(D, _TABLE_CAP // (n + 1)) is one lookup in that rank's
    prefix-count and prefix-sum rows over the values of at least its rank.
    Only when R < D is there a wavelet matrix over the rank bits, top bit
    first: max(1, bits(D - 1)) levels, each with the prefix count of its
    bit, the prefix sums of the values whose bit is set and its zero count,
    the next level putting the 0-bit values first, stably.  A query of rank
    R or more walks its rank's bits, adding the window's 1-branch at each 0
    bit, and ends on the values equal to the rank: log D steps per query.
    """

    def __init__(self, values: np.ndarray):
        self.distinct, rank = np.unique(values, return_inverse=True)
        self.width = values.size + 1
        self.rows = min(self.distinct.size, _TABLE_CAP // self.width)
        reach = rank >= np.arange(self.rows)[:, None]
        self.counts = np.zeros((self.rows, self.width), dtype=np.int64)
        self.sums = np.zeros_like(self.counts)
        np.cumsum(reach, axis=1, out=self.counts[:, 1:])
        np.cumsum(reach * values, axis=1, out=self.sums[:, 1:])
        self.counts, self.sums = self.counts.ravel(), self.sums.ravel()
        self.levels = []
        if self.rows == self.distinct.size:
            return
        for shift in range(max(1, (self.distinct.size - 1).bit_length()) - 1, -1, -1):
            bit = (rank >> shift) & 1
            ones = np.concatenate(([0], np.cumsum(bit)))
            sums = np.concatenate(([0], np.cumsum(values * bit)))
            self.levels.append((shift, ones, sums, values.size - ones[-1]))
            order = np.argsort(bit, kind="stable")
            rank, values = rank[order], values[order]

    def count_sum_at_least(
        self, starts: np.ndarray, stops: np.ndarray, thresholds: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per query, count and sum of values[a:b] that are >= t, for t at
        most the largest value."""
        rank = np.searchsorted(self.distinct, thresholds)
        if not self.levels:
            return self._read_rows(rank, starts, stops)
        if not self.rows:
            return self._walk(rank, starts, stops)
        count, total = np.empty((2, rank.size), dtype=np.int64)
        for part, answer in ((rank < self.rows, self._read_rows), (rank >= self.rows, self._walk)):
            count[part], total[part] = answer(rank[part], starts[part], stops[part])
        return count, total

    def _read_rows(self, rank, starts, stops):
        row = rank * self.width
        lo, hi = row + starts, row + stops
        return self.counts[hi] - self.counts[lo], self.sums[hi] - self.sums[lo]

    def _walk(self, rank, starts, stops):
        count, total = np.zeros((2, rank.size), dtype=np.int64)
        lo, hi = starts, stops
        for shift, ones, sums, zeros in self.levels:
            ones_lo, ones_hi = ones[lo], ones[hi]
            up = (rank >> shift) & 1
            down = 1 - up
            count += down * (ones_hi - ones_lo)
            total += down * (sums[hi] - sums[lo])
            lo = np.where(up, zeros + ones_lo, lo - ones_lo)
            hi = np.where(up, zeros + ones_hi, hi - ones_hi)
        count += hi - lo
        total += (hi - lo) * self.distinct[rank]
        return count, total


def candidate_count(n: int, mode: str) -> int:
    """Stage 1's candidate buckets over n positions, in closed form."""
    bits = n.bit_length()
    return n * (n + 1) // 2 if mode == "all" else bits * (n + 1) - (1 << bits) + 1


def check_stage1_size(n: int, total: int, mode: str, tables: int = 1) -> int:
    """Stage 1's candidate count, from its parameters alone so that nothing
    is built; refuses costs that would not be exact and `tables` float64 per
    candidate that would not fit in memory.  Noisy costs cannot overflow:
    every epsilon is at least `core.EPSILON_FLOOR`."""
    check_mode(mode)
    candidates = candidate_count(n, mode)
    if n * total > EXACT_COST_LIMIT:
        raise ParameterError(f"n * total = {n * total} exceeds 2**52; stage-1 costs would not be exact")
    # a release holds its costs, noisy on the private path; releases sharing deviations hold those too
    need, have = 8 * tables * candidates, _physical_memory()
    if need > have:
        raise ParameterError(f"stage 1 needs about {need / 2**30:.1f} GiB for {candidates} candidate buckets "
                             f"(mode {mode!r}, n = {n}) but this machine has {have / 2**30:.1f} GiB")
    return candidates


def _deviations(x: DataVector, mode: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lengths, offsets and every candidate's exact deviation 2N/L in a fresh array, computed
    in slices of _CHUNK so the per-query arrays stay cache-resident; callers check the size first."""
    lengths = np.asarray(candidate_lengths(x.n, mode), dtype=np.int64)
    bounds = np.concatenate(([0], np.cumsum(x.n - lengths + 1)))
    offsets = bounds[:-1]
    prefix = np.concatenate(([0], np.cumsum(x.counts)))
    index = _WindowIndex(x.counts)
    costs = np.empty(bounds[-1])
    for at in range(0, costs.size, _CHUNK):
        stop = min(at + _CHUNK, costs.size)
        first, last = np.searchsorted(bounds, (at, stop - 1), side="right") - 1
        extents = np.diff(np.clip(bounds[first : last + 2], at, stop))
        group = np.repeat(np.arange(first, last + 1), extents)
        length = lengths[group]
        start = np.arange(at, stop) - offsets[group]
        window_total = prefix[start + length] - prefix[start]
        # the ceiling of the window mean never exceeds the window's largest value
        at_least = -(-window_total // length)
        count, total = index.count_sum_at_least(start, start + length, at_least)
        np.divide(2 * (length * total - window_total * count), length, out=costs[at:stop])
    return lengths, offsets, costs


def all_costs(x: DataVector, eps2: float, mode: str = "pow2") -> CostTable:
    """Costs of every candidate bucket: its exact deviation plus the 1/eps2 price."""
    check_epsilon("eps2", eps2)
    check_stage1_size(x.n, x.total(), mode)
    lengths, offsets, costs = _deviations(x, mode)
    costs += 1.0 / eps2
    return CostTable(n=x.n, mode=mode, lengths=lengths, offsets=offsets, costs=costs)


def deviation_table(x: DataVector, mode: str = "pow2") -> CostTable:
    """Every candidate's exact deviation 2N/L, which depends on x and mode
    alone; a release prices and noises a copy of it with the bits of a fresh
    table.  Its caller checks that it fits beside the tables read from it."""
    check_stage1_size(x.n, x.total(), mode)
    return CostTable(x.n, mode, *_deviations(x, mode))


def _add_noise(costs: np.ndarray, scale: float, rng: RngStream) -> None:
    """Add Laplace(scale) to `costs` in place, _CHUNK at a time, as one ledger entry."""
    draw = laplace_draws(scale, rng, costs.size)
    for at in range(0, costs.size, _CHUNK):
        costs[at : at + _CHUNK] += draw(min(_CHUNK, costs.size - at))


def perturb_costs(table: CostTable, eps1: float, rng: RngStream,
                  delta_bcost: float = BUCKET_COST_SENSITIVITY) -> CostTable:
    """A copy of the table with Laplace(2*delta_bcost/eps1) noise on every
    cost entry, drawn as a release draws it.

    The factor 2 on the sensitivity pays for reusing each count in the
    costs of overlapping candidate buckets.
    """
    costs = table.costs.copy()
    _add_noise(costs, laplace_scale(2.0 * delta_bcost, "eps1", eps1), rng)
    return replace(table, costs=costs)


def least_cost_partition(table: CostTable, n: int) -> Partition:
    """Minimize total bucket cost over partitions drawn from the table.

    Dynamic program over right endpoints.  The candidates ending at j form
    one row, lengths longest first: the bucket of length L = lengths[i]
    sits at offsets[i] - L + j in the flat costs.  Rows are gathered a block
    of endpoints at a time; per endpoint the row is added to the least cost
    of [1, j - L] and argmin, which returns the first minimum, picks the
    length.  That is the same rule as a longest-first scan with strict
    improvement, so among equal-cost partitions the one with the longer
    final bucket wins.

    `best` is padded in front with one inf per unit of the longest length,
    so a length L > j adds inf to its gathered entry, an earlier length's
    cost.  That needs finite costs and path sums: a table where 2n times
    the largest |cost| overflows, which bounds every path sum with room for
    rounding, is refused.  Stage 1's own tables cannot fail this, since
    every epsilon is at least `core.EPSILON_FLOOR`; a table built by hand can.
    """
    if n != table.n:
        raise ParameterError(f"table covers [1, {table.n}], asked for [1, {n}]")
    costs = table.costs
    largest = float(max(costs.max(), -costs.min()))
    if not math.isfinite(2.0 * n * largest):
        raise ParameterError(f"the table's largest |cost| is {largest:g}; summed over n = {n} positions, "
                             "its costs could overflow float64")
    lengths = table.lengths[::-1]
    pad = int(lengths[0])
    base = (table.offsets - table.lengths)[::-1]
    best = np.full(pad + n + 1, math.inf)
    best[pad] = 0.0
    pick = np.zeros(n + 1, dtype=np.intp)
    rows = max(1, _CHUNK // lengths.size)
    for first in range(1, n + 1, rows):
        ends = np.arange(first, min(first + rows, n + 1))[:, None]
        block = costs[base + ends]
        for j, row, back in zip(ends[:, 0].tolist(), block, ends + (pad - lengths)):
            c = best[back]
            c += row
            at = c.argmin()
            best[pad + j] = c[at]
            pick[j] = at
    pick = lengths[pick].tolist()
    his = []
    j = n
    while j > 0:
        his.append(j)
        j -= pick[j]
    return Partition(np.array(his[::-1]))


def exact_partition(x: DataVector, eps2: float, mode: str = "pow2") -> Partition:
    """Noise-free least-cost partition; not private, for `dawa partition --exact` and tests."""
    return least_cost_partition(all_costs(x, eps2, mode), x.n)


def private_partition(x: DataVector, params: PartitionParams, rng: RngStream,
                      deviations: "CostTable | None" = None) -> Partition:
    """Choose a partition under eps1-differential privacy.

    Prices x's deviations at 1/eps2, fresh or a copy of `deviations` (x's
    `deviation_table`), noises them in place with `perturb_costs`' sampler,
    scaled to twice the per-entry sensitivity, then solves the least-cost
    dynamic program: the bits of `perturb_costs(all_costs(...))`, in one table.
    """
    n, mode = x.n, params.mode
    check_stage1_size(n, x.total(), mode)
    if deviations is None:
        lengths, offsets, costs = _deviations(x, mode)
    elif (deviations.n, deviations.mode) == (n, mode):
        lengths, offsets, costs = deviations.lengths, deviations.offsets, deviations.costs.copy()
    else:
        raise ParameterError(f"deviations of n = {deviations.n}, mode {deviations.mode!r} for n = {n}, mode {mode!r}")
    costs += 1.0 / params.eps2
    _add_noise(costs, params.noise_scale, rng)
    return least_cost_partition(CostTable(n=n, mode=mode, lengths=lengths, offsets=offsets, costs=costs), n)
