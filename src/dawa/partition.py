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
noised slice by slice on the private path, and the dynamic program gathers
the candidates ending at each endpoint as one row of it.
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
    check_laplace_scale,
    laplace_draws,
    laplace_sample,
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
        for name in ("eps1", "eps2"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be positive and finite, got {v}")
        check_mode(self.mode)

    @property
    def noise_scale(self) -> float:
        """Laplace scale of the cost noise: twice the per-entry sensitivity over eps1."""
        return 2.0 * self.delta_bcost / self.eps1


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


def _check_sums_finite(largest: float, n: int) -> None:
    # 2n times the largest |cost| bounds every path sum of the DP with room for rounding
    if not math.isfinite(2.0 * n * largest):
        raise ParameterError(f"stage-1 costs reach {largest:g}; summed over n = {n} positions they would "
                             "overflow float64, so a larger eps1 or eps2 is needed")


def check_stage1_size(n: int, total: int, mode: str, tables: int = 1,
                      eps2: float = math.inf, noise_scale: float = 0.0) -> int:
    """Stage 1's candidate count, from its parameters alone so that nothing
    is built; refuses costs that would not be exact, costs priced 1/eps2 and
    noised at `noise_scale` whose sums could overflow, and `tables` float64
    per candidate that would not fit in memory."""
    candidates = candidate_count(n, mode)
    if n * total > EXACT_COST_LIMIT:
        raise ParameterError(f"n * total = {n * total} exceeds 2**52; stage-1 costs would not be exact")
    # a deviation is at most 2 * total, and a Laplace draw at most 52 ln 2 < 37 times its scale
    _check_sums_finite(2.0 * total + 1.0 / eps2 + 37.0 * noise_scale, n)
    # a release holds its costs, noisy on the private path; releases sharing deviations hold those too
    need, have = 8 * tables * candidates, _physical_memory()
    if need > have:
        raise ParameterError(f"stage 1 needs about {need / 2**30:.1f} GiB for {candidates} candidate buckets "
                             f"(mode {mode!r}, n = {n}) but this machine has {have / 2**30:.1f} GiB")
    return candidates


def all_costs(x: DataVector, eps2: float, mode: str = "pow2", noise: tuple | None = None,
              deviations: "CostTable | None" = None) -> CostTable:
    """Costs of every candidate bucket, plus Laplace(scale) noise if `noise` is (scale, rng).

    Candidates are processed in slices of _CHUNK so the per-query arrays
    stay cache-resident; each slice's deviations are computed, or read from
    `deviations` (x's `deviation_table`), then priced and noised in place.
    """
    if eps2 <= 0:
        raise ParameterError(f"eps2 must be positive, got {eps2}")
    n = x.n
    if noise:  # the sampler refuses a bad scale before the overflow check reads it
        check_laplace_scale(noise[0])
    candidates = check_stage1_size(n, x.total(), mode, eps2=eps2, noise_scale=noise[0] if noise else 0.0)
    if deviations is not None and (deviations.n, deviations.mode) != (n, mode):
        raise ParameterError(f"deviations of n = {deviations.n}, mode {deviations.mode!r} "
                             f"for n = {n}, mode {mode!r}")
    # recorded once every check has passed, so a refused release charges nothing
    draw = laplace_draws(*noise, candidates) if noise else None
    lengths = np.asarray(candidate_lengths(n, mode), dtype=np.int64)
    sizes = n - lengths + 1
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    offsets = bounds[:-1]
    if deviations is None:
        prefix = np.concatenate(([0], np.cumsum(x.counts)))
        index = _WindowIndex(x.counts)
    costs = np.empty(candidates)
    for at in range(0, candidates, _CHUNK):
        stop = min(at + _CHUNK, candidates)
        cost = costs[at:stop]
        if deviations is None:
            first, last = np.searchsorted(bounds, (at, stop - 1), side="right") - 1
            extents = np.diff(np.clip(bounds[first : last + 2], at, stop))
            group = np.repeat(np.arange(first, last + 1), extents)
            length = lengths[group]
            start = np.arange(at, stop) - offsets[group]
            window_total = prefix[start + length] - prefix[start]
            # the ceiling of the window mean never exceeds the window's largest value
            at_least = -(-window_total // length)
            count, total = index.count_sum_at_least(start, start + length, at_least)
            num = length * total - window_total * count
            np.divide(2 * num, length, out=cost)
        else:
            cost[:] = deviations.costs[at:stop]
        cost += 1.0 / eps2
        if draw:
            cost += draw(stop - at)
    return CostTable(n=n, mode=mode, lengths=lengths, offsets=offsets, costs=costs)


def deviation_table(x: DataVector, mode: str = "pow2") -> CostTable:
    """Every candidate's exact deviation 2N/L, which depends on x and mode
    alone; `all_costs` prices and noises it with the bits of a fresh table.
    Its caller checks that it fits beside the tables of costs read from it."""
    return all_costs(x, math.inf, mode)  # 1/inf adds exactly 0.0


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
    return replace(table, costs=np.add(noise, table.costs, out=noise))


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
    rounding, is refused.
    """
    if n != table.n:
        raise ParameterError(f"table covers [1, {table.n}], asked for [1, {n}]")
    costs = table.costs
    _check_sums_finite(float(max(costs.max(), -costs.min())), n)
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
    table = all_costs(x, eps2, mode)
    return least_cost_partition(table, x.n)


def private_partition(x: DataVector, params: PartitionParams, rng: RngStream,
                      deviations: "CostTable | None" = None) -> Partition:
    """Choose a partition under eps1-differential privacy.

    Adds Laplace noise, scaled to twice the per-entry sensitivity, to each
    slice of costs as it is computed, then solves the least-cost dynamic
    program.  Same bits as `perturb_costs` on the exact table, except that a
    zero uniform (chance 2^-53 per draw) is redrawn inside its slice.
    """
    return least_cost_partition(all_costs(x, params.eps2, params.mode, (params.noise_scale, rng), deviations), x.n)


def utility_bound(n: int, num_candidates: int, delta: float, eps1: float) -> float:
    """Additive gap to the optimal partition cost, holding except with
    probability delta."""
    if n < 1 or num_candidates < 1:
        raise ParameterError("n and num_candidates must be >= 1")
    if not 0 < delta < 1:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    if eps1 <= 0:
        raise ParameterError(f"eps1 must be positive, got {eps1}")
    return 4.0 * BUCKET_COST_SENSITIVITY * n * math.log(num_candidates / delta) / eps1
