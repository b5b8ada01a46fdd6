"""Shared data model for private range-query release over count vectors.

Indices are 1-based in every public interface: a length-n vector has
positions 1..n and a range query [lo, hi] includes both endpoints.
"""
from __future__ import annotations

import csv
import hashlib
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np


class ParameterError(ValueError):
    """A scalar argument is outside its documented domain."""


class InvalidIntervalError(ValueError):
    """An interval is malformed or out of bounds for the domain."""


class InvalidPartitionError(ValueError):
    """A bucket list does not tile the domain."""


class DimensionError(ValueError):
    """Two objects that must share a domain size do not."""


class SingularStrategyError(ValueError):
    """The measurement strategy does not determine every position."""


class Interval(NamedTuple):
    """Inclusive 1-based range [lo, hi], as `Workload` and `Partition` iteration yields it."""

    lo: int
    hi: int


_INT64_MIN, _INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max


def _as_count_array(counts: Iterable) -> np.ndarray:
    arr = np.asarray(counts)
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError("counts must be a non-empty 1-d sequence")
    if np.issubdtype(arr.dtype, np.floating):
        if not np.all(np.isfinite(arr) & (arr == np.floor(arr))):
            raise ParameterError("counts must be integral")
        if np.any(np.abs(arr) >= 2.0**63):
            raise ParameterError("counts must fit in int64")
    try:
        out = arr.astype(np.int64)
    except (OverflowError, TypeError, ValueError):
        raise ParameterError("counts must be integers that fit in int64") from None
    if np.any(out < 0):
        raise ParameterError("counts must be nonnegative integers that fit in int64")
    if int(out.max()) * out.size > _INT64_MAX and sum(out.tolist()) > _INT64_MAX:
        raise ParameterError("the total count must fit in int64")
    return out


@dataclass(frozen=True)
class DataVector:
    """Nonnegative integer counts over positions 1..n."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", _as_count_array(self.counts))
        self.counts.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.counts.size)

    def __len__(self) -> int:
        return self.n

    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class EstimateVector:
    """Real-valued estimate of a count vector; entries may be negative."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterError("values must be a non-empty 1-d sequence")
        object.__setattr__(self, "values", arr)
        self.values.setflags(write=False)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def __len__(self) -> int:
        return self.n


def _values_of(x: "DataVector | EstimateVector | np.ndarray") -> np.ndarray:
    if isinstance(x, DataVector):
        return x.counts
    if isinstance(x, EstimateVector):
        return x.values
    return np.asarray(x)


@dataclass(frozen=True, eq=False)
class Workload:
    """Batch of interval queries over one domain: query i is [los[i], his[i]].

    Both endpoint arrays are stored as read-only int64 copies.
    """

    los: np.ndarray
    his: np.ndarray

    def __post_init__(self) -> None:
        los, his = np.asarray(self.los), np.asarray(self.his)
        if los.ndim != 1 or los.shape != his.shape or los.size == 0:
            raise ParameterError(
                f"los and his must be non-empty, 1-d and of one length, got shapes {los.shape}, {his.shape}"
            )
        if los.dtype.kind not in "iu" or his.dtype.kind not in "iu":
            raise InvalidIntervalError(f"query endpoints must be int64 integers, got dtypes {los.dtype}, {his.dtype}")
        # uint64 endpoints past int64 wrap to negative values, which fail the check
        lo64, hi64 = los.astype(np.int64), his.astype(np.int64)
        bad = np.flatnonzero((lo64 < 1) | (lo64 > hi64))
        if bad.size:
            i = int(bad[0])
            raise InvalidIntervalError(f"query {i}: need 1 <= lo <= hi <= 2**63 - 1, got [{los[i]}, {his[i]}]")
        for name, arr in (("los", lo64), ("his", hi64)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return int(self.los.size)

    def __iter__(self) -> Iterator[Interval]:
        return map(Interval, self.los.tolist(), self.his.tolist())

    def __len__(self) -> int:
        return self.m


@dataclass(frozen=True, eq=False)
class Partition:
    """Buckets tiling positions 1..n in order: bucket i ends at his[i] and
    starts one past the end of bucket i - 1.  `his` is stored as a read-only
    int64 copy."""

    his: np.ndarray

    def __post_init__(self) -> None:
        ends = np.asarray(self.his)
        if ends.ndim != 1 or ends.size == 0 or ends.dtype.kind not in "iu":
            raise InvalidPartitionError(f"bucket ends must be non-empty, 1-d int64 integers, got {ends!r}")
        # uint64 ends past int64 wrap to negative values, which fail the check
        his = ends.astype(np.int64)
        prev = np.concatenate(([0], his[:-1]))
        bad = np.flatnonzero(his <= prev)
        if bad.size:
            i = int(bad[0])
            raise InvalidPartitionError(f"bucket {i} ends at {ends[i]}, not after the previous end {prev[i]}")
        his.setflags(write=False)
        object.__setattr__(self, "his", his)

    @property
    def k(self) -> int:
        return int(self.his.size)

    @property
    def n(self) -> int:
        return int(self.his[-1])

    @property
    def los(self) -> np.ndarray:
        return self.his - self.lengths() + 1

    def __iter__(self) -> Iterator[Interval]:
        return map(Interval, self.los.tolist(), self.his.tolist())

    def __len__(self) -> int:
        return self.k

    def lengths(self) -> np.ndarray:
        return np.diff(self.his, prepend=0)

    def bucket_totals(self, counts: np.ndarray) -> np.ndarray:
        """Per-bucket sums of a length-n count vector, as float64."""
        if counts.size != self.n:
            raise DimensionError(f"partition covers [1, {self.n}] but counts have {counts.size}")
        return np.diff(np.cumsum(counts)[self.his - 1], prepend=0).astype(np.float64)

    @classmethod
    def unit(cls, n: int) -> "Partition":
        return cls(np.arange(1, n + 1))


@dataclass(frozen=True)
class Histogram:
    """Per-bucket statistics attached to a partition."""

    partition: Partition
    stats: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.stats, dtype=np.float64)
        if arr.shape != (self.partition.k,):
            raise DimensionError(
                f"need one stat per bucket: {arr.shape} vs k={self.partition.k}"
            )
        object.__setattr__(self, "stats", arr)
        self.stats.setflags(write=False)


@dataclass(frozen=True)
class PrivacyBudget:
    """Total budget epsilon split between the two stages."""

    epsilon: float
    eps1: float
    eps2: float

    def __post_init__(self) -> None:
        for name in ("epsilon", "eps1", "eps2"):
            check_epsilon(name, getattr(self, name))
        # relative to epsilon, so split's own rounding passes at every scale; an exact
        # eps1 + eps2 <= epsilon is planned (ROADMAP.md, "Stage budgets that hold in exact arithmetic")
        if abs((self.eps1 + self.eps2) - self.epsilon) > 1e-12 * self.epsilon:
            raise ParameterError(
                f"stage budgets must sum to the total: {self.eps1} + {self.eps2} != {self.epsilon}"
            )

    @classmethod
    def split(cls, epsilon: float, stage1_fraction: float = 0.25) -> "PrivacyBudget":
        """epsilon split into stage budgets; a share below EPSILON_FLOOR is
        refused under `epsilon`, naming the share and the stage-1 fraction."""
        if not 0 < stage1_fraction < 1:
            raise ParameterError("stage1_fraction must lie strictly between 0 and 1")
        eps1 = epsilon * stage1_fraction
        eps2 = epsilon - eps1
        for stage, share in ((1, eps1), (2, eps2)):
            if 0 < share < EPSILON_FLOOR:  # a share of 0, below 0 or NaN: the budget refuses epsilon
                raise ParameterError(f"epsilon = {epsilon} is too small: its stage-{stage} share at stage1_fraction "
                                     f"{stage1_fraction} is {share}, and {_FLOOR_RULE}")
        return cls(epsilon=epsilon, eps1=eps1, eps2=eps2)


def derive_seed(master: int, *tags) -> int:
    """Map a master seed and a tag tuple to a 64-bit child seed.

    Uses SHA-256 over the repr of (master, tags); the derivation depends only
    on the key material, so adding new consumers never shifts existing streams.
    """
    payload = repr((int(master), tuple(tags))).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream:
    """Seedable counter-based random stream that can be split per task.

    Children derived with the same tags are identical across runs and
    independent of draw order elsewhere.  Every stream keeps a ledger, its
    own list or the one passed in, which its children share: each Laplace
    request records its (scale, count) there once, even when drawn in
    slices, so a release's budget accounting is checkable.
    """

    def __init__(self, seed: int, ledger: list | None = None):
        self.seed = int(seed)
        self.ledger = [] if ledger is None else ledger
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def split(self, *tags) -> "RngStream":
        return RngStream(derive_seed(self.seed, *tags), ledger=self.ledger)

    def uniform_open(self, size: int) -> np.ndarray:
        """Uniform draws from (0, 1); a zero is redrawn in this call, so inside its slice."""
        u = self._gen.random(size)
        bad = u <= 0.0
        while np.any(bad):
            u[bad] = self._gen.random(int(bad.sum()))
            bad = u <= 0.0
        return u

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


def laplace_sample(scale: float, rng: RngStream, size: int) -> np.ndarray:
    """`size` zero-mean Laplace(scale) draws, recorded as one ledger entry.

    The one-shot form of `laplace_noise`, with its sampler, for a caller
    that holds a scale rather than an epsilon: any positive finite scale is
    drawn.
    """
    if not (np.isfinite(scale) and scale > 0):
        raise ParameterError(f"scale must be positive and finite, got {scale}")
    rng.ledger.append((float(scale), int(size)))
    return _laplace(scale, rng, int(size))


def _laplace(scale: float, rng: RngStream, size: int) -> np.ndarray:
    """`size` Laplace(scale) draws via the inverse CDF, which keeps the
    consumed uniform stream in lockstep with the number of draws."""
    u = rng.uniform_open(size)
    # -scale * sign(u - 1/2) * log(1 - 2|u - 1/2|), in place: one log per
    # draw, and every step before the log is exact for u on the 2^-53 grid
    sign = np.sign(np.subtract(u, 0.5, out=u))
    np.log(np.add(np.multiply(np.abs(u, out=u), -2.0, out=u), 1.0, out=u), out=u)
    sign *= -scale
    u *= sign
    return u


# The least epsilon accepted, 2**-50 (about 8.9e-16), as in Google's differential-privacy
# library; budgets in use are some 12 decades larger.  From it up, every value a release
# computes stays far inside float64, so no stage has to predict an overflow:
# - every Laplace scale is at most 4/eps <= 2**52, and a draw at most 52 ln 2 < 37 times its
#   scale (u lies on the 2^-53 grid), so |draw| < 2**58;
# - a stage-1 cost is a deviation of at most 2 * total, plus 1/eps2 and a draw: with
#   n * total <= 2**52 (`check_stage1_size`) it is below 2**59, and a sum of n < 2**63 of
#   them below 2**122;
# - a stage-2 answer over a scaling of 0 (not measured) or at least 2**-53 estimates a sum of
#   at most 2**63 within 2**53 * (2**63 + 2**58) < 2**117; least squares adds and splits such
#   estimates over fewer than 2**63 leaves and 64 levels, so a bucket's is below 2**190, and a
#   workload's answers, errors and their squares stay below 2**520, against float64's 2**1024.
EPSILON_FLOOR = 2.0**-50
_FLOOR_RULE = "the least epsilon accepted is 2**-50, about 8.9e-16"


def check_epsilon(name: str, value: float) -> None:
    """Refuse a privacy parameter that is not positive and finite, or that is
    below EPSILON_FLOOR."""
    if not (np.isfinite(value) and value > 0):
        raise ParameterError(f"{name} must be positive and finite, got {value}")
    if value < EPSILON_FLOOR:
        raise ParameterError(f"{name} = {value} is too small: {_FLOOR_RULE}")


# Laplace draws per slice of `laplace_noise`, and stage 1's candidates per slice of its
# cost computation and per block of rows its dynamic program gathers; sized for the L2 cache.
_CHUNK = 1 << 13


def laplace_noise(values: np.ndarray, sensitivity: float, name: str, eps: float, rng: RngStream) -> np.ndarray:
    """Add Laplace(sensitivity/eps) noise to `values` in place, `_CHUNK`
    draws at a time, record it as one (scale, count) ledger entry and
    return `values`; refuses a bad `eps` under `name`.  Both stages draw
    here: stage 1 on its candidate costs at twice their sensitivity over
    eps1, stage 2 on its scaled answers at 1/eps2.

    The draws are the inverse CDF's, so a run consumes one uniform per draw
    and is reproducible; a uniform of exactly 0 (chance 2^-53) is redrawn
    inside its slice.

    Floating-point caveat (Mironov, CCS 2012): u lies on the 2^-53 grid and
    the log rounds, so the draws take finitely many unevenly spaced values
    and which values x + noise can take depends on x; an exact float can
    tell neighbouring inputs apart.  The epsilon-DP claims hold for
    real-valued Laplace noise; this sampler does not snap its outputs.
    Stage 2's sensitivity is the largest sum of node weights covering one
    bucket (`leaf_cover_sums`), and every measured tree makes each such sum
    exactly 1.0 (`write_scalings`, or a `flat_tree`'s ones), so stage 2
    charges exactly eps2, by construction.  That sum is added in float64,
    and its own rounding, about 1e-16, falls under the caveat above.
    """
    check_epsilon(name, eps)
    scale = sensitivity / eps
    rng.ledger.append((float(scale), values.size))
    for at in range(0, values.size, _CHUNK):
        values[at : at + _CHUNK] += _laplace(scale, rng, min(_CHUNK, values.size - at))
    return values


def evaluate_workload(W: Workload, x: "DataVector | EstimateVector | np.ndarray") -> np.ndarray:
    """Answers to every query, computed from one prefix-sum pass."""
    vals = _values_of(x)
    if W.his.max() > vals.size:
        raise DimensionError(f"workload reaches {W.his.max()} but domain has {vals.size}")
    prefix = np.concatenate(([0.0], np.cumsum(vals.astype(np.float64))))
    return prefix[W.his] - prefix[W.los - 1]


def uniform_expand(h: Histogram, n: int) -> EstimateVector:
    """Spread each bucket stat uniformly over the bucket's positions."""
    if h.partition.n != n:
        raise DimensionError(f"partition covers [1, {h.partition.n}], expected [1, {n}]")
    lengths = h.partition.lengths()
    per_position = h.stats / lengths
    return EstimateVector(np.repeat(per_position, lengths))


def average_workload_error(W: Workload, x: "DataVector | np.ndarray", xhat: "EstimateVector | np.ndarray") -> float:
    """Mean absolute query error of xhat against x over the workload."""
    xv, ev = _values_of(x), _values_of(xhat)
    if xv.size != ev.size:
        raise DimensionError(f"domain sizes differ: {xv.size} vs {ev.size}")
    return float(np.mean(np.abs(evaluate_workload(W, ev) - evaluate_workload(W, xv))))


def read_data_file(path: "str | Path") -> DataVector:
    """Read counts from a text file, one nonnegative integer per line."""
    counts = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            s = line.strip()
            if not s:
                continue
            try:
                count = int(s)
            except ValueError:
                raise ParameterError(f"{path}:{lineno}: not an integer: {s!r}") from None
            if not 0 <= count <= _INT64_MAX:
                raise ParameterError(f"{path}:{lineno}: not a nonnegative int64 count: {s!r}")
            counts.append(count)
    if not counts:
        raise ParameterError(f"{path}: no counts found")
    return DataVector(counts)


def write_rows(path: "str | Path | None", rows: Iterable[tuple], header: "tuple[str, ...]" = ()) -> None:
    """Write the header (if any) and rows as comma-joined lines ended by '\\n',
    to path or, when path is None, to stdout."""
    out = open(path, "w", newline="") if path is not None else nullcontext(sys.stdout)
    with out as fh:
        if header:
            fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(str, row)) + "\n" for row in rows)


def write_data_file(path: "str | Path | None", x: DataVector) -> None:
    """Write counts one per line, the format read_data_file reads."""
    write_rows(path, zip(x.counts.tolist()))


def read_csv_rows(path: "str | Path", header: tuple[str, ...], parse) -> Iterator[tuple[str, tuple]]:
    """Rows of a CSV file whose header reads `header`, fields converted by
    `parse`, each with its `path:line` for the caller's own checks.

    Whitespace around header names and values is allowed and blank lines
    are skipped.  A row with missing or extra fields, a field `parse`
    rejects, or an int outside int64, raises ParameterError naming path:line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader, None)
        if names is None or [f.strip() for f in names] != list(header):
            raise ParameterError(f"{path}: expected header {','.join(header)!r}, got {names}")
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise ParameterError(f"{where}: expected {len(header)} fields, got {len(row)}: {row}")
            values = []
            for field in row:
                try:
                    value = parse(field)
                except ValueError:
                    raise ParameterError(f"{where}: not {parse.__name__}: {field!r}") from None
                if type(value) is int and not _INT64_MIN <= value <= _INT64_MAX:
                    raise ParameterError(f"{where}: outside int64: {field!r}")
                values.append(value)
            yield where, tuple(values)


def read_workload_file(path: "str | Path") -> Workload:
    """Read interval queries from a CSV file with header lo,hi."""
    rows = [row for _, row in read_csv_rows(path, ("lo", "hi"), int)]
    if not rows:
        raise ParameterError(f"{path}: no queries found")
    ends = np.asarray(rows)
    return Workload(ends[:, 0], ends[:, 1])


def write_workload_file(path: "str | Path | None", W: "Workload | Partition") -> None:
    """Write the intervals of W (anything with los and his arrays) as CSV with
    header lo,hi, the format read_workload_file reads."""
    write_rows(path, zip(W.los.tolist(), W.his.tolist()), ("lo", "hi"))
