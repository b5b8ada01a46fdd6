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
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ParameterError(f"{name} must be positive and finite, got {v}")
        if abs((self.eps1 + self.eps2) - self.epsilon) > 1e-12:
            raise ParameterError(
                f"stage budgets must sum to the total: {self.eps1} + {self.eps2} != {self.epsilon}"
            )

    @classmethod
    def split(cls, epsilon: float, stage1_fraction: float = 0.25) -> "PrivacyBudget":
        if not 0 < stage1_fraction < 1:
            raise ParameterError("stage1_fraction must lie strictly between 0 and 1")
        eps1 = epsilon * stage1_fraction
        return cls(epsilon=epsilon, eps1=eps1, eps2=epsilon - eps1)


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
    independent of draw order elsewhere.  When a ledger list is attached,
    every Laplace request records its (scale, count) there once, even when
    drawn in slices; mechanisms use this to make budget accounting checkable.
    """

    def __init__(self, seed: int, ledger: list | None = None):
        self.seed = int(seed)
        self.ledger = ledger
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


def laplace_sample(scale: float, rng: RngStream, size: int | None = None):
    """Zero-mean Laplace draws via the inverse CDF.

    The inverse-CDF form keeps the consumed uniform stream in lockstep with
    the number of requested draws, which is what makes runs reproducible.

    Floating-point caveat (Mironov, CCS 2012): u lies on the 2^-53 grid and
    the log rounds, so the draws take finitely many unevenly spaced values
    and which values x + noise can take depends on x; an exact float can
    tell neighbouring inputs apart.  The epsilon-DP claims hold for
    real-valued Laplace noise; this sampler does not snap its outputs.
    Stage 2's sensitivity is the largest sum of node weights covering one
    bucket (`leaf_cover_sums`).  Greedy scaling keeps it at 1 up to
    rounding; at the 1 + 1e-9 the acceptance check allows, stage 2 spends
    up to eps2 * (1 + 1e-9), not eps2.
    """
    count = 1 if size is None else int(size)
    u = laplace_draws(scale, rng, count)(count)
    return float(u[0]) if size is None else u


def check_laplace_scale(scale: float) -> None:
    if not (np.isfinite(scale) and scale > 0):
        raise ParameterError(f"scale must be positive and finite, got {scale}")


def laplace_draws(scale: float, rng: RngStream, count: int):
    """Record `count` Laplace(scale) draws as one ledger entry; `draw(size)` takes the next `size`."""
    check_laplace_scale(scale)
    if rng.ledger is not None:
        rng.ledger.append((float(scale), count))

    def draw(size: int) -> np.ndarray:
        u = rng.uniform_open(size)
        # -scale * sign(u - 1/2) * log(1 - 2|u - 1/2|), in place: one log per
        # draw, and every step before the log is exact for u on the 2^-53 grid
        sign = np.sign(np.subtract(u, 0.5, out=u))
        np.log(np.add(np.multiply(np.abs(u, out=u), -2.0, out=u), 1.0, out=u), out=u)
        sign *= -scale
        u *= sign
        return u

    return draw


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
    true = evaluate_workload(W, xv)
    est = evaluate_workload(W, ev)
    return float(np.mean(np.abs(est - true)))


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


def read_csv_rows(path: "str | Path", header: tuple[str, ...], parse) -> list[tuple]:
    """Rows of a CSV file whose header reads `header`, fields converted by `parse`.

    Whitespace around header names and values is allowed and blank lines
    are skipped.  A row with missing or extra fields, a field `parse`
    rejects, or an int outside int64, raises ParameterError naming path:line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader, None)
        if names is None or [f.strip() for f in names] != list(header):
            raise ParameterError(f"{path}: expected header {','.join(header)!r}, got {names}")
        rows = []
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
            rows.append(tuple(values))
    return rows


def read_workload_file(path: "str | Path") -> Workload:
    """Read interval queries from a CSV file with header lo,hi."""
    rows = read_csv_rows(path, ("lo", "hi"), int)
    if not rows:
        raise ParameterError(f"{path}: no queries found")
    ends = np.asarray(rows)
    return Workload(ends[:, 0], ends[:, 1])


def write_workload_file(path: "str | Path | None", W: "Workload | Partition") -> None:
    """Write the intervals of W (anything with los and his arrays) as CSV with
    header lo,hi, the format read_workload_file reads."""
    write_rows(path, zip(W.los.tolist(), W.his.tolist()), ("lo", "hi"))
