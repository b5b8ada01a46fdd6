"""Shared data model for private range-query release over count vectors.

Indices are 1-based in every public interface: a length-n vector has
positions 1..n and a range query [lo, hi] includes both endpoints.
"""
from __future__ import annotations

import csv
import hashlib
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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


@dataclass(frozen=True, order=True)
class Interval:
    """Inclusive 1-based range [lo, hi]."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if type(self.lo) is not int or type(self.hi) is not int:
            # numpy integers are stored as Python ints, so equality, hash and
            # repr do not depend on where the endpoints came from
            try:
                object.__setattr__(self, "lo", operator.index(self.lo))
                object.__setattr__(self, "hi", operator.index(self.hi))
            except TypeError:
                raise InvalidIntervalError(
                    f"endpoints must be integers, got ({self.lo!r}, {self.hi!r})"
                ) from None
        if not 1 <= self.lo <= self.hi:
            raise InvalidIntervalError(f"need 1 <= lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def length(self) -> int:
        return self.hi - self.lo + 1

    def valid_for(self, n: int) -> bool:
        return self.hi <= n

    def overlap(self, other: "Interval") -> int:
        """Number of positions shared with another interval."""
        return max(0, min(self.hi, other.hi) - max(self.lo, other.lo) + 1)


_INT64_MAX = np.iinfo(np.int64).max


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


@dataclass(frozen=True)
class Workload:
    """Batch of interval queries, all over the same domain."""

    queries: tuple[Interval, ...]

    def __post_init__(self) -> None:
        qs = tuple(self.queries)
        if not qs:
            raise ParameterError("workload must contain at least one query")
        object.__setattr__(self, "queries", qs)

    @property
    def m(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.queries)

    def __len__(self) -> int:
        return self.m

    def max_hi(self) -> int:
        return max(q.hi for q in self.queries)

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        los = np.fromiter((q.lo for q in self.queries), dtype=np.int64, count=self.m)
        his = np.fromiter((q.hi for q in self.queries), dtype=np.int64, count=self.m)
        return los, his


def is_contiguous_cover(buckets: Sequence[Interval]) -> bool:
    """True when sorted buckets start at 1 and tile with no gap or overlap."""
    if not buckets:
        return False
    ordered = sorted(buckets)
    if ordered[0].lo != 1:
        return False
    for prev, cur in zip(ordered, ordered[1:]):
        if cur.lo != prev.hi + 1:
            return False
    return True


@dataclass(frozen=True)
class Partition:
    """Ordered buckets tiling positions 1..n exactly."""

    buckets: tuple[Interval, ...]

    def __post_init__(self) -> None:
        bs = tuple(self.buckets)
        if not is_contiguous_cover(bs):
            raise InvalidPartitionError(f"buckets do not tile the domain: {bs}")
        object.__setattr__(self, "buckets", tuple(sorted(bs)))

    @property
    def k(self) -> int:
        return len(self.buckets)

    @property
    def n(self) -> int:
        return self.buckets[-1].hi

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.buckets)

    def __len__(self) -> int:
        return self.k

    def lengths(self) -> np.ndarray:
        return np.fromiter((b.length for b in self.buckets), dtype=np.int64, count=self.k)

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        los = np.fromiter((b.lo for b in self.buckets), dtype=np.int64, count=self.k)
        his = np.fromiter((b.hi for b in self.buckets), dtype=np.int64, count=self.k)
        return los, his

    @classmethod
    def unit(cls, n: int) -> "Partition":
        return cls(tuple(Interval(j, j) for j in range(1, n + 1)))

    @classmethod
    def single(cls, n: int) -> "Partition":
        return cls((Interval(1, n),))


def validate_partition(buckets: "Partition | Sequence[Interval]", n: int) -> bool:
    """Check that the buckets tile [1, n] exactly."""
    if isinstance(buckets, Partition):
        return buckets.n == n
    return is_contiguous_cover(buckets) and sorted(buckets)[-1].hi == n


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
    every Laplace draw records its scale there; mechanisms use this to make
    budget accounting checkable.
    """

    def __init__(self, seed: int, ledger: list | None = None):
        self.seed = int(seed)
        self.ledger = ledger
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def split(self, *tags) -> "RngStream":
        return RngStream(derive_seed(self.seed, *tags), ledger=self.ledger)

    def uniform_open(self, size: int | None = None) -> "float | np.ndarray":
        """Uniform draws from (0, 1); zeros are redrawn."""
        if size is None:
            u = self._gen.random()
            while u <= 0.0:
                u = self._gen.random()
            return u
        u = self._gen.random(size)
        bad = u <= 0.0
        while np.any(bad):
            u[bad] = self._gen.random(int(bad.sum()))
            bad = u <= 0.0
        return u

    def integers(self, low: int, high: int, size: int | None = None):
        return self._gen.integers(low, high, size=size)

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


def laplace_sample(scale: float, rng: RngStream, size: int | None = None):
    """Zero-mean Laplace draws via the inverse CDF.

    The inverse-CDF form keeps the consumed uniform stream in lockstep with
    the number of requested draws, which is what makes runs reproducible.
    """
    if not (np.isfinite(scale) and scale > 0):
        raise ParameterError(f"scale must be positive and finite, got {scale}")
    if rng.ledger is not None:
        rng.ledger.append((float(scale), 1 if size is None else int(size)))
    u = rng.uniform_open(size)
    if size is None:
        if u < 0.5:
            return scale * float(np.log(2.0 * u))
        return -scale * float(np.log(2.0 * (1.0 - u)))
    return np.where(u < 0.5, scale * np.log(2.0 * u), -scale * np.log(2.0 * (1.0 - u)))


def evaluate_query(q: Interval, x: "DataVector | EstimateVector | np.ndarray") -> float:
    """Sum of x over [q.lo, q.hi]."""
    vals = _values_of(x)
    if not q.valid_for(vals.size):
        raise InvalidIntervalError(f"query {q} outside domain of size {vals.size}")
    return float(vals[q.lo - 1 : q.hi].sum())


def evaluate_workload(W: Workload, x: "DataVector | EstimateVector | np.ndarray") -> np.ndarray:
    """Answers to every query, computed from one prefix-sum pass."""
    vals = _values_of(x)
    if W.max_hi() > vals.size:
        raise DimensionError(f"workload reaches {W.max_hi()} but domain has {vals.size}")
    prefix = np.concatenate(([0.0], np.cumsum(vals.astype(np.float64))))
    los, his = W.bounds_arrays()
    return prefix[his] - prefix[los - 1]


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
                counts.append(int(s))
            except ValueError:
                raise ParameterError(f"{path}:{lineno}: not an integer: {s!r}") from None
    if not counts:
        raise ParameterError(f"{path}: no counts found")
    return DataVector(counts)


def write_data_file(path: "str | Path", x: DataVector) -> None:
    with open(path, "w") as fh:
        for c in x.counts:
            fh.write(f"{int(c)}\n")


def read_workload_file(path: "str | Path") -> Workload:
    """Read interval queries from a CSV file with header lo,hi."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [f.strip() for f in reader.fieldnames] != ["lo", "hi"]:
            raise ParameterError(f"{path}: expected header 'lo,hi', got {reader.fieldnames}")
        queries = [Interval(int(row["lo"]), int(row["hi"])) for row in reader]
    if not queries:
        raise ParameterError(f"{path}: no queries found")
    return Workload(tuple(queries))


def write_workload_file(path: "str | Path", W: Workload) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lo", "hi"])
        for q in W:
            writer.writerow([q.lo, q.hi])
