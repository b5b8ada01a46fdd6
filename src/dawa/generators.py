"""Seeded workload and synthetic dataset generators for experiments."""
from __future__ import annotations

import numpy as np

from .core import DataVector, ParameterError, RngStream, Workload

WORKLOAD_KINDS = ("identity", "uniform", "clustered", "large_clustered")
DATA_KINDS = ("constant", "piecewise_constant", "heavy_tail")


def _at_least_one(name: str, value) -> int:
    value = int(value)
    if value < 1:
        raise ParameterError(f"{name} must be at least 1, got {value}")
    return value


def _finite_nonnegative(name: str, value) -> float:
    value = float(value)
    if not (np.isfinite(value) and value >= 0):
        raise ParameterError(f"{name} must be finite and nonnegative, got {value}")
    return value


def _total(params: dict, n: int) -> float:
    """The target total mass, popped from params.  Scaled draws may round past
    it, so it stays a factor 2 below the int64 limit on the counts' total."""
    total = _finite_nonnegative("total", params.pop("total", 10.0 * n))
    if total >= 2.0**62:
        raise ParameterError(f"total must be below 2**62, got {total:g}")
    return total


def _clustered(n: int, rng: RngStream, num_clusters: int, queries_per_cluster: int,
               sigma: float) -> Workload:
    """Queries bunched around uniform cluster centers.

    Each query spans [c - |Xl|, c + |Xr|] with independent normal half-widths;
    endpoints are rounded to the nearest integer, clamped to the domain, and
    swapped if degenerate.
    """
    gen = rng.generator
    centers = gen.uniform(1.0, float(n), size=num_clusters)
    half = np.abs(gen.normal(0.0, sigma, size=(num_clusters, queries_per_cluster, 2)))
    lo = np.clip(np.rint(centers[:, None] - half[:, :, 0]), 1, n).astype(np.int64).ravel()
    hi = np.clip(np.rint(centers[:, None] + half[:, :, 1]), 1, n).astype(np.int64).ravel()
    return Workload(np.minimum(lo, hi), np.maximum(lo, hi))


def gen_workload(kind: str, n: int, seed: int, **params) -> Workload:
    """Deterministic workload of the given kind over [1, n].

    Kinds: identity (all unit intervals), uniform (random intervals,
    num_queries), clustered / large_clustered (num_clusters x
    queries_per_cluster around random centers, half-width scale sigma).
    """
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    rng = RngStream(seed)
    if kind == "identity":
        return Workload(np.arange(1, n + 1), np.arange(1, n + 1))
    if kind == "uniform":
        num_queries = _at_least_one("num_queries", params.pop("num_queries", 2000))
        if params:
            raise ParameterError(f"unknown params for uniform workload: {sorted(params)}")
        ends = rng.generator.integers(1, n + 1, size=(num_queries, 2))
        return Workload(ends.min(axis=1), ends.max(axis=1))
    if kind in ("clustered", "large_clustered"):
        sigma = _finite_nonnegative("sigma", params.pop("sigma", 256.0 if kind == "clustered" else 1024.0))
        num_clusters = _at_least_one("num_clusters", params.pop("num_clusters", 5))
        queries_per_cluster = _at_least_one("queries_per_cluster", params.pop("queries_per_cluster", 400))
        if params:
            raise ParameterError(f"unknown params for {kind} workload: {sorted(params)}")
        return _clustered(n, rng, num_clusters, queries_per_cluster, sigma)
    raise ParameterError(f"unknown workload kind {kind!r}; choose from {WORKLOAD_KINDS}")


def gen_synthetic_data(kind: str, n: int, seed: int, **params) -> DataVector:
    """Deterministic synthetic counts of the given kind.

    constant: every position holds `value`.  piecewise_constant: `segments`
    uniform runs with distinct adjacent levels, total mass ~ `total`.
    heavy_tail: i.i.d. Pareto-shaped counts scaled to total mass ~ `total`.
    """
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    rng = RngStream(seed)
    if kind == "constant":
        value = int(params.pop("value", 5))
        if params:
            raise ParameterError(f"unknown params for constant data: {sorted(params)}")
        if not 0 <= value < 2**63:
            raise ParameterError(f"value must be nonnegative and below 2**63, got {value}")
        return DataVector(np.full(n, value, dtype=np.int64))
    if kind == "piecewise_constant":
        segments = int(params.pop("segments", 8))
        total = _total(params, n)
        if params:
            raise ParameterError(f"unknown params for piecewise data: {sorted(params)}")
        if not 1 <= segments <= n:
            raise ParameterError(f"segments must be in [1, {n}], got {segments}")
        # a level is at most 1.8 / 0.2 times the mean total / n, so below this every level rounds to 0
        if segments > 1 and 9 * total / n < 0.5:
            raise ParameterError(f"total must be at least n / 18 = {n / 18:g} for {segments} segments, got {total:g}")
        gen = rng.generator
        if segments == 1:
            lengths = np.asarray([n])
        else:
            cuts = np.sort(gen.choice(n - 1, size=segments - 1, replace=False)) + 1
            lengths = np.diff(np.concatenate(([0], cuts, [n])))
        # Redraw whole level vectors until adjacent rounded levels differ, so
        # segment boundaries stay visible in the counts.
        for _ in range(10_000):
            raw = gen.uniform(0.2, 1.8, size=segments)
            levels = np.rint(raw * (total / float(raw @ lengths))).astype(np.int64)
            if segments == 1 or np.all(np.diff(levels) != 0):
                return DataVector(np.repeat(levels, lengths))
        raise ParameterError("could not draw distinct adjacent segment levels")
    if kind == "heavy_tail":
        total = _total(params, n)
        alpha = float(params.pop("alpha", 1.5))
        if params:
            raise ParameterError(f"unknown params for heavy_tail data: {sorted(params)}")
        if not (np.isfinite(alpha) and alpha > 0):
            raise ParameterError(f"alpha must be positive and finite, got {alpha}")
        raw = rng.generator.pareto(alpha, size=n) + 1.0
        return DataVector(np.floor(raw * (total / raw.sum())).astype(np.int64))
    raise ParameterError(f"unknown data kind {kind!r}; choose from {DATA_KINDS}")
