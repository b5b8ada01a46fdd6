"""Seeded workload and synthetic dataset generators for experiments."""
from __future__ import annotations

import numpy as np

from .core import DataVector, ParameterError, RngStream, Workload

WORKLOAD_KINDS = ("identity", "uniform", "clustered", "large_clustered")
DATA_KINDS = ("constant", "piecewise_constant", "heavy_tail")


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
        num_queries = int(params.pop("num_queries", 2000))
        if params:
            raise ParameterError(f"unknown params for uniform workload: {sorted(params)}")
        ends = rng.generator.integers(1, n + 1, size=(num_queries, 2))
        return Workload(ends.min(axis=1), ends.max(axis=1))
    if kind in ("clustered", "large_clustered"):
        sigma = float(params.pop("sigma", 256.0 if kind == "clustered" else 1024.0))
        num_clusters = int(params.pop("num_clusters", 5))
        queries_per_cluster = int(params.pop("queries_per_cluster", 400))
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
        if value < 0:
            raise ParameterError(f"value must be nonnegative, got {value}")
        return DataVector(np.full(n, value, dtype=np.int64))
    if kind == "piecewise_constant":
        segments = int(params.pop("segments", 8))
        total = float(params.pop("total", 10.0 * n))
        if params:
            raise ParameterError(f"unknown params for piecewise data: {sorted(params)}")
        if not 1 <= segments <= n:
            raise ParameterError(f"segments must be in [1, {n}], got {segments}")
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
        total = float(params.pop("total", 10.0 * n))
        alpha = float(params.pop("alpha", 1.5))
        if params:
            raise ParameterError(f"unknown params for heavy_tail data: {sorted(params)}")
        if alpha <= 0:
            raise ParameterError(f"alpha must be positive, got {alpha}")
        raw = rng.generator.pareto(alpha, size=n) + 1.0
        return DataVector(np.floor(raw * (total / raw.sum())).astype(np.int64))
    raise ParameterError(f"unknown data kind {kind!r}; choose from {DATA_KINDS}")
