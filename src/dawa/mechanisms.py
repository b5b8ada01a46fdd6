"""End-to-end private release mechanisms sharing one measurement backend.

run_dawa is the two-stage mechanism; the rest are ablations that drop or
replace one stage, so every comparison isolates a single design choice.
All return an unclamped EstimateVector over the full domain.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DataVector,
    EstimateVector,
    Histogram,
    ParameterError,
    Partition,
    PrivacyBudget,
    RngStream,
    Workload,
    laplace_sample,
    uniform_expand,
)
from .estimation import QueryTree, build_query_tree, check_branching, estimate_buckets, measure, ols_infer
from .partition import CostTable, PartitionParams, check_mode, private_partition

MECHANISM_NAMES = (
    "dawa",
    "identity",
    "partition_laplace",
    "hier_uniform",
    "hier_geometric",
    "greedy_no_partition",
)


@dataclass(frozen=True)
class MechanismConfig:
    name: str
    budget: PrivacyBudget
    mode: str = "pow2"
    branching: int = 2

    def __post_init__(self) -> None:
        if self.name not in MECHANISM_NAMES:
            raise ParameterError(f"unknown mechanism {self.name!r}; choose from {MECHANISM_NAMES}")
        check_mode(self.mode)
        check_branching(self.branching)


@dataclass(frozen=True)
class SharedWork:
    """Work that depends on neither epsilon nor the noise, made once and read by
    releases on the same data and workload: the data's `deviation_table` for
    dawa and partition_laplace, the workload's unit-bucket `scaled_tree`."""

    deviations: CostTable | None = None
    unit_tree: QueryTree | None = None


def run_dawa(
    x: DataVector,
    W: Workload,
    budget: PrivacyBudget,
    rng: RngStream,
    mode: str = "pow2",
    t: int = 2,
    deviations: CostTable | None = None,
) -> EstimateVector:
    """Two-stage mechanism: private partition on eps1, bucket estimation on eps2.

    Sequential composition of the stages spends exactly the total budget.
    """
    check_branching(t)  # before stage 1, which dominates a release's time and memory
    params = PartitionParams(eps1=budget.eps1, eps2=budget.eps2, mode=mode)
    buckets = private_partition(x, params, rng, deviations)
    hist = estimate_buckets(buckets, W, x, budget.eps2, t, rng)
    return uniform_expand(hist, x.n)


def run_identity(x: DataVector, eps: float, rng: RngStream) -> EstimateVector:
    """Laplace noise on every count; the data- and workload-oblivious baseline."""
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    noise = laplace_sample(1.0 / eps, rng, size=x.n)
    return EstimateVector(x.counts.astype(np.float64) + noise)


def run_partition_laplace(
    x: DataVector,
    budget: PrivacyBudget,
    rng: RngStream,
    mode: str = "pow2",
    deviations: CostTable | None = None,
) -> EstimateVector:
    """Private partition, then plain Laplace on each bucket count."""
    params = PartitionParams(eps1=budget.eps1, eps2=budget.eps2, mode=mode)
    buckets = private_partition(x, params, rng, deviations)
    stats = buckets.bucket_totals(x.counts) + laplace_sample(1.0 / budget.eps2, rng, size=buckets.k)
    return uniform_expand(Histogram(partition=buckets, stats=stats), x.n)


def _level_weights(raw: "list[float]") -> list[float]:
    """Normalize per-level weights so a top-down column sum is exactly 1.

    All levels but the deepest get their normalized weight; the leaf level
    absorbs the float rounding so that accumulating the levels in order ends
    exactly at 1.0.
    """
    total = sum(raw)
    weights = [r / total for r in raw[:-1]]
    partial = 0.0
    for w in weights:
        partial += w
    weights.append(1.0 - partial)
    return weights


def _run_hierarchical(x: DataVector, eps: float, t: int, rng: RngStream, raw_weights) -> EstimateVector:
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    tree = build_query_tree(x.n, t)
    weights = _level_weights(raw_weights(len(tree.level_sizes), t))
    tree.scalings[:] = np.repeat(weights, tree.level_sizes)
    measurements = measure(x.counts.astype(np.float64), tree, eps, rng)
    return EstimateVector(ols_infer(tree, measurements))


def run_hier_uniform(x: DataVector, eps: float, rng: RngStream, t: int = 2) -> EstimateVector:
    """Hierarchy over the raw domain with the same scaling at every level."""
    return _run_hierarchical(x, eps, t, rng, lambda L, _t: [1.0] * L)


def run_hier_geometric(x: DataVector, eps: float, rng: RngStream, t: int = 2) -> EstimateVector:
    """Hierarchy with scalings decreasing geometrically from leaves to root.

    Adjacent levels differ by a factor t**(1/3), an approximation of the
    usual leaf-heavy tuning; level weights are normalized to a unit column
    sum like the uniform variant.
    """
    ratio = float(t) ** (1.0 / 3.0)
    return _run_hierarchical(
        x, eps, t, rng,
        lambda L, _t: [ratio ** -(L - 1 - d) for d in range(L)],
    )


def run_greedy_no_partition(
    x: DataVector,
    W: Workload,
    eps: float,
    rng: RngStream,
    t: int = 2,
    tree: QueryTree | None = None,
) -> EstimateVector:
    """Stage 2 alone on unit buckets, spending the whole budget there."""
    if eps <= 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    buckets = Partition.unit(x.n)
    hist = estimate_buckets(buckets, W, x, eps, t, rng, tree)
    return uniform_expand(hist, x.n)


def run_mechanism(config: MechanismConfig, x: DataVector, W: Workload, rng: RngStream,
                  shared: SharedWork = SharedWork()) -> EstimateVector:
    """Dispatch by configured name; single-stage mechanisms get the full budget.
    With `shared` work for x, W and the config, the estimate has the same bits."""
    name = config.name
    if name == "dawa":
        return run_dawa(x, W, config.budget, rng, config.mode, config.branching, shared.deviations)
    if name == "identity":
        return run_identity(x, config.budget.epsilon, rng)
    if name == "partition_laplace":
        return run_partition_laplace(x, config.budget, rng, config.mode, shared.deviations)
    if name == "hier_uniform":
        return run_hier_uniform(x, config.budget.epsilon, rng, t=config.branching)
    if name == "hier_geometric":
        return run_hier_geometric(x, config.budget.epsilon, rng, t=config.branching)
    if name == "greedy_no_partition":
        return run_greedy_no_partition(x, W, config.budget.epsilon, rng, config.branching, shared.unit_tree)
    raise ParameterError(f"unknown mechanism {name!r}")
