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
    laplace_draws,
    laplace_sample,
    laplace_scale,
    uniform_expand,
)
from .estimation import (QueryTree, build_query_tree, check_branching, estimate_buckets, measure, ols_infer,
                         write_scalings)
from .partition import CostTable, PartitionParams, candidate_count, check_mode, private_partition

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
    """Work made once and read by releases on the same data and workload:
    the data's `deviation_table` for dawa and partition_laplace, the
    workload's unit-bucket `scaled_tree` and, if a dict, `partitions`.

    `partitions` maps (eps1, eps2, seed) to stage 1's private partition and
    its stream's state after stage 1, for dawa and partition_laplace to
    share.  An entry may be reused only by a stream in the state that made
    it: a fresh `RngStream(seed)` on the same data and mode, as each trial
    of `run_experiment` is.
    """

    deviations: CostTable | None = None
    unit_tree: QueryTree | None = None
    partitions: dict | None = None


def _stage1(x: DataVector, budget: PrivacyBudget, rng: RngStream, mode: str, shared: SharedWork) -> Partition:
    """`private_partition` on budget.eps1, or the partition `shared` holds for
    this stream, with the same ledger entry and the stream where stage 1 leaves it."""
    params = PartitionParams(eps1=budget.eps1, eps2=budget.eps2, mode=mode)
    if shared.partitions is None:
        return private_partition(x, params, rng, shared.deviations)
    key = (params.eps1, params.eps2, rng.seed)
    if key in shared.partitions:
        buckets, state = shared.partitions[key]
        laplace_draws(params.noise_scale, rng, candidate_count(x.n, mode))
        rng.generator.bit_generator.state = state
    else:
        buckets = private_partition(x, params, rng, shared.deviations)
        shared.partitions[key] = buckets, rng.generator.bit_generator.state
    return buckets


def run_dawa(
    x: DataVector,
    W: Workload,
    budget: PrivacyBudget,
    rng: RngStream,
    mode: str = "pow2",
    t: int = 2,
    shared: SharedWork = SharedWork(),
) -> EstimateVector:
    """Two-stage mechanism: private partition on eps1, bucket estimation on eps2.

    Sequential composition of the stages spends exactly the total budget.
    """
    check_branching(t)  # before stage 1, which dominates a release's time and memory
    buckets = _stage1(x, budget, rng, mode, shared)
    hist = estimate_buckets(buckets, W, x, budget.eps2, t, rng)
    return uniform_expand(hist, x.n)


def run_identity(x: DataVector, eps: float, rng: RngStream) -> EstimateVector:
    """Laplace noise on every count; the data- and workload-oblivious baseline."""
    noise = laplace_sample(laplace_scale(1.0, "eps", eps), rng, size=x.n)
    return EstimateVector(x.counts.astype(np.float64) + noise)


def run_partition_laplace(
    x: DataVector,
    budget: PrivacyBudget,
    rng: RngStream,
    mode: str = "pow2",
    shared: SharedWork = SharedWork(),
) -> EstimateVector:
    """Private partition, then plain Laplace on each bucket count."""
    buckets = _stage1(x, budget, rng, mode, shared)
    noise = laplace_sample(laplace_scale(1.0, "eps2", budget.eps2), rng, size=buckets.k)
    stats = buckets.bucket_totals(x.counts) + noise
    return uniform_expand(Histogram(partition=buckets, stats=stats), x.n)


def _run_hierarchical(x: DataVector, eps: float, t: int, rng: RngStream, ratio: float) -> EstimateVector:
    """Hierarchy over the raw domain whose level weights grow by `ratio` per
    level toward the leaves, normalized top-down by `write_scalings`."""
    laplace_scale(1.0, "eps", eps)  # refuses eps by name before any work
    tree = build_query_tree(x.n, t)
    height = len(tree.level_sizes) - 1
    raw = [ratio ** (d - height) for d in range(height + 1)]
    write_scalings(tree, [r / sum(raw[d:]) for d, r in enumerate(raw)])
    measurements = measure(x.counts.astype(np.float64), tree, eps, rng)
    return EstimateVector(ols_infer(tree, measurements))


def run_hier_uniform(x: DataVector, eps: float, rng: RngStream, t: int = 2) -> EstimateVector:
    """Hierarchy over the raw domain with the same scaling at every level."""
    return _run_hierarchical(x, eps, t, rng, 1.0)


def run_hier_geometric(x: DataVector, eps: float, rng: RngStream, t: int = 2) -> EstimateVector:
    """Hierarchy with scalings decreasing geometrically from leaves to root.

    Adjacent levels differ by a factor t**(1/3), an approximation of the
    usual leaf-heavy tuning; every leaf's cover sum is exactly 1.0, like
    the uniform variant's.
    """
    return _run_hierarchical(x, eps, t, rng, float(t) ** (1.0 / 3.0))


def run_greedy_no_partition(
    x: DataVector,
    W: Workload,
    eps: float,
    rng: RngStream,
    t: int = 2,
    tree: QueryTree | None = None,
) -> EstimateVector:
    """Stage 2 alone on unit buckets, spending the whole budget there."""
    laplace_scale(1.0, "eps", eps)  # refuses eps by name before any work
    buckets = Partition.unit(x.n)
    hist = estimate_buckets(buckets, W, x, eps, t, rng, tree)
    return uniform_expand(hist, x.n)


def run_mechanism(config: MechanismConfig, x: DataVector, W: Workload, rng: RngStream,
                  shared: SharedWork = SharedWork()) -> EstimateVector:
    """Dispatch by configured name; single-stage mechanisms get the full budget.
    With `shared` work for x, W and the config, the estimate has the same bits."""
    name = config.name
    if name == "dawa":
        return run_dawa(x, W, config.budget, rng, config.mode, config.branching, shared)
    if name == "identity":
        return run_identity(x, config.budget.epsilon, rng)
    if name == "partition_laplace":
        return run_partition_laplace(x, config.budget, rng, config.mode, shared)
    if name == "hier_uniform":
        return run_hier_uniform(x, config.budget.epsilon, rng, t=config.branching)
    if name == "hier_geometric":
        return run_hier_geometric(x, config.budget.epsilon, rng, t=config.branching)
    if name == "greedy_no_partition":
        return run_greedy_no_partition(x, W, config.budget.epsilon, rng, config.branching, shared.unit_tree)
    raise ParameterError(f"unknown mechanism {name!r}")
