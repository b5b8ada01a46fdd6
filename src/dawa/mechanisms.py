"""End-to-end private release mechanisms sharing one measurement backend.

run_dawa is the two-stage mechanism; the rest are ablations that drop or
replace one stage, so every comparison isolates a single design choice.
The six runners take two paths: `_two_stage` (dawa, partition_laplace)
runs stage 1 and then stage 2, `_one_stage` (the four unit-bucket
baselines) stage 2 alone.  Both release stage 2 through `_release`, so
`estimation.measure` makes every stage-2 draw; identity and
partition_laplace measure on a `flat_tree`.  `run_mechanism` alone takes
work made ahead of a release, a `private_stage1` record and a tree, as
`run_experiment` makes it once for many trials.  All return an unclamped
EstimateVector over the full domain.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    DataVector,
    EstimateVector,
    ParameterError,
    Partition,
    PrivacyBudget,
    RngStream,
    Workload,
    check_epsilon,
    laplace_draws,
    uniform_expand,
)
from .estimation import QueryTree, build_query_tree, check_branching, estimate_buckets, flat_tree, write_scalings
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


class Stage1(NamedTuple):
    """Stage 1 of a two-stage release: its private partition, and the state
    of its random stream after it."""

    buckets: Partition
    state: dict


def private_stage1(x: DataVector, budget: PrivacyBudget, rng: RngStream, mode: str = "pow2",
                   deviations: CostTable | None = None) -> Stage1:
    """`private_partition` on budget.eps1, pricing a copy of `deviations`
    (x's `deviation_table`) if given.  A release of dawa or
    partition_laplace on a fresh stream of rng's seed, the same x, budget
    and mode can take the record in place of its own stage 1."""
    buckets = private_partition(x, PartitionParams(budget.eps1, budget.eps2, mode), rng, deviations)
    return Stage1(buckets, rng.generator.bit_generator.state)


def run_dawa(x: DataVector, W: Workload, budget: PrivacyBudget, rng: RngStream, mode: str = "pow2",
             t: int = 2) -> EstimateVector:
    """Two-stage mechanism: private partition on eps1, bucket estimation on eps2.

    Sequential composition of the stages spends exactly the total budget.
    """
    return _two_stage("dawa", x, W, budget, rng, mode, t, None, None)


def run_identity(x: DataVector, eps: float, rng: RngStream) -> EstimateVector:
    """Laplace noise on every count (the unit buckets' flat tree); the oblivious baseline."""
    return _one_stage("identity", x, None, eps, 2, rng, None)


def run_partition_laplace(x: DataVector, budget: PrivacyBudget, rng: RngStream,
                          mode: str = "pow2") -> EstimateVector:
    """Private partition, then plain Laplace on each bucket count (its flat tree)."""
    return _two_stage("partition_laplace", x, None, budget, rng, mode, 2, None, None)


def run_hier_uniform(x: DataVector, eps: float, rng: RngStream, t: int = 2) -> EstimateVector:
    """Hierarchy over the raw domain with the same scaling at every level."""
    return _one_stage("hier_uniform", x, None, eps, t, rng, None)


def run_hier_geometric(x: DataVector, eps: float, rng: RngStream, t: int = 2) -> EstimateVector:
    """Hierarchy with scalings decreasing geometrically from leaves to root.

    Adjacent levels differ by a factor t**(1/3), an approximation of the
    usual leaf-heavy tuning; every leaf's cover sum is exactly 1.0, like
    the uniform variant's.
    """
    return _one_stage("hier_geometric", x, None, eps, t, rng, None)


def run_greedy_no_partition(x: DataVector, W: Workload, eps: float, rng: RngStream, t: int = 2) -> EstimateVector:
    """Stage 2 alone on unit buckets, spending the whole budget there."""
    return _one_stage("greedy_no_partition", x, W, eps, t, rng, None)


# Per hier_* baseline, its level weights' growth per level toward the leaves.
_HIER_RATIOS = {"hier_uniform": lambda t: 1.0, "hier_geometric": lambda t: float(t) ** (1.0 / 3.0)}


def hier_tree(name: str, n: int, t: int = 2) -> QueryTree:
    """The hierarchy of baseline `name` over the raw domain [1, n]: level
    weights grow by its ratio per level toward the leaves, normalized
    top-down by `write_scalings`.  Its scalings are read-only."""
    tree = build_query_tree(n, t)
    ratio = _HIER_RATIOS[name](t)
    height = len(tree.level_sizes) - 1
    raw = [ratio ** (d - height) for d in range(height + 1)]
    write_scalings(tree, [r / sum(raw[d:]) for d, r in enumerate(raw)])
    tree.scalings.setflags(write=False)
    return tree


def _two_stage(name: str, x: DataVector, W: "Workload | None", budget: PrivacyBudget, rng: RngStream,
               mode: str, t: int, stage1: "Stage1 | None", tree: "QueryTree | None") -> EstimateVector:
    """dawa or partition_laplace: stage 1 on eps1, or the `stage1` record
    replayed (its ledger entry recorded and its stream state restored), then
    stage 2 on eps2."""
    check_branching(t)  # before stage 1, which dominates a release's time and memory
    if stage1 is None:
        stage1 = private_stage1(x, budget, rng, mode)
    else:
        params = PartitionParams(budget.eps1, budget.eps2, mode)
        laplace_draws(params.noise_scale, rng, candidate_count(x.n, mode))
        rng.generator.bit_generator.state = stage1.state
    return _release(name, x, stage1.buckets, W, budget.eps2, t, rng, tree)


def _one_stage(name: str, x: DataVector, W: "Workload | None", eps: float, t: int, rng: RngStream,
               tree: "QueryTree | None") -> EstimateVector:
    """A unit-bucket baseline: stage 2 alone, on the whole eps."""
    check_epsilon("eps", eps)  # by name, before any work
    return _release(name, x, Partition.unit(x.n), W, eps, t, rng, tree)


def _release(name: str, x: DataVector, buckets: Partition, W: "Workload | None", eps: float, t: int,
             rng: RngStream, tree: "QueryTree | None") -> EstimateVector:
    """Stage 2 on eps, spread over each bucket, through `tree` or else the
    mechanism's own: flat, its fixed hierarchy or scaled greedily for W."""
    if tree is None and name in ("identity", "partition_laplace"):
        tree = flat_tree(buckets.k)
    elif tree is None and name in _HIER_RATIOS:
        tree = hier_tree(name, buckets.k, t)
    return uniform_expand(estimate_buckets(buckets, W, x, eps, t, rng, tree), x.n)


def run_mechanism(config: MechanismConfig, x: DataVector, W: Workload, rng: RngStream,
                  stage1: "Stage1 | None" = None, tree: "QueryTree | None" = None) -> EstimateVector:
    """Dispatch by configured name; single-stage mechanisms get the full budget.

    Work made ahead of a release keeps its bits: `stage1`, for dawa and
    partition_laplace, is the `private_stage1` record of x, the budget and
    mode on a fresh stream of rng's seed; `tree` is the release's stage-2
    tree, read-only: for dawa and greedy_no_partition, from `scaled_trees`
    over its buckets and W, for hier_* its `hier_tree`, for identity
    `flat_tree(x.n)`.
    """
    name = config.name
    if name in ("dawa", "partition_laplace"):
        return _two_stage(name, x, W, config.budget, rng, config.mode, config.branching, stage1, tree)
    return _one_stage(name, x, W, config.budget.epsilon, config.branching, rng, tree)
