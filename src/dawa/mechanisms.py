"""End-to-end private release mechanisms sharing one measurement backend.

run_dawa is the two-stage mechanism; the rest are ablations that drop or
replace one stage, so every comparison isolates a single design choice.
Each releases stage 2 through `_release`, so `estimation.measure` makes every
stage-2 draw; identity and partition_laplace measure on a `flat_tree`.
All return an unclamped EstimateVector over the full domain.
"""
from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DataVector,
    EstimateVector,
    ParameterError,
    Partition,
    PrivacyBudget,
    RngStream,
    Workload,
    laplace_draws,
    laplace_scale,
    uniform_expand,
)
from .estimation import (QueryTree, build_query_tree, check_branching, estimate_buckets, flat_tree, scaled_trees,
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
    the data's `deviation_table` for dawa and partition_laplace and, if
    dicts, `partitions` and `trees`.

    `partitions` maps (eps1, eps2, seed) to stage 1's private partition and
    its stream's state after stage 1, for dawa and partition_laplace to
    share.  An entry may be reused only by a stream in the state that made
    it: a fresh `RngStream(seed)` on the same data and mode, as each trial
    of `run_experiment` is.  `trees` maps the same keys to the dawa tree
    scaled for that partition, which the trial that reads it removes, and
    "greedy_no_partition", "hier_uniform" and "hier_geometric" to their
    trees.  Every tree is read-only.
    """

    deviations: CostTable | None = None
    trees: dict | None = None
    partitions: dict | None = None


def _partition_key(budget: PrivacyBudget, rng: RngStream) -> tuple:
    return budget.eps1, budget.eps2, rng.seed


def _stage1(x: DataVector, budget: PrivacyBudget, rng: RngStream, mode: str, shared: SharedWork) -> Partition:
    """`private_partition` on budget.eps1, or the partition `shared` holds for
    this stream, with the same ledger entry and the stream where stage 1 leaves it."""
    params = PartitionParams.of_budget(budget, mode)
    if shared.partitions is None:
        return private_partition(x, params, rng, shared.deviations)
    key = _partition_key(budget, rng)
    if key in shared.partitions:
        buckets, state = shared.partitions[key]
        laplace_draws(params.noise_scale, rng, candidate_count(x.n, mode))
        rng.generator.bit_generator.state = state
    else:
        buckets = private_partition(x, params, rng, shared.deviations)
        shared.partitions[key] = buckets, rng.generator.bit_generator.state
    return buckets


def prepare_shared(shared: SharedWork, x: DataVector, W: Workload, names: "tuple[str, ...]",
                   budgets: "list[PrivacyBudget]", seeds: "list[int]", mode: str = "pow2", t: int = 2) -> None:
    """Make the work that the trials of mechanisms `names` on x and W share,
    before the first of them, into `shared`'s dicts: with dawa or
    partition_laplace, the private partition of every (budget, seed), one
    stage-1 table at a time; then, in one `scaled_trees` call, dawa's tree
    over each partition and greedy_no_partition's over unit buckets."""
    if {"dawa", "partition_laplace"} & set(names):
        for budget in budgets:
            for seed in seeds:
                _stage1(x, budget, RngStream(seed), mode, shared)
    keys = list(shared.partitions) if "dawa" in names else []
    partitions = [shared.partitions[key][0] for key in keys]
    if "greedy_no_partition" in names:
        keys.append("greedy_no_partition")
        partitions.append(Partition.unit(x.n))
    shared.trees.update(zip(keys, scaled_trees(partitions, W, t)))


def run_dawa(
    x: DataVector,
    W: Workload,
    budget: PrivacyBudget,
    rng: RngStream,
    mode: str = "pow2",
    t: int = 2,
    shared: SharedWork = SharedWork(),
    tree: QueryTree | None = None,
) -> EstimateVector:
    """Two-stage mechanism: private partition on eps1, bucket estimation on eps2.

    Sequential composition of the stages spends exactly the total budget.
    A `tree` from `scaled_trees` over stage 1's partition skips the greedy
    scaling.
    """
    check_branching(t)  # before stage 1, which dominates a release's time and memory
    return _release(x, _stage1(x, budget, rng, mode, shared), W, budget.eps2, t, rng, tree)


def _release(x: DataVector, buckets: Partition, W: "Workload | None", eps: float, t: int, rng: RngStream,
             tree: "QueryTree | None") -> EstimateVector:
    """Stage 2 on eps through `tree` (None: scaled for W), spread over each bucket."""
    return uniform_expand(estimate_buckets(buckets, W, x, eps, t, rng, tree), x.n)


def run_identity(x: DataVector, eps: float, rng: RngStream) -> EstimateVector:
    """Laplace noise on every count (the unit buckets' flat tree); the oblivious baseline."""
    laplace_scale(1.0, "eps", eps)  # refuses eps by name before any work
    return _release(x, Partition.unit(x.n), None, eps, 2, rng, flat_tree(x.n))


def run_partition_laplace(
    x: DataVector,
    budget: PrivacyBudget,
    rng: RngStream,
    mode: str = "pow2",
    shared: SharedWork = SharedWork(),
) -> EstimateVector:
    """Private partition, then plain Laplace on each bucket count (its flat tree)."""
    buckets = _stage1(x, budget, rng, mode, shared)
    return _release(x, buckets, None, budget.eps2, 2, rng, flat_tree(buckets.k))


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


def _run_hierarchical(name: str, x: DataVector, eps: float, t: int, rng: RngStream,
                      tree: QueryTree | None) -> EstimateVector:
    laplace_scale(1.0, "eps", eps)  # refuses eps by name before any work
    tree = hier_tree(name, x.n, t) if tree is None else tree
    return _release(x, Partition.unit(x.n), None, eps, t, rng, tree)


def run_hier_uniform(x: DataVector, eps: float, rng: RngStream, t: int = 2,
                     tree: QueryTree | None = None) -> EstimateVector:
    """Hierarchy over the raw domain with the same scaling at every level;
    `tree` is its `hier_tree`, if already made."""
    return _run_hierarchical("hier_uniform", x, eps, t, rng, tree)


def run_hier_geometric(x: DataVector, eps: float, rng: RngStream, t: int = 2,
                       tree: QueryTree | None = None) -> EstimateVector:
    """Hierarchy with scalings decreasing geometrically from leaves to root.

    Adjacent levels differ by a factor t**(1/3), an approximation of the
    usual leaf-heavy tuning; every leaf's cover sum is exactly 1.0, like
    the uniform variant's.  `tree` is its `hier_tree`, if already made.
    """
    return _run_hierarchical("hier_geometric", x, eps, t, rng, tree)


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
    return _release(x, Partition.unit(x.n), W, eps, t, rng, tree)


def run_mechanism(config: MechanismConfig, x: DataVector, W: Workload, rng: RngStream,
                  shared: SharedWork = SharedWork()) -> EstimateVector:
    """Dispatch by configured name; single-stage mechanisms get the full budget.
    With `shared` work for x, W and the config, the estimate has the same bits."""
    name, trees = config.name, shared.trees or {}
    if name == "dawa":
        tree = trees.pop(_partition_key(config.budget, rng), None)  # no other trial reads it
        return run_dawa(x, W, config.budget, rng, config.mode, config.branching, shared, tree)
    if name == "identity":
        return run_identity(x, config.budget.epsilon, rng)
    if name == "partition_laplace":
        return run_partition_laplace(x, config.budget, rng, config.mode, shared)
    if name in _HIER_RATIOS:
        return _run_hierarchical(name, x, config.budget.epsilon, config.branching, rng, trees.get(name))
    if name == "greedy_no_partition":
        return run_greedy_no_partition(x, W, config.budget.epsilon, rng, config.branching, trees.get(name))
    raise ParameterError(f"unknown mechanism {name!r}")
