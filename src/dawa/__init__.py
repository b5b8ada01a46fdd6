"""Differentially private range-query answering, data- and workload-aware."""

from .core import (
    DataVector,
    DimensionError,
    EstimateVector,
    Histogram,
    Interval,
    InvalidIntervalError,
    InvalidPartitionError,
    ParameterError,
    Partition,
    PrivacyBudget,
    RngStream,
    SingularStrategyError,
    Workload,
    average_workload_error,
    derive_seed,
    evaluate_workload,
    laplace_sample,
    read_data_file,
    read_workload_file,
    uniform_expand,
    write_data_file,
    write_workload_file,
)
from .estimation import build_query_tree, estimate_buckets, greedy_scale
from .experiments import ExperimentConfig, Report, TrialResult, report_emit, run_experiment
from .generators import gen_synthetic_data, gen_workload
from .mechanisms import (
    MECHANISM_NAMES,
    MechanismConfig,
    run_dawa,
    run_greedy_no_partition,
    run_hier_geometric,
    run_hier_uniform,
    run_identity,
    run_mechanism,
    run_partition_laplace,
)
from .partition import (
    PartitionParams,
    all_costs,
    exact_partition,
    least_cost_partition,
    perturb_costs,
    private_partition,
)
from .transform import TransformedWorkload, transform_workload

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
