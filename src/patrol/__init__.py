"""Multi-robot patrol scheduling: solvers, references and exact evaluation."""

from .evaluate import (
    LatencyReport,
    max_weighted_latency,
    validate_speed,
)
from .instance import (
    Instance,
    Metric,
    WeightClasses,
    dump_instance,
    euclidean_instance,
    line_instance,
    load_instance,
    matrix_instance,
    round_weights_dyadic,
)
from .line_uniform import min_interval_cover, solve_line_single_weighted, solve_line_uniform
from .metric_core import mst, partition_tour, tree_cover, tree_to_tour
from .metric_scheduler import (
    baseline_cover_schedule,
    k_robot_assignment,
    lower_bound_metric,
    single_robot_schedule,
    solve_metric,
)
from .report import SolveReport
from .schedule import Schedule, dump_schedule, load_schedule
from .time_window import (
    candidate_window_lengths,
    concat,
    construct_schedule,
    cyclify,
    enumerate_atomics,
    solve_line_weighted,
)

__version__ = "0.1.0"

__all__ = [
    "Instance",
    "Metric",
    "WeightClasses",
    "LatencyReport",
    "SolveReport",
    "Schedule",
    "baseline_cover_schedule",
    "candidate_window_lengths",
    "concat",
    "construct_schedule",
    "cyclify",
    "dump_instance",
    "dump_schedule",
    "enumerate_atomics",
    "euclidean_instance",
    "k_robot_assignment",
    "line_instance",
    "load_instance",
    "load_schedule",
    "lower_bound_metric",
    "matrix_instance",
    "max_weighted_latency",
    "min_interval_cover",
    "mst",
    "partition_tour",
    "round_weights_dyadic",
    "single_robot_schedule",
    "solve_line_single_weighted",
    "solve_line_uniform",
    "solve_line_weighted",
    "solve_metric",
    "tree_cover",
    "tree_to_tour",
    "validate_speed",
]
