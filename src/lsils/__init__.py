"""Landscape-smoothing iterated local search for UBQP.

Maximizes f(x) = x^T Q x over binary vectors, optionally blending the
objective with a unimodal toy problem anchored at the best-known solution,
plus an exhaustive landscape laboratory for small instances.
"""

from .qubo import (
    GainCache,
    UbqpInstance,
    as_solution,
    evaluate,
    mean_abs,
    random_solution,
    seeded_rng,
)
from .smoothing import (
    LambdaSchedule,
    SmoothedObjective,
    ToyKind,
    ToyMatrix,
    auto_alpha,
    construct_toy,
)
from .bench_io import (
    ParseError,
    RunLogRecord,
    attach_excess,
    excess,
    gen_random_instance,
    load_optima,
    parse_orlib,
    read_runlog_csv,
    runlog_filename,
    serialize_orlib,
    write_runlog_csv,
)
from .search import (
    Budget,
    RunResult,
    SearchConfig,
    ils,
    local_search,
    lsils,
)
from .landscape import (
    LandscapeReport,
    analyze,
    collision_probability,
    enumerate_local_optima,
    lambda_sweep,
    solution_from_index,
    value_histogram,
)

__version__ = "0.1.0"

__all__ = [
    "GainCache",
    "UbqpInstance",
    "as_solution",
    "evaluate",
    "mean_abs",
    "random_solution",
    "seeded_rng",
    "LambdaSchedule",
    "SmoothedObjective",
    "ToyKind",
    "ToyMatrix",
    "auto_alpha",
    "construct_toy",
    "ParseError",
    "RunLogRecord",
    "attach_excess",
    "excess",
    "gen_random_instance",
    "load_optima",
    "parse_orlib",
    "read_runlog_csv",
    "runlog_filename",
    "serialize_orlib",
    "write_runlog_csv",
    "Budget",
    "RunResult",
    "SearchConfig",
    "ils",
    "local_search",
    "lsils",
    "LandscapeReport",
    "analyze",
    "collision_probability",
    "enumerate_local_optima",
    "lambda_sweep",
    "solution_from_index",
    "value_histogram",
    "__version__",
]
