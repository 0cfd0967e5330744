"""The package's public namespace, and the independence of the test oracles."""

import ast
from pathlib import Path

import lsils

PUBLIC_API = {
    "GainCache", "UbqpInstance", "as_solution", "evaluate", "mean_abs", "random_solution",
    "seeded_rng",
    "LambdaSchedule", "SmoothedObjective", "ToyKind", "ToyMatrix", "auto_alpha",
    "construct_toy",
    "ParseError", "RunLogRecord", "attach_excess", "excess", "gen_random_instance",
    "load_optima", "parse_orlib", "read_runlog_csv", "runlog_filename", "serialize_orlib",
    "write_runlog_csv",
    "Budget", "RunResult", "SearchConfig", "ils", "local_search", "lsils",
    "LandscapeReport", "analyze", "collision_probability", "enumerate_local_optima",
    "lambda_sweep", "solution_from_index", "value_histogram",
    "__version__",
}


def test_every_exported_name_resolves():
    missing = [name for name in lsils.__all__ if not hasattr(lsils, name)]
    assert missing == []


def test_exports_are_pinned():
    # A new export is a deliberate edit of this set.
    assert len(lsils.__all__) == len(PUBLIC_API) == 38
    assert set(lsils.__all__) == PUBLIC_API


def test_oracles_import_nothing_from_the_package():
    # The references in tests/oracles.py check the package, so they must not use it.
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert imported and not [name for name in imported if name.split(".")[0] == "lsils"]
