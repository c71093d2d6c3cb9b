"""The public API: one exported name per job, and nothing removed creeping back."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import sensorsched as ss

PUBLIC_NAMES = [
    "BlockTridiagonalMatrix",
    "BoundCertificate",
    "ConfigError",
    "DimensionMismatchError",
    "EnumerationResult",
    "GaussianPrior",
    "GreedyTrace",
    "InvalidParamsError",
    "LOG_TWO_PI_E",
    "MapEstimate",
    "NotPositiveDefiniteError",
    "OracleContext",
    "OracleInconsistencyError",
    "PriorForm",
    "Schedule",
    "Sensor",
    "SensorSchedError",
    "SensorSuite",
    "StepTrace",
    "TooLargeError",
    "build_dense_prior",
    "build_gauss_markov_prior",
    "build_tracking_prior",
    "builtin_sensor",
    "certify_bound",
    "conditional_entropy",
    "conditional_entropy_covariance_form",
    "conditional_entropy_precision_form",
    "densify",
    "exhaustive_optimum",
    "finite_difference_jacobian",
    "greedy_schedule",
    "greedy_step_detailed",
    "logdet_block_tridiagonal_blocks",
    "logdet_dense",
    "make_context",
    "map_linearization",
    "posterior_covariance",
    "prior_entropy",
    "random_schedule",
]

SUBMODULES = [
    "blocklinalg",
    "entropy_oracle",
    "exhaustive",
    "process_models",
    "scheduler",
    "sensing",
]

# a block-diagonal stacking path that only tests used, a schedule editor,
# two per-step greedy wrappers around greedy_step_detailed, the CSV
# export of a full enumeration table and a block-tridiagonal solve that
# only tests called (the MAP solves on the block stacks directly), a
# one-line wrapper of logdet_block_tridiagonal_blocks, the schedule
# count that exhaustive_optimum reports as num_enumerated, and the
# information H(x) - H(x | schedule), which callers write inline
REMOVED_NAMES = [
    "BlockDiagonalMatrix",
    "add_block_diagonal",
    "stacked_jacobian",
    "stacked_noise_cov",
    "greedy_step",
    "lazy_greedy_step",
    "export_table_csv",
    "solve_block_tridiagonal",
    "logdet_block_tridiagonal",
    "num_candidate_schedules",
    "mutual_information",
]

# the parameters of each function, all of which a program outside the tests sets
SIGNATURES = {
    "certify_bound": ["result", "cost"],
    "exhaustive_optimum": ["ctx", "budgets", "cap"],
    "greedy_schedule": ["ctx", "budgets", "lazy"],
    "greedy_step_detailed": ["ctx", "fixed_prefix", "k", "s_k", "lazy"],
}

# the fields of each result type (no full enumeration table, no wall time)
# and of Sensor, whose stacked evaluation needs no field of its own
FIELDS = {
    "Sensor": ["output_dim", "measure", "jacobian", "noise_cov", "name", "noise_overrides"],
    "EnumerationResult": ["opt_cost", "max_cost", "opt_schedule", "num_enumerated"],
    "StepTrace": ["step", "chosen", "gains", "oracle_calls"],
}


def test_exported_names_are_pinned():
    assert sorted(ss.__all__) == PUBLIC_NAMES
    assert len(set(ss.__all__)) == len(ss.__all__) == 40


def test_every_exported_name_resolves():
    for name in ss.__all__:
        assert getattr(ss, name) is not None, name


@pytest.mark.parametrize("module", SUBMODULES)
def test_submodule_api_is_re_exported(module):
    mod = importlib.import_module(f"sensorsched.{module}")
    for name in mod.__all__:
        assert name in ss.__all__, f"{module}.{name}"
        assert getattr(ss, name) is getattr(mod, name), f"{module}.{name}"


def test_every_error_class_is_exported():
    errors = importlib.import_module("sensorsched.errors")
    classes = [
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, Exception) and obj.__module__ == errors.__name__
    ]
    assert classes and set(classes) <= set(ss.__all__)


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_name_is_gone(name):
    assert not hasattr(ss, name)
    for module in SUBMODULES:
        mod = importlib.import_module(f"sensorsched.{module}")
        assert name not in mod.__all__ and not hasattr(mod, name), f"{module}.{name}"


def test_schedule_has_no_with_set():
    assert not hasattr(ss.Schedule, "with_set")


@pytest.mark.parametrize("name", list(SIGNATURES))
def test_parameters_are_pinned(name):
    assert list(inspect.signature(getattr(ss, name)).parameters) == SIGNATURES[name]


@pytest.mark.parametrize("name", list(FIELDS))
def test_result_fields_are_pinned(name):
    assert [f.name for f in dataclasses.fields(getattr(ss, name))] == FIELDS[name]


def test_greedy_trace_has_no_total_wall_time():
    assert not hasattr(ss.GreedyTrace, "total_wall_s")


def _identity(x):
    return x


# types holding ndarray fields, each with a builder of equal but distinct instances
ARRAY_HOLDERS = {
    "BlockTridiagonalMatrix": lambda: ss.BlockTridiagonalMatrix.identity(2, 3),
    "GaussianPrior": lambda: ss.build_tracking_prior(2, 3, 1.0, 0.4),
    "OracleContext": lambda: ss.make_context(
        ss.build_tracking_prior(2, 3, 1.0, 0.4),
        ss.SensorSuite(2, (ss.builtin_sensor("range", anchor=[2.0, 2.0], noise_var=0.4),)),
    ),
    "Sensor": lambda: ss.Sensor(2, _identity, _identity, np.eye(2)),
    "builtin_sensor": lambda: ss.builtin_sensor("range", anchor=[0.0, 0.0], noise_var=1.0),
}


@pytest.mark.parametrize("name", list(ARRAY_HOLDERS))
def test_array_holders_compare_and_hash_by_identity(name):
    # a generated __eq__ would compare the ndarray fields and raise
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a) and len({a, b}) == 2


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither reads nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_no_module_imports_a_name_it_does_not_use():
    assert _unused_imports("import os\nfrom a.b import c as d, e\n__all__ = ['e']\n") == ["d", "os"]
    package = Path(ss.__file__).resolve().parent
    unused = {path.name: _unused_imports(path.read_text()) for path in sorted(package.glob("*.py"))}
    assert {f"{module}.py" for module in SUBMODULES} <= set(unused)
    assert {name: names for name, names in unused.items() if names} == {}


def _raw_schedule_builds(source: str) -> list[int]:
    """Lines that build a ``Schedule`` without its checks: a reference to its
    raw constructor ``_unchecked``, or a ``__new__`` call on ``Schedule``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "_unchecked":
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "__new__"
              and any(isinstance(n, ast.Name) and n.id == "Schedule"
                      for n in [node.func.value, *node.args])):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_sensing_builds_a_schedule_without_its_checks():
    # a schedule's pick index has one writer: every other module asks
    # Schedule for the schedules it scores or extends
    assert _raw_schedule_builds("s = Schedule._unchecked(a, b, c)\n"
                                "t = object.__new__(Schedule)\n"
                                "u = Schedule.__new__(Schedule)\n"
                                "v = object.__new__(cls)\n") == [1, 2, 3]
    package = Path(ss.__file__).resolve().parent
    raw = {path.name: _raw_schedule_builds(path.read_text()) for path in package.glob("*.py")}
    assert raw["sensing.py"]
    assert {name: lines for name, lines in raw.items() if lines and name != "sensing.py"} == {}
