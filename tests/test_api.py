"""The public API: one exported name per job, and nothing removed creeping back."""

import dataclasses
import importlib
import inspect

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
    "logdet_block_tridiagonal",
    "logdet_block_tridiagonal_blocks",
    "logdet_dense",
    "make_context",
    "map_linearization",
    "mutual_information",
    "num_candidate_schedules",
    "posterior_covariance",
    "prior_entropy",
    "random_schedule",
    "solve_block_tridiagonal",
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
# two per-step greedy wrappers around greedy_step_detailed and the CSV
# export of a full enumeration table
REMOVED_NAMES = [
    "BlockDiagonalMatrix",
    "add_block_diagonal",
    "stacked_jacobian",
    "stacked_noise_cov",
    "greedy_step",
    "lazy_greedy_step",
    "export_table_csv",
]

# the parameters of each function, all of which a program outside the tests sets
SIGNATURES = {
    "certify_bound": ["result", "cost"],
    "exhaustive_optimum": ["ctx", "budgets", "cap"],
    "num_candidate_schedules": ["m", "budgets"],
    "greedy_schedule": ["ctx", "budgets", "lazy"],
    "greedy_step_detailed": ["ctx", "fixed_prefix", "k", "s_k", "lazy"],
}

# the fields of each result type: no full enumeration table, no wall time
FIELDS = {
    "EnumerationResult": ["opt_cost", "max_cost", "opt_schedule", "num_enumerated"],
    "StepTrace": ["step", "chosen", "gains", "oracle_calls"],
}


def test_exported_names_are_pinned():
    assert sorted(ss.__all__) == PUBLIC_NAMES
    assert len(set(ss.__all__)) == len(ss.__all__) == 44


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
