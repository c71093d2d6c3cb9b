"""Budgeted sensor scheduling for Gaussian batch-state estimation.

Selects, per time step, a subset of nonlinear sensors that minimizes the
conditional entropy of the batch state under a Gaussian-process prior.
The greedy scheduler comes with a certified half-range approximation
guarantee, and the entropy oracle exploits block-tridiagonal structure
in the prior covariance or precision so each evaluation is linear in the
planning horizon.
"""

from .blocklinalg import (
    BlockTridiagonalMatrix,
    logdet_block_tridiagonal_blocks,
    logdet_dense,
)
from .entropy_oracle import (
    MapEstimate,
    OracleContext,
    conditional_entropy,
    conditional_entropy_covariance_form,
    conditional_entropy_precision_form,
    make_context,
    map_linearization,
    posterior_covariance,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidParamsError,
    NotPositiveDefiniteError,
    OracleInconsistencyError,
    SensorSchedError,
    TooLargeError,
)
from .exhaustive import (
    BoundCertificate,
    EnumerationResult,
    certify_bound,
    exhaustive_optimum,
)
from .process_models import (
    LOG_TWO_PI_E,
    GaussianPrior,
    PriorForm,
    build_dense_prior,
    build_gauss_markov_prior,
    build_tracking_prior,
    densify,
    prior_entropy,
)
from .scheduler import (
    GreedyTrace,
    StepTrace,
    greedy_schedule,
    greedy_step_detailed,
    random_schedule,
)
from .sensing import (
    Schedule,
    Sensor,
    SensorSuite,
    builtin_sensor,
    finite_difference_jacobian,
)

__version__ = "0.1.0"

__all__ = [
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
    "build_dense_prior",
    "build_gauss_markov_prior",
    "build_tracking_prior",
    "random_schedule",
]
