"""Closed-form conditional entropy of the batch state given selected sensors.

The scheduling objective H(x_1:K | S_1:K) is evaluated under a Gaussian
prior and linearized Gaussian measurements, by one of two algebraically
equivalent formulas:

  * precision form: H = -1/2 logdet(Xi + P) + (nK/2) log(2 pi e), where P
    is the prior precision and Xi is the block-diagonal information added
    by the selected measurements (C^T R^-1 C per step);
  * covariance form: H = H(x) - 1/2 logdet(I + W Sigma W^T), where
    Sigma is the prior covariance and W = L^-1 C stacks the whitened
    Jacobians of the selected sensors (R = L L^T per sensor). This is the
    paper's 1/2 [sum_k logdet R_k - logdet Sigma_y] + H(x), with
    Sigma_y = R + C Sigma C^T, after cancelling the noise log-dets.

Each formula is linear in the horizon K when its prior matrix is
block-tridiagonal, because every other matrix involved is block-diagonal.
All entropies are differential and in nats; negative values are normal.

An OracleContext freezes the linearization point and precomputes every
per-(step, sensor) whitened Jacobian W = L^-1 J and its information W^T W,
with the noise factor L that each sensor computes once when built, so
repeated evaluations (the greedy scheduler makes thousands) only gather
blocks and run one sparse log-determinant. Neither formula adds jitter:
every eigenvalue of I + W Sigma W^T is at least 1 in exact arithmetic, so
a failed factorization is reported, never retried. Contexts are immutable
and evaluations are pure, so they may be called concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocklinalg import (
    BlockTridiagonalMatrix,
    _inverse_spd,
    _logdet_dense,
    _solve_spd,
    _trtrs,
    logdet_block_tridiagonal_blocks,
    solve_block_tridiagonal,
)
from .errors import DimensionMismatchError, InvalidParamsError
from .process_models import LOG_TWO_PI_E, GaussianPrior, prior_entropy
from .sensing import Schedule, SensorSuite

__all__ = [
    "OracleContext",
    "make_context",
    "conditional_entropy",
    "conditional_entropy_precision_form",
    "conditional_entropy_covariance_form",
    "posterior_covariance",
    "mutual_information",
    "map_linearization",
    "MapEstimate",
]


@dataclass(frozen=True)
class OracleContext:
    """Immutable evaluation context: prior, suite, linearization, caches.

    ``whitened_jacobians[k][i]`` holds sensor i's Jacobian at step k's
    linearization point, whitened by its noise factor: W = L^-1 J with
    R = L L^T. ``info_increments[k][i]`` holds its information W^T W =
    J^T R^-1 J.
    """

    prior: GaussianPrior
    suite: SensorSuite
    linearization: np.ndarray
    prior_entropy: float
    whitened_jacobians: tuple[tuple[np.ndarray, ...], ...]
    info_increments: tuple[tuple[np.ndarray, ...], ...]

    @property
    def n(self) -> int:
        return self.prior.n

    @property
    def K(self) -> int:
        return self.prior.K


def make_context(
    prior: GaussianPrior,
    suite: SensorSuite,
    linearization: np.ndarray | None = None,
) -> OracleContext:
    """Build an OracleContext, linearizing every sensor at every step.

    Args:
        prior: batch-state Gaussian prior.
        suite: available sensors; ``suite.state_dim`` must equal prior.n.
        linearization: length-nK point for the Jacobians; defaults to the
            prior mean (pure planning mode).

    Raises:
        InvalidParamsError: a Jacobian is not finite; names step and sensor.
        DimensionMismatchError: a sensor overrides its noise at a step
            beyond the horizon; names the sensor and the step.
    """
    if suite.state_dim != prior.n:
        raise DimensionMismatchError(
            f"suite state_dim {suite.state_dim} != prior n {prior.n}"
        )
    lin = prior.mean if linearization is None else np.asarray(linearization, dtype=float)
    if lin.shape != (prior.dim,):
        raise DimensionMismatchError(
            f"linearization has shape {lin.shape}, expected ({prior.dim},)"
        )
    lin = lin.copy()
    lin.setflags(write=False)
    for i, sensor in enumerate(suite.sensors):
        for k in sensor.noise_overrides or ():
            if k >= prior.K:
                raise DimensionMismatchError(
                    f"sensor {i} ({sensor.name!r}): noise override at step {k} "
                    f"is beyond the horizon K={prior.K}"
                )

    states = lin.reshape(prior.K, prior.n)
    whitened, increments = [], []
    for k in range(prior.K):
        row_w, row_inc = [], []
        for i, sensor in enumerate(suite.sensors):
            W = _trtrs(sensor.noise_factor_at(k), sensor.jacobian_at(states[k]))
            if not np.isfinite(W).all():
                raise InvalidParamsError(
                    f"step {k}, sensor {i} ({sensor.name!r}): Jacobian is not finite"
                )
            inc = W.T @ W
            row_w.append(W)
            row_inc.append(0.5 * (inc + inc.T))
        whitened.append(tuple(row_w))
        increments.append(tuple(row_inc))

    return OracleContext(
        prior=prior,
        suite=suite,
        linearization=lin,
        prior_entropy=prior_entropy(prior),
        whitened_jacobians=tuple(whitened),
        info_increments=tuple(increments),
    )


def _precision(prior: GaussianPrior):
    """The stored precision, or the prior's cached dense one (inverted once)."""
    return prior.matrix if prior.form.is_precision else prior.precision_dense()


def _check_schedule(ctx: OracleContext, schedule: Schedule) -> None:
    if schedule.num_steps != ctx.K:
        raise DimensionMismatchError(
            f"schedule has {schedule.num_steps} steps, prior horizon is {ctx.K}"
        )
    m = ctx.suite.m
    for k, chosen in enumerate(schedule.sets):
        if chosen and chosen[-1] >= m:
            raise DimensionMismatchError(f"step {k} selects a sensor index >= m={m}")


def _information_blocks(ctx: OracleContext, schedule: Schedule) -> list[np.ndarray | None]:
    """Per-step Xi blocks (sum of selected increments); None when empty."""
    out: list[np.ndarray | None] = []
    for k, chosen in enumerate(schedule.sets):
        if not chosen:
            out.append(None)
            continue
        inc = ctx.info_increments[k]
        acc = inc[chosen[0]]
        for i in chosen[1:]:
            acc = acc + inc[i]
        out.append(acc)
    return out


def _plus_information(P, xi: list[np.ndarray | None]):
    """P + blockdiag(xi) without None blocks: the diagonal blocks of a
    block-tridiagonal P (off-diagonals unchanged), or a fresh dense array."""
    if isinstance(P, BlockTridiagonalMatrix):
        return [B if x is None else B + x for B, x in zip(P.diag_blocks, xi)]
    M = np.array(P)
    n = M.shape[0] // len(xi)
    for k, x in enumerate(xi):
        if x is not None:
            M[k * n:(k + 1) * n, k * n:(k + 1) * n] += x
    return M


def conditional_entropy_precision_form(ctx: OracleContext, schedule: Schedule) -> float:
    """H(x_1:K | schedule) evaluated through the prior precision.

    Adds the block-diagonal measurement information Xi to the precision
    and returns -1/2 logdet(Xi + P) + (nK/2) log(2 pi e). Uses the sparse
    pivot recursion when the precision is block-tridiagonal; a covariance
    prior is read through its cached dense precision.

    Raises:
        NotPositiveDefiniteError: the prior precision is invalid
            (Xi is PSD, so it cannot break positive definiteness).
    """
    _check_schedule(ctx, schedule)
    P = _precision(ctx.prior)
    M = _plus_information(P, _information_blocks(ctx, schedule))
    if isinstance(P, BlockTridiagonalMatrix):
        logdet = logdet_block_tridiagonal_blocks(M, P.offdiag_blocks)
    else:
        logdet = _logdet_dense(M, overwrite=True)  # M is a fresh copy of P
    return 0.5 * ctx.prior.dim * LOG_TWO_PI_E - 0.5 * logdet


def _selected_rows(ctx: OracleContext, k: int, chosen: tuple[int, ...]) -> np.ndarray:
    if not chosen:
        return np.zeros((0, ctx.n))
    rows = ctx.whitened_jacobians[k]
    return np.vstack([rows[i] for i in chosen])


def conditional_entropy_covariance_form(ctx: OracleContext, schedule: Schedule) -> float:
    """H(x_1:K | schedule) evaluated through the prior covariance.

    With W the whitened Jacobians of the selected sensors (block-diagonal
    over steps), returns

        H = H(x_1:K) - 1/2 logdet(I + W Sigma W^T),

    which equals the measurement-entropy form 1/2 [sum_k logdet R_k -
    logdet Sigma_y] + H(x_1:K) with Sigma_y = R + C Sigma C^T. I + W Sigma
    W^T inherits block-tridiagonal structure from a sparse prior
    covariance and is then evaluated by the pivot recursion; empty steps
    contribute 0 x 0 blocks with logdet 0. No jitter is applied: its
    eigenvalues are at least 1 in exact arithmetic. A precision prior is
    read through its cached dense covariance.

    Raises:
        NotPositiveDefiniteError: I + W Sigma W^T fails to factor, which
            takes an invalid prior or a rank-deficient W whose rows are
            so large (tiny noise) that the identity is lost to rounding.
    """
    _check_schedule(ctx, schedule)
    S = ctx.prior.covariance_dense() if ctx.prior.form.is_precision else ctx.prior.matrix
    W_blocks = [_selected_rows(ctx, k, chosen) for k, chosen in enumerate(schedule.sets)]

    if isinstance(S, BlockTridiagonalMatrix):
        diag = [
            W_blocks[k] @ S.diag_blocks[k] @ W_blocks[k].T + np.eye(W_blocks[k].shape[0])
            for k in range(ctx.K)
        ]
        offdiag = [
            W_blocks[k] @ S.offdiag_blocks[k] @ W_blocks[k + 1].T
            for k in range(ctx.K - 1)
        ]
        logdet = logdet_block_tridiagonal_blocks(diag, offdiag)
    else:
        n = ctx.n
        rows = sum(b.shape[0] for b in W_blocks)
        WS = np.zeros((rows, ctx.prior.dim))
        at = 0
        for k, Wk in enumerate(W_blocks):
            if Wk.shape[0]:
                WS[at:at + Wk.shape[0]] = Wk @ S[k * n:(k + 1) * n, :]
            at += Wk.shape[0]
        Sy = np.zeros((rows, rows))
        at = 0
        for k, Wk in enumerate(W_blocks):
            if Wk.shape[0]:
                Sy[:, at:at + Wk.shape[0]] = WS[:, k * n:(k + 1) * n] @ Wk.T
            at += Wk.shape[0]
        Sy[np.diag_indices(rows)] += 1.0
        logdet = _logdet_dense(0.5 * (Sy + Sy.T), overwrite=True)
    return ctx.prior_entropy - 0.5 * logdet


def conditional_entropy(ctx: OracleContext, schedule: Schedule) -> float:
    """Scheduling objective H(x_1:K | schedule) in nats.

    Dispatches to whichever formula matches the *stored* prior
    representation, so no implicit nK x nK inversion ever happens:
    precision-form priors go through the information formula, covariance
    priors through the measurement-covariance formula.
    """
    if ctx.prior.form.is_precision:
        return conditional_entropy_precision_form(ctx, schedule)
    return conditional_entropy_covariance_form(ctx, schedule)


def posterior_covariance(ctx: OracleContext, schedule: Schedule) -> np.ndarray:
    """Dense MMSE error covariance (Xi + P)^-1 of the batch state.

    Its log-determinant reproduces the conditional entropy:
    H = 1/2 logdet(result) + (nK/2) log(2 pi e).

    A covariance prior is read through its cached dense precision.
    """
    _check_schedule(ctx, schedule)
    P = _precision(ctx.prior)
    if isinstance(P, BlockTridiagonalMatrix):
        P = P.assemble()
    M = _plus_information(P, _information_blocks(ctx, schedule))
    return _inverse_spd(M, "posterior information matrix")


def mutual_information(ctx: OracleContext, schedule: Schedule) -> float:
    """I(x_1:K ; y_1:K) = H(x_1:K) - H(x_1:K | schedule), in nats."""
    return ctx.prior_entropy - conditional_entropy(ctx, schedule)


@dataclass(frozen=True)
class MapEstimate:
    """Gauss-Newton MAP result; ``converged`` is False when the iteration
    cap was hit, in which case ``estimate`` is the last iterate, which is
    not necessarily the best one: an undamped iteration can end on one
    side of an oscillation."""

    estimate: np.ndarray
    converged: bool
    iterations: int


def map_linearization(
    prior: GaussianPrior,
    suite: SensorSuite,
    past_schedule: Schedule | None = None,
    measurements: list[np.ndarray | None] | None = None,
    *,
    tol: float = 1e-8,
    max_iter: int = 50,
) -> MapEstimate:
    """MAP estimate of the batch state given realized past measurements.

    With no measurements (pure planning mode) the prior mean is returned
    unchanged. Otherwise runs Gauss-Newton on the negative log posterior:

        delta = solve(Xi(mu~) + P,  C^T R^-1 (y - c(mu~)) - P (mu~ - mu))

    starting from the prior mean, until ||delta||_inf <= tol or max_iter.
    Each sensor's residual and Jacobian are whitened by its noise factor
    L (R = L L^T), so C^T R^-1 terms are products of whitened rows. For
    linear sensors the first step lands exactly on the Gaussian posterior
    mean. Covariance-form priors use the prior's dense precision, inverted
    once per prior (the dense fallback is acceptable here because the MAP
    solve happens once per step, not once per candidate).

    Args:
        past_schedule: selections that produced the measurements; steps
            with no measurements must have empty sets.
        measurements: per-step stacked measurement vectors aligned with
            ``past_schedule`` (None for empty steps).
    """
    if past_schedule is None or measurements is None or past_schedule.total_selected == 0:
        return MapEstimate(estimate=np.array(prior.mean), converged=True, iterations=0)
    if past_schedule.num_steps != prior.K:
        raise DimensionMismatchError(
            f"schedule has {past_schedule.num_steps} steps, prior horizon is {prior.K}"
        )
    if len(measurements) != prior.K:
        raise DimensionMismatchError(
            f"got {len(measurements)} measurement entries, expected {prior.K}"
        )

    n, K = prior.n, prior.K
    precision = _precision(prior)

    y_steps: list[np.ndarray | None] = []
    for k, chosen in enumerate(past_schedule.sets):
        if not chosen:
            y_steps.append(None)
            continue
        rows = sum(suite.sensors[i].output_dim for i in chosen)
        y = np.asarray(measurements[k], dtype=float).reshape(-1)
        if y.shape != (rows,):
            raise DimensionMismatchError(
                f"step {k} measurement has shape {y.shape}, expected ({rows},)"
            )
        y_steps.append(y)

    mu = np.array(prior.mean)
    x = mu.copy()
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        states = x.reshape(K, n)
        grad = np.zeros(n * K)
        xi_blocks: list[np.ndarray | None] = [None] * K
        for k, chosen in enumerate(past_schedule.sets):
            if not chosen:
                continue
            at = 0
            xi = np.zeros((n, n))
            g_k = np.zeros(n)
            y = y_steps[k]
            for i in chosen:
                sensor = suite.sensors[i]
                r = y[at:at + sensor.output_dim] - sensor.measure_at(states[k])
                at += sensor.output_dim
                # one whitening of [r | J]: column 0 is L^-1 r, the rest L^-1 J
                w = _trtrs(sensor.noise_factor_at(k),
                           np.column_stack((r, sensor.jacobian_at(states[k]))))
                if not np.isfinite(w).all():
                    raise InvalidParamsError(
                        f"step {k}, sensor {i} ({sensor.name!r}): non-finite residual or Jacobian"
                    )
                g_k += w[:, 1:].T @ w[:, 0]
                xi += w[:, 1:].T @ w[:, 1:]
            xi_blocks[k] = 0.5 * (xi + xi.T)
            grad[k * n:(k + 1) * n] += g_k

        dev = x - mu
        system = _plus_information(precision, xi_blocks)
        if isinstance(precision, BlockTridiagonalMatrix):
            grad -= precision.matvec(dev)
            system = BlockTridiagonalMatrix(tuple(system), precision.offdiag_blocks)
            delta = solve_block_tridiagonal(system, grad)
        else:
            grad -= precision @ dev
            delta = _solve_spd(system, grad, "Gauss-Newton system")

        x = x + delta
        if float(np.max(np.abs(delta))) <= tol:
            converged = True
            break

    return MapEstimate(estimate=x, converged=converged, iterations=iterations)
