"""Closed-form conditional entropy of the batch state given selected sensors.

The scheduling objective H(x_1:K | S_1:K) is evaluated under a Gaussian
prior and linearized Gaussian measurements, by one of two algebraically
equivalent formulas:

  * precision form: H = -1/2 logdet(Xi + P) + (nK/2) log(2 pi e), where P
    is the prior precision and Xi is the block-diagonal information added
    by the selected measurements (C^T R^-1 C per step);
  * covariance form: H = 1/2 [sum_k logdet R_k - logdet Sigma_y] + H(x),
    with Sigma_y = R + C Sigma C^T the marginal measurement covariance.

Each formula is linear in the horizon K when its prior matrix is
block-tridiagonal, because every other matrix involved is block-diagonal.
All entropies are differential and in nats; negative values are normal.

An OracleContext freezes the linearization point and precomputes every
per-(step, sensor) Jacobian and information increment, so repeated
evaluations (the greedy scheduler makes thousands) only gather blocks and
run one sparse log-determinant. Contexts are immutable and evaluations
are pure, so they may be called concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .blocklinalg import (
    BlockTridiagonalMatrix,
    _inverse_spd,
    _logdet_dense,
    _solve_spd,
    logdet_block_tridiagonal_blocks,
    logdet_dense,
    solve_block_tridiagonal,
)
from .errors import DimensionMismatchError, InvalidParamsError, NotPositiveDefiniteError, WrongFormError
from .process_models import LOG_TWO_PI_E, GaussianPrior, PriorForm, prior_entropy
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

# Jitter policy, one for Sigma_y stored block-tridiagonal or dense: retry a
# failed factorization once with +1e-12 I, but only when the failed pivot is
# PSD to within 1e-10 (anything worse is a genuinely singular input, which
# the SPD noise assumption rules out).
_JITTER = 1e-12
_JITTER_TOL = 1e-10


@dataclass(frozen=True)
class OracleContext:
    """Immutable evaluation context: prior, suite, linearization, caches.

    ``jacobians[k][i]`` and ``info_increments[k][i]`` hold sensor i's
    Jacobian and its information contribution J^T R^-1 J at step k's
    linearization point. ``precision``/``covariance`` hold whichever
    representations of the prior are available (the stored one, plus the
    densely converted one when conversion was enabled at construction).
    """

    prior: GaussianPrior
    suite: SensorSuite
    linearization: np.ndarray
    prior_entropy: float
    jacobians: tuple[tuple[np.ndarray, ...], ...]
    info_increments: tuple[tuple[np.ndarray, ...], ...]
    noise_logdets: tuple[tuple[float, ...], ...]
    noise_covs: tuple[tuple[np.ndarray, ...], ...]
    precision: BlockTridiagonalMatrix | np.ndarray | None
    covariance: BlockTridiagonalMatrix | np.ndarray | None

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
    *,
    allow_form_conversion: bool = False,
) -> OracleContext:
    """Build an OracleContext, linearizing every sensor at every step.

    Args:
        prior: batch-state Gaussian prior.
        suite: available sensors; ``suite.state_dim`` must equal prior.n.
        linearization: length-nK point for the Jacobians; defaults to the
            prior mean (pure planning mode).
        allow_form_conversion: also compute the dense missing
            representation (one O(dim^3) inversion) so that both entropy
            formulas are callable on this context.
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

    states = lin.reshape(prior.K, prior.n)
    # one factor and log-det per distinct noise covariance: noise_cov_at
    # returns the same array on every step without an override
    noise: dict[int, tuple] = {}
    jacobians, increments, logdets, covs = [], [], [], []
    for k in range(prior.K):
        row_j, row_inc, row_ld, row_cov = [], [], [], []
        for i, sensor in enumerate(suite.sensors):
            J = sensor.jacobian_at(states[k])
            R = sensor.noise_cov_at(k)
            if id(R) not in noise:
                factor = cho_factor(R, lower=True)
                noise[id(R)] = factor, float(2.0 * np.sum(np.log(np.diagonal(factor[0]))))
            factor, logdet = noise[id(R)]
            try:
                Z = cho_solve(factor, J)
            except ValueError as exc:  # raised for non-finite entries
                raise InvalidParamsError(
                    f"step {k}, sensor {i} ({sensor.name!r}): Jacobian is not finite"
                ) from exc
            inc = J.T @ Z
            row_j.append(J)
            row_inc.append(0.5 * (inc + inc.T))
            row_ld.append(logdet)
            row_cov.append(R)
        jacobians.append(tuple(row_j))
        increments.append(tuple(row_inc))
        logdets.append(tuple(row_ld))
        covs.append(tuple(row_cov))

    precision = prior.matrix if prior.form.is_precision else None
    covariance = prior.matrix if not prior.form.is_precision else None
    if allow_form_conversion:
        if precision is None:
            precision = prior.precision_dense()
        if covariance is None:
            covariance = prior.covariance_dense()

    return OracleContext(
        prior=prior,
        suite=suite,
        linearization=lin,
        prior_entropy=prior_entropy(prior),
        jacobians=tuple(jacobians),
        info_increments=tuple(increments),
        noise_logdets=tuple(logdets),
        noise_covs=tuple(covs),
        precision=precision,
        covariance=covariance,
    )


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
    pivot recursion when the precision is block-tridiagonal.

    Raises:
        WrongFormError: no precision representation on this context.
        NotPositiveDefiniteError: the prior precision is invalid
            (Xi is PSD, so it cannot break positive definiteness).
    """
    P = ctx.precision
    if P is None:
        raise WrongFormError(
            "prior has no precision representation and conversion is disabled"
        )
    _check_schedule(ctx, schedule)
    M = _plus_information(P, _information_blocks(ctx, schedule))
    if isinstance(P, BlockTridiagonalMatrix):
        logdet = logdet_block_tridiagonal_blocks(M, P.offdiag_blocks)
    else:
        logdet = _logdet_dense(M, overwrite=True)  # M is a fresh copy of P
    return 0.5 * ctx.prior.dim * LOG_TWO_PI_E - 0.5 * logdet


def _selected_jacobian(ctx: OracleContext, k: int, chosen: tuple[int, ...]) -> np.ndarray:
    if not chosen:
        return np.zeros((0, ctx.n))
    rows = ctx.jacobians[k]
    return np.vstack([rows[i] for i in chosen])


def _selected_noise(ctx: OracleContext, k: int, chosen: tuple[int, ...]) -> np.ndarray:
    covs = [ctx.noise_covs[k][i] for i in chosen]
    p = sum(c.shape[0] for c in covs)
    R = np.zeros((p, p))
    at = 0
    for c in covs:
        R[at:at + c.shape[0], at:at + c.shape[0]] = c
        at += c.shape[0]
    return R


def _logdet_measurement_cov(diag, offdiag=None) -> float:
    """logdet of Sigma_y with the one-shot jitter retry on near-PSD failures.

    Sigma_y is block-tridiagonal (lists ``diag`` and ``offdiag``) or, with
    ``offdiag`` None, one dense array ``diag``.
    """
    dense = offdiag is None
    try:
        if dense:
            return logdet_dense(diag)
        return logdet_block_tridiagonal_blocks(diag, offdiag)
    except NotPositiveDefiniteError as exc:
        pivot = exc.pivot
        if pivot is None or pivot.size == 0:
            raise
        min_eig = float(np.linalg.eigvalsh(pivot)[0])
        if min_eig < -_JITTER_TOL:
            raise
    if dense:
        return logdet_dense(diag + _JITTER * np.eye(diag.shape[0]))
    jittered = [b + _JITTER * np.eye(b.shape[0]) for b in diag]
    return logdet_block_tridiagonal_blocks(jittered, offdiag)


def conditional_entropy_covariance_form(ctx: OracleContext, schedule: Schedule) -> float:
    """H(x_1:K | schedule) evaluated through the prior covariance.

    Computes the per-step measurement entropy minus the joint measurement
    entropy plus the prior entropy. Both entropy terms carry a
    (2 pi e)^rows factor with the same total number of selected
    measurement rows, so those constants cancel exactly and only the
    log-determinants remain:

        H = 1/2 [sum_k logdet R_k - logdet Sigma_y] + H(x_1:K).

    Sigma_y inherits block-tridiagonal structure from a sparse prior
    covariance and is then evaluated by the pivot recursion; empty steps
    contribute 0 x 0 blocks with logdet 0.

    Raises:
        WrongFormError: no covariance representation on this context.
        NotPositiveDefiniteError: Sigma_y fails to factor by more than
            the jitter policy tolerates.
    """
    S = ctx.covariance
    if S is None:
        raise WrongFormError(
            "prior has no covariance representation and conversion is disabled"
        )
    _check_schedule(ctx, schedule)

    noise_logdet_total = 0.0
    for k, chosen in enumerate(schedule.sets):
        for i in chosen:
            noise_logdet_total += ctx.noise_logdets[k][i]

    C_blocks = [_selected_jacobian(ctx, k, chosen) for k, chosen in enumerate(schedule.sets)]
    R_blocks = [_selected_noise(ctx, k, chosen) for k, chosen in enumerate(schedule.sets)]

    if isinstance(S, BlockTridiagonalMatrix):
        diag = [
            C_blocks[k] @ S.diag_blocks[k] @ C_blocks[k].T + R_blocks[k]
            for k in range(ctx.K)
        ]
        offdiag = [
            C_blocks[k] @ S.offdiag_blocks[k] @ C_blocks[k + 1].T
            for k in range(ctx.K - 1)
        ]
    else:
        n = ctx.n
        rows = sum(b.shape[0] for b in C_blocks)
        CS = np.zeros((rows, ctx.prior.dim))
        at = 0
        for k, Ck in enumerate(C_blocks):
            if Ck.shape[0]:
                CS[at:at + Ck.shape[0]] = Ck @ S[k * n:(k + 1) * n, :]
            at += Ck.shape[0]
        Sy = np.zeros((rows, rows))
        at = 0
        for k, Ck in enumerate(C_blocks):
            if Ck.shape[0]:
                Sy[:, at:at + Ck.shape[0]] = CS[:, k * n:(k + 1) * n] @ Ck.T
            at += Ck.shape[0]
        at = 0
        for k, Rk in enumerate(R_blocks):
            Sy[at:at + Rk.shape[0], at:at + Rk.shape[0]] += Rk
            at += Rk.shape[0]
        diag, offdiag = 0.5 * (Sy + Sy.T), None
    logdet_y = _logdet_measurement_cov(diag, offdiag)
    return 0.5 * (noise_logdet_total - logdet_y) + ctx.prior_entropy


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

    Raises:
        WrongFormError: as the precision form.
    """
    P = ctx.precision
    if P is None:
        raise WrongFormError(
            "prior has no precision representation and conversion is disabled"
        )
    _check_schedule(ctx, schedule)
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
    cap was hit, in which case ``estimate`` is the best iterate found."""

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
    For linear sensors the first step lands exactly on the Gaussian
    posterior mean. Covariance-form priors use the prior's dense precision,
    inverted once per prior (the dense fallback is acceptable here because
    the MAP solve happens once per step, not once per candidate).

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
    precision = (
        prior.matrix if prior.form == PriorForm.PRECISION_SPARSE else prior.precision_dense()
    )

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

    noise_factors = {
        (k, i): cho_factor(suite.sensors[i].noise_cov_at(k), lower=True)
        for k, chosen in enumerate(past_schedule.sets)
        for i in chosen
    }

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
                J = sensor.jacobian_at(states[k])
                r = y[at:at + sensor.output_dim] - sensor.measure_at(states[k])
                at += sensor.output_dim
                try:
                    w_r = cho_solve(noise_factors[(k, i)], r)
                    w_J = cho_solve(noise_factors[(k, i)], J)
                except ValueError as exc:  # raised for non-finite entries
                    raise InvalidParamsError(
                        f"step {k}, sensor {i} ({sensor.name!r}): non-finite residual or Jacobian"
                    ) from exc
                g_k += J.T @ w_r
                xi += J.T @ w_J
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
