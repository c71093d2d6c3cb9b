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
with the noise factor L that each sensor computes once when built, as two
(step, sensor) stacks; they are the only copy. Every evaluation gathers
the selected sensors' blocks from them with one fancy index: the
schedule's own (q, K) pick index, column k step k's sorted set padded
with -1 (q the most picks at any step), which a schedule builds once and
the greedy scheduler builds column by column. One reduction over that
index checks it against the horizon and the suite. The information form
adds each step's sum, taken in pick order, to the prior precision's
diagonal blocks, and the covariance form multiplies the gathered rows
into the prior covariance. So with a block-tridiagonal prior one
evaluation (the greedy scheduler makes thousands) is a few batched array
operations over the K steps, with no Python pass over the schedule's
sets, and one banded log-determinant of K blocks. Neither formula adds
jitter: every eigenvalue of I + W Sigma W^T is at least 1 in exact
arithmetic, so a failed factorization is reported, never retried.
Contexts are immutable and evaluations are pure, so they may be called
concurrently.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .blocklinalg import (
    BlockTridiagonalMatrix,
    _inverse_spd,
    _band_solve,
    _cholesky,
    _logdet_dense,
    _potrs,
    _trtrs,
    logdet_block_tridiagonal_blocks,
)
from .errors import DimensionMismatchError, InvalidParamsError, NotPositiveDefiniteError
from .process_models import LOG_TWO_PI_E, GaussianPrior, _covariance, _precision, prior_entropy
from .sensing import Schedule, SensorSuite, _check_picks, _is_index

__all__ = [
    "OracleContext",
    "make_context",
    "conditional_entropy",
    "conditional_entropy_precision_form",
    "conditional_entropy_covariance_form",
    "posterior_covariance",
    "map_linearization",
    "MapEstimate",
]


@dataclass(frozen=True, eq=False)
class OracleContext:
    """Immutable evaluation context: every sensor linearized at every step.

    Built from a prior, a suite and ``linearization``, the length-nK point
    of the Jacobians (the prior mean when None: pure planning mode), kept
    as a read-only copy; the constructor derives every other field.
    ``whitened_jacobians`` is the (K, m, d, n) stack of every sensor's
    Jacobian at every step's state, whitened by its noise factor:
    ``whitened_jacobians[k, i]`` is W = L^-1 J with R = L L^T,
    zero-padded to the largest sensor output dimension d, so sensor i's
    rows beyond its ``output_dim`` are zero. ``info_increments`` is the
    (K, m, n, n) stack of the information W^T W = J^T R^-1 J,
    symmetrized, and ``prior_entropy`` is H(x) of the prior. Both stacks
    are read-only views of stacks with one more sensor slot, m, that is
    all zeros: the filler of a step with fewer picks than another.

    Raises:
        InvalidParamsError: the linearization is not finite, a sensor
            cannot be evaluated at a step's state (a built-in one at its
            anchor), or a Jacobian is not finite; the last two name the
            step and the sensor.
        DimensionMismatchError: the suite's state dimension is not the
            prior's n, the linearization is not of length nK, or a sensor
            overrides its noise at a step beyond the horizon (names the
            sensor and the step).
    """

    prior: GaussianPrior
    suite: SensorSuite
    linearization: np.ndarray | None = None
    whitened_jacobians: np.ndarray = field(init=False)
    prior_entropy: float = field(init=False)
    info_increments: np.ndarray = field(init=False)

    def __post_init__(self):
        lin = _checked_point(self.prior, self.suite, self.linearization, "linearization")
        lin.setflags(write=False)
        object.__setattr__(self, "linearization", lin)
        K, n, sensors = self.K, self.n, self.suite.sensors
        rows = np.zeros((K, len(sensors) + 1, max((s.output_dim for s in sensors), default=0), n))
        states = lin.reshape(K, n)
        for i, sensor in enumerate(sensors):
            # one Jacobian call over all K states, then one solve per noise
            # factor over the side-by-side columns of the steps that share it.
            # LAPACK solves a single column by another kernel, which divides
            # where the many-column one multiplies by a reciprocal, so with
            # n = 1 each step keeps a solve of its own, and its bits.
            J = _naming_step(sensor.jacobian_at, states, range(K), i, sensor)
            d = sensor.output_dim
            # the steps that no override replaces share the sensor's own factor
            overrides = sensor.noise_overrides or {}
            shared = ([[k for k in range(K) if k not in overrides]] + [[k] for k in overrides]
                      if n > 1 else [[k] for k in range(K)])
            for ks in filter(None, shared):
                B = _trtrs(sensor.noise_factor_at(ks[0]), J[ks].transpose(1, 0, 2).reshape(d, -1))
                rows[ks, i, :d] = B.reshape(d, len(ks), n).transpose(1, 0, 2)
        finite = np.isfinite(rows).all(axis=(2, 3))
        if not finite.all():
            k, i = np.argwhere(~finite)[0]
            raise InvalidParamsError(
                f"step {k}, sensor {i} ({sensors[i].name!r}): Jacobian is not finite"
            )
        # zero-padded rows add exact zeros: each product equals the unpadded W^T W
        increments = np.swapaxes(rows, 2, 3) @ rows
        increments = 0.5 * (increments + np.swapaxes(increments, 2, 3))
        for name, padded, stack in (("whitened_jacobians", "_rows", rows),
                                    ("info_increments", "_increments", increments)):
            stack.setflags(write=False)
            object.__setattr__(self, padded, stack)
            object.__setattr__(self, name, stack[:, :-1])
        object.__setattr__(self, "prior_entropy", prior_entropy(self.prior))

    @property
    def n(self) -> int:
        return self.prior.n

    @property
    def K(self) -> int:
        return self.prior.K


def _checked_point(prior: GaussianPrior, suite: SensorSuite, point, name: str) -> np.ndarray:
    """A fresh float copy of ``point``, a finite length-nK state (the prior
    mean when None), once ``suite`` is checked to fit ``prior``: its state
    dimension is n and no sensor overrides its noise at a step >= K."""
    if suite.state_dim != prior.n:
        raise DimensionMismatchError(f"suite state_dim {suite.state_dim} != prior n {prior.n}")
    for i, sensor in enumerate(suite.sensors):
        for k in sensor.noise_overrides or ():
            if k >= prior.K:
                raise DimensionMismatchError(
                    f"sensor {i} ({sensor.name!r}): noise override at step {k} "
                    f"is beyond the horizon K={prior.K}"
                )
    x = np.array(prior.mean if point is None else point, dtype=float)
    if x.shape != (prior.dim,):
        raise DimensionMismatchError(f"{name} has shape {x.shape}, expected ({prior.dim},)")
    if not np.isfinite(x).all():
        raise InvalidParamsError(f"{name} is not finite")
    return x


def make_context(
    prior: GaussianPrior,
    suite: SensorSuite,
    linearization: np.ndarray | None = None,
) -> OracleContext:
    """``OracleContext(prior, suite, linearization)``: linearize every
    sensor at every step, at ``linearization`` or the prior mean."""
    return OracleContext(prior, suite, linearization)


def _naming_step(evaluate, X: np.ndarray, steps, i: int, sensor):
    """``evaluate(X)`` for sensor i's (P, n) stack of states at ``steps``.
    A sensor error on the stack is re-raised as that of its first failing
    state, evaluated alone, naming the state's step and the sensor."""
    try:
        return evaluate(X)
    except InvalidParamsError:
        for k, x in zip(steps, X):
            try:
                evaluate(x[None])
            except InvalidParamsError as exc:
                raise InvalidParamsError(f"step {k}, sensor {i} ({sensor.name!r}): {exc}") from exc
        raise


def _gathered(stack: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """(len(stack), q, ...) entries of a padded stack at a pick index, in pick order.

    Row j of ``stack``, shape (len(stack), m + 1, ...), is gathered at
    column j of ``picks``, a (q, len(stack)) pick index (``_pick_index``)
    whose -1 filler reads the stack's zero slot m. The gather is one fancy
    index however many rows there are. It makes q contiguous
    (len(stack), ...) slabs, the t-th holding every row's t-th pick, and
    returns them as a (len(stack), q, ...) view.
    """
    return stack[np.arange(len(stack)), picks].swapaxes(0, 1)


def _pick_sums(stack: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """(len(stack), ...) sums of each row's gathered entries, added left to right
    in pick order: one ``np.add`` of whole slabs per pick after the first.
    ``.sum(axis=1)`` adds them in that order too, except where a slab is a
    single number (one row of 1 x 1 blocks): NumPy sums those pairwise."""
    return functools.reduce(np.add, _gathered(stack, picks).swapaxes(0, 1))


def _plus_blockdiag(P: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """P + blockdiag(blocks) as a fresh C-ordered array, for a (K, a, b) stack."""
    K, a, b = blocks.shape
    M = np.array(P, order="C")
    diagonal = np.einsum("kakb->kab", M.reshape(K, a, K, b))  # a view of M's K blocks
    diagonal += blocks
    return M


def conditional_entropy_precision_form(ctx: OracleContext, schedule: Schedule) -> float:
    """H(x_1:K | schedule) evaluated through the prior precision.

    Adds the block-diagonal measurement information Xi to the precision
    and returns -1/2 logdet(Xi + P) + (nK/2) log(2 pi e). Xi's blocks are
    summed over the picks gathered from the context's increment stack.
    When the precision is block-tridiagonal, the K diagonal blocks go to
    one banded log-determinant, else P + Xi to one dense one; a
    covariance prior is read through its cached dense precision.

    Raises:
        NotPositiveDefiniteError: the prior precision is invalid
            (Xi is PSD, so it cannot break positive definiteness).
    """
    picks = schedule._picks
    _check_picks(picks, ctx.K, ctx.suite.m)
    P = _precision(ctx.prior)
    # a step's increments are summed in pick order, then added to its prior block
    xi = _pick_sums(ctx._increments, picks)
    if isinstance(P, BlockTridiagonalMatrix):
        logdet = logdet_block_tridiagonal_blocks(P.diag_blocks + xi, P.offdiag_blocks)
    else:
        logdet = _logdet_dense(_plus_blockdiag(P, xi))
    return 0.5 * ctx.prior.dim * LOG_TWO_PI_E - 0.5 * logdet


def _covariance_blocks(ctx: OracleContext, picks: np.ndarray):
    """I + W Sigma W^T over the first k steps of a block-tridiagonal prior
    covariance, for the (q, k) pick index ``picks``.

    Returns W, the steps' gathered rows, (k, q d, n) and zero-padded, and
    the (k, q d, q d) diagonal and (k - 1, q d, q d) coupling block stacks.
    A zero row adds a decoupled unit diagonal entry, so the padding leaves
    the log-det, and every pivot's, as it is.
    """
    S, k = ctx.prior.matrix, picks.shape[1]
    W = _gathered(ctx._rows[:k], picks).reshape(k, -1, ctx.n)
    Wt = np.swapaxes(W, 1, 2)
    diag = W @ S.diag_blocks[:k] @ Wt
    diag[:, range(W.shape[1]), range(W.shape[1])] += 1.0
    return W, diag, W[:-1] @ S.offdiag_blocks[:k - 1] @ Wt[1:]


def conditional_entropy_covariance_form(ctx: OracleContext, schedule: Schedule) -> float:
    """H(x_1:K | schedule) evaluated through the prior covariance.

    With W the whitened Jacobians of the selected sensors (block-diagonal
    over steps), returns

        H = H(x_1:K) - 1/2 logdet(I + W Sigma W^T),

    which equals the measurement-entropy form 1/2 [sum_k logdet R_k -
    logdet Sigma_y] + H(x_1:K) with Sigma_y = R + C Sigma C^T. I + W Sigma
    W^T inherits block-tridiagonal structure from a sparse prior
    covariance; its K diagonal and K - 1 coupling blocks are then built
    by batched products over the steps' gathered rows, zero-padded to a
    common size, and go to one banded log-determinant. A dense prior
    covariance takes the same padded rows as one block-diagonal W and one
    dense log-determinant; a zero row adds a decoupled unit entry, so the
    padding leaves either log-det as it is. No jitter is applied: the
    eigenvalues are at least 1 in exact arithmetic. A precision prior is
    read through its cached dense covariance.

    Raises:
        NotPositiveDefiniteError: I + W Sigma W^T fails to factor, which
            takes an invalid prior or a rank-deficient W whose rows are
            so large (tiny noise) that the identity is lost to rounding.
    """
    picks = schedule._picks
    _check_picks(picks, ctx.K, ctx.suite.m)
    S = _covariance(ctx.prior)
    if isinstance(S, BlockTridiagonalMatrix):
        logdet = logdet_block_tridiagonal_blocks(*_covariance_blocks(ctx, picks)[1:])
    else:
        # each step's picked rows, (K, q d, n), zero-padded; a zero row adds
        # a decoupled unit diagonal entry, which leaves the log-det as it is
        W = _gathered(ctx._rows, picks).reshape(ctx.K, -1, ctx.n)
        Wt = np.swapaxes(W, 1, 2)
        # W Sigma, one step's rows times Sigma's row block at a time; then
        # its column block k times step k's rows, for each step
        WS = (W @ S.reshape(ctx.K, ctx.n, -1)).reshape(-1, ctx.prior.dim)
        Sy = WS.reshape(len(WS), ctx.K, ctx.n).swapaxes(0, 1) @ Wt
        Sy = Sy.swapaxes(0, 1).reshape(len(WS), len(WS))
        Sy[np.diag_indices_from(Sy)] += 1.0
        logdet = _logdet_dense(0.5 * (Sy + Sy.T))
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
    picks = schedule._picks
    _check_picks(picks, ctx.K, ctx.suite.m)
    P = _precision(ctx.prior)
    if isinstance(P, BlockTridiagonalMatrix):
        P = P.assemble()
    xi = _pick_sums(ctx._increments, picks)
    return _inverse_spd(_plus_blockdiag(P, xi), "posterior information matrix")


@dataclass(frozen=True)
class MapEstimate:
    """MAP result. ``converged`` is False when the iteration cap was hit or
    a line search stalled; ``estimate`` is then the last accepted iterate,
    the one with the lowest negative log posterior so far."""

    estimate: np.ndarray
    converged: bool
    iterations: int


# Armijo backtracking: the sufficient-decrease constant, and the smallest
# step fraction tried before a search counts as stalled
_ARMIJO_C = 1e-4
_MIN_STEP = 2.0 ** -16
# a Newton decrement at most this times |f| is below what f can resolve
_FLAT_SLOPE = 8 * np.finfo(float).eps


def map_linearization(
    prior: GaussianPrior,
    suite: SensorSuite,
    past_schedule: Schedule | None = None,
    measurements: list[np.ndarray | None] | None = None,
    *,
    tol: float = 1e-8,
    max_iter: int = 50,
    initial: np.ndarray | None = None,
) -> MapEstimate:
    """MAP estimate of the batch state given realized past measurements.

    With no measurements (pure planning mode) the prior mean is returned
    unchanged. Otherwise runs damped Newton on the negative log posterior

        f(x) = 1/2 (x - mu)^T P (x - mu) + 1/2 sum_j r_j^T R_j^-1 r_j,

    r_j = y_j - h_j(x), starting from ``initial`` (the prior mean when
    None). Each iteration solves

        (P + Xi - C) delta = C^T R^-1 r - P (x - mu),

    where Xi = C^T R^-1 C is the Gauss-Newton information and C is the
    residual curvature: per step, the sum over picked outputs of
    w_j times the output's second derivative, w = R^-1 r. C is
    block-diagonal, so the system is as banded as P + Xi. The built-in
    sensor kinds give their second derivatives; any other sensor adds
    nothing to C, and where P + Xi - C is not positive definite the
    Gauss-Newton system P + Xi is solved instead. Near the answer the
    residual curvature is what Gauss-Newton's linear rate leaves out, and
    with it the rate is quadratic.

    A full step is taken without a search and ends the solve, converged,
    when ||delta||_inf <= tol, or when its slope grad^T delta, the Newton
    decrement lambda^2 = grad^T (P + Xi - C)^-1 grad, is at most
    8 eps |f(x)| (eps the float64 machine epsilon): f cannot resolve a
    decrease that small, so a line search could only stall at the answer.
    The first tests the step and not the objective: near the answer the
    objective changes by about ||delta||^2, which falls below its own
    rounding before delta reaches a small tol. Any other step x + t delta
    passes Armijo backtracking on f: t = 1, 1/2, 1/4, ... until
    f(x + t delta) <= f(x) - 1e-4 t grad^T delta, where grad = -f'(x).
    The accepted trial's sensor evaluation is the next iteration's. A
    search that finds no such t down to 2^-16 has stalled: the solve ends
    there with ``converged=False`` and the last accepted iterate, as it
    does after ``max_iter`` iterations. A step cut that far means the
    local model is far off; so it is where f falls toward a bearing's
    anchor, at which any angle is read exactly, and a search without a
    floor walks the state onto the singular point. For linear sensors the
    first step lands exactly on the Gaussian posterior mean.

    Each sensor's residual, Jacobian and second derivatives are whitened
    by its noise factor L (R = L L^T), so the C^T R^-1 terms and the
    curvature are products of whitened rows. An angle's residual y - h
    that falls outside (-pi, pi] (a bearing read across the cut at +-pi)
    is shifted by 2 pi; every other residual is the plain difference.
    Covariance-form priors use the prior's dense precision, inverted once
    per prior (the dense fallback is acceptable here because the MAP
    solve happens once per step, not once per candidate).

    An evaluation is batched over the picks. Each pick's whitened
    L^-1 [r | J | H], the residual, the Jacobian's n columns and the n^2
    second derivatives of each output (zero for a sensor that gives
    none), is one transposed (1 + n + n^2) x d slot of a stack,
    zero-padded to the suite's largest output dimension d as
    ``make_context`` pads its rows. The picks that share a noise factor
    (one sensor's) take adjacent slots, and each such group makes one
    value-and-derivatives call (``Sensor._measure_and_jacobian``) and one
    in-place triangular solve. Information, gradient and curvature are
    then products of whitened rows: one batched product gives every
    pick's information and another its gradient and curvature, once per
    iteration; one reduction sums each per step in pick order, and a
    step's sums go into the diagonal blocks of the prior precision. The
    arguments, schedule and measurements are checked before the first
    iteration.

    Args:
        past_schedule: selections that produced the measurements; steps
            with no measurements must have empty sets.
        measurements: per-step stacked measurement vectors aligned with
            ``past_schedule`` (None for empty steps).
        tol: convergence threshold on ||delta||_inf, a finite number >= 0.
        max_iter: iteration cap, an integer >= 1.
        initial: the first iterate, a finite vector of length
            ``prior.dim``; e.g. an earlier estimate, when new measurements
            refine it. With no measurements it is checked, then unused.

    Raises:
        InvalidParamsError: ``tol`` or ``max_iter`` is out of range,
            ``initial`` is not finite, a sensor cannot be evaluated at an
            iterate or a trial point (a built-in one at its anchor; names
            the step and the sensor), or a residual or derivative is not
            finite (names the first such pick by step and sensor).
        NotPositiveDefiniteError: the Gauss-Newton system P + Xi is not
            positive definite, e.g. at a state nearly on a bearing's
            anchor; names the iteration and the step whose pivot fails.
        DimensionMismatchError: the suite does not fit the prior (its
            state dimension is not n, or a sensor overrides its noise at a
            step beyond the horizon), or ``initial``, the schedule or the
            measurements do not fit the prior, the suite or each other,
            e.g. a step with picks and no measurement, or a measurement at
            a step with no picks.
    """
    if not _is_index(max_iter) or max_iter < 1:
        raise InvalidParamsError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    if not isinstance(tol, numbers.Real) or isinstance(tol, bool) or not 0 <= tol < math.inf:
        raise InvalidParamsError(f"tol must be a finite number >= 0, got {tol!r}")
    x = _checked_point(prior, suite, initial, "initial")
    if past_schedule is None or measurements is None:
        return MapEstimate(estimate=np.array(prior.mean), converged=True, iterations=0)
    _check_picks(past_schedule._picks, prior.K, suite.m)
    if len(measurements) != prior.K:
        raise DimensionMismatchError(
            f"got {len(measurements)} measurement entries, expected {prior.K}"
        )

    n, K, sensors = prior.n, prior.K, suite.sensors
    sets = past_schedule.sets
    # one group per noise factor, in order of first use: its sensor's
    # index, the factor, and each pick as (step, place in the step, values)
    groups: dict[int, tuple[int, np.ndarray, list]] = {}
    for k, chosen in enumerate(sets):
        if not chosen:
            if measurements[k] is not None:
                raise DimensionMismatchError(f"step {k} has a measurement but selects no sensor")
            continue
        if measurements[k] is None:
            raise DimensionMismatchError(f"step {k} selects sensors {chosen} but has no measurement")
        dims = [sensors[i].output_dim for i in chosen]
        y = np.asarray(measurements[k], dtype=float).reshape(-1)
        if y.shape != (sum(dims),):
            raise DimensionMismatchError(
                f"step {k} measurement has shape {y.shape}, expected ({sum(dims)},)"
            )
        for j, (i, e, end) in enumerate(zip(chosen, dims, itertools.accumulate(dims))):
            L = sensors[i].noise_factor_at(k)
            groups.setdefault(id(L), (i, L, []))[2].append((k, j, y[end - e:end]))
    if not groups:
        return MapEstimate(estimate=np.array(prior.mean), converged=True, iterations=0)

    # a group's picks take adjacent slots of the stack; the stack's last
    # slot stays zero, the filler of a step with fewer picks. A group's
    # factor is padded to d x d with a unit diagonal, which keeps the
    # padding zero. slots[j, k]: the slot of step k's j-th pick, or the
    # zero slot
    d = max(s.output_dim for s in sensors)
    num_picks = sum(len(picks) for _, _, picks in groups.values())
    stack = np.zeros((num_picks + 1, 1 + n + n * n, d))
    slots = np.full((max(map(len, sets)), K), num_picks)
    # (sensor index, padded factor, its slots, its picks' steps and values)
    factors = []
    start = 0
    for i, L, picks in groups.values():
        group = slice(start, start + len(picks))
        start = group.stop
        steps, places, values = zip(*picks)
        slots[places, steps] = range(group.start, group.stop)
        padded = np.eye(d)
        padded[:len(L), :len(L)] = L
        factors.append((i, padded, group, np.array(steps), np.array(values)))

    mu = np.array(prior.mean)
    precision = _precision(prior)
    banded = isinstance(precision, BlockTridiagonalMatrix)

    def evaluate(x: np.ndarray) -> tuple[float, np.ndarray]:
        """Fill the stack at x; return f(x) and P (x - mu)."""
        states = x.reshape(K, n)
        for i, L, group, steps, y in factors:
            sensor = sensors[i]
            h, J, H = _naming_step(sensor._measure_and_jacobian, states[steps], steps, i, sensor)
            e = sensor.output_dim
            sensor._residual(y, h, out=stack[group, 0, :e])
            stack[group, 1:n + 1, :e] = J.swapaxes(1, 2)
            if H is not None:
                stack[group, n + 1:, :e] = H.reshape(len(H), e, n * n).swapaxes(1, 2)
            _trtrs(L, stack[group].reshape(-1, d).T, overwrite=True)
        if not np.isfinite(stack).all():
            # the first pick with a non-finite entry, by step, then by place in the step
            k, j = np.argwhere(~np.isfinite(stack).all(axis=(1, 2))[slots].T)[0]
            i = sets[k][j]
            raise InvalidParamsError(f"step {k}, sensor {i} ({sensors[i].name!r}): "
                                     "non-finite residual, Jacobian or second derivative")
        dev = x - mu
        prior_term = precision.matvec(dev) if banded else precision @ dev
        residuals = stack[:, 0]
        return 0.5 * (dev @ prior_term + np.vdot(residuals, residuals)), prior_term

    f, prior_term = evaluate(x)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        rows = stack[:, 1:n + 1]
        infos = rows @ rows.swapaxes(1, 2)
        # each slot's J^T r (its gradient) over its sum_o r_o H_o (its curvature)
        products = stack[:, 1:] @ stack[:, :1].swapaxes(1, 2)
        # each step's picks summed in pick order, one step per column of slots
        xi = infos[slots].sum(axis=0)
        xi = 0.5 * (xi + xi.transpose(0, 2, 1))
        grad = products[slots, :n].sum(axis=0).reshape(-1) - prior_term
        curvature = products[slots, n:].sum(axis=0).reshape(K, n, n)
        delta = _newton_step(precision, xi, curvature, grad, iterations)
        # grad is -f'(x), so grad^T delta is the decrease rate along delta
        slope = grad @ delta
        if np.abs(delta).max() <= tol or slope <= _FLAT_SLOPE * abs(f):
            x = x + delta
            converged = True
            break
        t = 1.0
        while True:
            trial = x + t * delta
            f_trial, trial_term = evaluate(trial)
            if f_trial <= f - _ARMIJO_C * t * slope:
                break
            t *= 0.5
            if t < _MIN_STEP:
                return MapEstimate(estimate=x, converged=False, iterations=iterations)
        x, f, prior_term = trial, f_trial, trial_term

    return MapEstimate(estimate=x, converged=converged, iterations=iterations)


def _newton_step(precision, xi: np.ndarray, curvature: np.ndarray, grad: np.ndarray,
                 iteration: int) -> np.ndarray:
    """delta solving (P + Xi - C) delta = grad, or (P + Xi) delta = grad
    where P + Xi - C is not positive definite; Xi and C are (K, n, n)
    stacks of diagonal blocks. Raises NotPositiveDefiniteError naming the
    MAP iteration and the step of the failing pivot, banded or dense, when
    P + Xi is not positive definite either."""

    def solve(blocks):
        if isinstance(precision, BlockTridiagonalMatrix):
            return _band_solve(precision.diag_blocks + blocks, precision.offdiag_blocks, grad)
        return _potrs(_cholesky(_plus_blockdiag(precision, blocks), block_dim=blocks.shape[1]),
                      grad)

    # each failure is dropped as its handler ends: one kept past it would
    # hold the frames of its traceback, and their arrays, in a cycle
    try:
        return solve(xi - curvature)
    except NotPositiveDefiniteError:
        pass
    try:
        return solve(xi)
    except NotPositiveDefiniteError as exc:
        raise NotPositiveDefiniteError(
            f"MAP iteration {iteration}, step {exc.block_index}: "
            "Gauss-Newton system P + Xi is not positive definite",
            exc.pivot, exc.block_index,
        ) from exc
