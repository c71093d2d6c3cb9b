"""Greedy sensor scheduling with its lazy acceleration and a random baseline.

The outer loop fixes steps one at a time; within a step, sensors are
added one by one, each time picking the candidate whose marginal entropy
reduction is largest. This yields feasible schedules whose cost is within
half of the optimal-to-worst range, because the objective is
non-increasing and supermodular in the selection.

Eager and lazy evaluation are two refresh policies of one selection
loop over a max-heap of candidate gains. After each pick the eager policy
re-evaluates every remaining candidate, at most s_k * m gain evaluations
per step; the lazy policy keeps the stale gains as upper bounds -- valid
by supermodularity -- and refreshes only the top. Candidates are ranked
by their gain on a fixed 1e-12-nat grid and ties are broken toward the
lowest sensor index (a deterministic refinement of the arbitrary
tie-break), so that runs are reproducible, both policies return the same
schedule, and gains that two sources round an ulp apart still tie.

The loop reads its gains from one gain source per run, picked by the
stored prior form. With a sparse precision prior a gain evaluation is
one full oracle call, and the gain its drop from the running base value,
which is cached, never re-evaluated. The scheduler builds no schedule
or pick index itself: ``Schedule`` gives it a run's empty start, the
prefix a single step starts from, and each scored schedule, the fixed
steps with step k's candidate set written in. Every other prior is
read as a covariance (a dense precision through its cached inverse),
and the source keeps the covariance of the steps not yet fixed, given
the picks so far: a step's m candidate gains
1/2 logdet(I + W_i S_kk W_i^T) take one batched quadratic form. Where
every sensor has one output (d = 1, as for every built-in kind) a gain
is 1/2 log(1 + w_i S_kk w_i^T) and a pick a rank-1 update, with no
factorization; otherwise the m d x d matrices take one stacked
Cholesky and a pick a rank-d downdate. A dense prior's is kept
whole, so a greedy run costs one order of K less than a dense oracle
call per candidate. A block-tridiagonal covariance's is kept to step
k's block alone, because conditioning on step k changes only step
k+1's block:
S_{k+1} = Sigma_{k+1,k+1} - Sigma_{k+1,k} W_k^T (I + W_k S_k W_k^T)^-1 W_k Sigma_{k,k+1};
so a gain costs the same at any K and a greedy run is linear in K. A
gain evaluation reads one of those gains; what the trace counts keeps
its meaning either way.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .blocklinalg import (
    BlockTridiagonalMatrix,
    _band_factor,
    _cholesky,
    _cholesky_stack,
    _factor_block,
    _trtrs,
)
from .entropy_oracle import OracleContext, _covariance_blocks, conditional_entropy
from .errors import (
    DimensionMismatchError,
    InvalidParamsError,
    NotPositiveDefiniteError,
    OracleInconsistencyError,
)
from .process_models import PriorForm, _covariance
from .sensing import Schedule, _check_budget, _check_budgets, _check_picks, _is_index

__all__ = [
    "StepTrace",
    "GreedyTrace",
    "greedy_schedule",
    "greedy_step_detailed",
    "random_schedule",
]

# Computed marginal gains are nonnegative in exact arithmetic; values in
# [-GAIN_SLACK, 0] are clamped to 0 and anything below is an oracle bug.
_GAIN_SLACK = 1e-8


@dataclass(frozen=True)
class StepTrace:
    """One step of a greedy run: picks in order, their gains, and gain evaluations."""

    step: int
    chosen: tuple[int, ...]
    gains: tuple[float, ...]
    oracle_calls: int


@dataclass(frozen=True)
class GreedyTrace:
    """Full record of a greedy run.

    Within each step the realized gains are non-increasing in pick order.
    ``oracle_calls`` counts gain evaluations: the eager count is at most
    s_k * m per step; the paper-level guarantee quotes a tighter per-step
    count, but a ground set of size m scanned once per pick costs m - t + 1
    evaluations at pick t, which is what this trace reports. With a sparse
    precision prior each evaluation is one full oracle call; with any other
    prior it reads the candidate's gain from the covariance that the
    downdate source conditions after each pick (step k's block alone for
    a sparse covariance), and all m of a refresh come from one batched
    quadratic form: square roots of 1 + w C w^T for scalar sensors, one
    stacked factorization where a sensor has more than one output.
    """

    steps: tuple[StepTrace, ...]

    @property
    def total_oracle_calls(self) -> int:
        return sum(s.oracle_calls for s in self.steps)

    def picks(self) -> Iterator[tuple[int, int, int, float]]:
        """Yield (step, pick_order, sensor, gain) over all picks."""
        for s in self.steps:
            for order, (sensor, gain) in enumerate(zip(s.chosen, s.gains)):
                yield (s.step, order, sensor, gain)


def _clamp_gain(gain: float, k: int, i: int) -> float:
    if not math.isfinite(gain):
        raise OracleInconsistencyError(f"step {k}, sensor {i}: marginal gain {gain} is not finite")
    if gain < -_GAIN_SLACK:
        raise OracleInconsistencyError(
            f"step {k}, sensor {i}: marginal gain {gain:.3e} below -{_GAIN_SLACK}: "
            "adding a sensor may not increase the conditional entropy"
        )
    return max(gain, 0.0)


class _OracleGains:
    """Sparse precision priors: a gain is the drop between two full oracle calls.

    ``base`` is the entropy of the picks so far, and ``after[i]`` the
    entropy with candidate i added, as last evaluated; a pick's becomes
    the next base, so no value is evaluated twice. ``fixed`` is the
    schedule of the steps before k, under budgets of m, which admit any
    set; a candidate is scored on it with step k's picks, sorted, written
    in by ``Schedule._set_step``, and a step's end writes them into it.
    """

    def __init__(self, ctx, prefix, k):
        self.ctx, self.fixed, self.k = ctx, prefix, k
        self.base = ctx.prior_entropy
        if prefix._picks.max() >= 0:
            self.base = conditional_entropy(ctx, prefix)
        self.chosen: list[int] = []
        self.after: dict[int, float] = {}

    def gain(self, i: int) -> float:
        schedule = self.fixed._set_step(self.k, tuple(sorted(self.chosen + [i])))
        self.after[i] = conditional_entropy(self.ctx, schedule)
        return self.base - self.after[i]

    def pick(self, i: int) -> None:
        self.chosen.append(i)
        self.base = self.after[i]

    def advance(self) -> None:
        self.fixed = self.fixed._set_step(self.k, tuple(sorted(self.chosen)))
        self.k += 1
        self.chosen = []


class _DowndateGains:
    """Every other prior: gains read from S, a covariance of the steps not yet fixed.

    S is conditioned on the picks before k, and C is its step-k block
    given step k's picks so far. Candidate i's gain is
    1/2 logdet(I + W_i C W_i^T), with W_i its whitened rows as the
    context stores them (a zero-padded row adds a unit diagonal entry).
    When every row width d is 1, the factor of 1 + w_i C w_i^T is its
    square root and a pick the rank-1 update C <- C - v^T v with
    v = w_i C / f_i, so a refresh factors nothing; otherwise one stacked
    Cholesky factors all m of them, and a pick conditions C on W_i by a
    rank-d update. Either way a factor that is not positive definite names
    the step and the sensor. When the step ends, its picks, in ascending
    order, condition the block B of the steps after k in one rank update,
    B <- B - G^T W^T (I + W S_kk W^T)^-1 W G with G the coupling S_{k,>k},
    and S becomes B.

    A dense prior's S is the whole trailing covariance: it starts as a
    copy of the prior's (a precision prior's cached dense inverse), B and
    G are views of it, and a prefix is conditioned on step by step the
    same way, so a step's gains do not depend on how its prefix was
    reached. A block-tridiagonal covariance keeps S to step k's n x n
    block, because conditioning on step k changes only step k+1's block:
    B is a copy of Sigma_{k+1,k+1} and G the prior coupling Sigma_{k,k+1},
    which the picks before k leave as it is; so a step costs O(n^3) at any
    K. Its prefix is conditioned on at once:
    S_k = Sigma_kk - X^T X with X = L_{k-1}^-1 W_{k-1} Sigma_{k-1,k}, where
    L_{k-1} is the last diagonal block of the band factor of the prefix's
    I + W Sigma W^T.
    """

    def __init__(self, ctx, prefix, k):
        self.ctx, self.k, self.chosen = ctx, 0, []
        S = _covariance(ctx.prior)
        self.band = S if isinstance(S, BlockTridiagonalMatrix) else None
        if self.band is not None:
            self.k = k
            self.S = self._prefix_block(prefix)
        else:
            self.S = np.array(S)
            for chosen in prefix.sets[:k]:
                self.chosen = list(chosen)
                self.advance()
        self._begin()

    def _prefix_block(self, prefix) -> np.ndarray:
        """Sigma_kk of a block-tridiagonal covariance given the picks ``prefix``
        fixes before k, from one band factorization of the prefix."""
        k, band = self.k, self.band
        if prefix._picks.max() < 0:
            return band.diag_blocks[k]
        W, diag, coupling = _covariance_blocks(self.ctx, prefix._picks[:, :k])
        try:
            factor = _band_factor(diag, coupling)
        except NotPositiveDefiniteError as exc:
            j = exc.block_index
            raise NotPositiveDefiniteError(
                f"step {j}, sensors {list(prefix.sets[j])}: I + W S W^T is not positive definite",
                exc.pivot, j) from exc
        X = _trtrs(_factor_block(factor, k - 1), W[k - 1] @ band.offdiag_blocks[k - 1])
        return band.diag_blocks[k] - X.T @ X

    def _begin(self) -> None:
        n = self.ctx.n
        self.C = self.S[:n, :n].copy()
        self.factors = self.gains = None

    def gain(self, i: int) -> float:
        if self.gains is None:
            k, sensors = self.k, self.ctx.suite.sensors
            W = self.ctx.whitened_jacobians[k]
            A = W @ self.C @ W.swapaxes(1, 2)
            d = A.shape[1]
            a = A.reshape(len(A), -1)[:, ::d + 1] if d > 1 else A.reshape(-1)  # diagonals
            a += 1.0
            if self.chosen:  # never scored again: rounding may leave them indefinite
                A[self.chosen] = np.eye(d) if d > 1 else 1.0
            # one output per sensor: each factor is a square root. A pivot
            # that is not positive (or NaN) takes the stacked path, which
            # names the failing sensor (or passes the NaN on to the gain)
            if d == 1 and a.min() > 0.0:
                self.factors = np.sqrt(a)
                gains = np.log(self.factors)
            else:
                self.factors = _cholesky_stack(A, k, lambda j: (
                    f"step {k}, sensor {j} ({sensors[j].name!r}): I + W S W^T"))
                gains = np.log(np.diagonal(self.factors, 0, 1, 2)).sum(axis=1)
            self.gains = gains.tolist()
        return self.gains[i]

    def pick(self, i: int) -> None:
        x, f = self.ctx.whitened_jacobians[self.k, i] @ self.C, self.factors[i]
        if f.ndim:
            V = _trtrs(f, x)
        else:  # rounded as dtrtrs rounds: one column divided, a row by the reciprocal
            V = x / f if x.size == 1 else x * (1.0 / f)
        self.C -= V.T @ V
        self.chosen.append(i)
        self.gains = None

    def advance(self) -> None:
        k, n, S = self.k, self.ctx.n, self.S
        if self.band is None:
            B, G = S[n:, n:], S[:n, n:]
        else:
            B, G = self.band.diag_blocks[k + 1].copy(), self.band.offdiag_blocks[k]
        if self.chosen:
            W = self.ctx.whitened_jacobians[k, sorted(self.chosen)].reshape(-1, n)
            M = W @ S[:n, :n] @ W.T
            M.flat[::len(M) + 1] += 1.0
            L = _cholesky(M, f"step {k}, sensors {sorted(self.chosen)}: I + W S W^T")
            V = _trtrs(L, W @ G)
            B -= V.T @ V
        self.S, self.k, self.chosen = B, k + 1, []
        self._begin()


def _gain_source(ctx, prefix, k):
    """Gains at step k given the picks the schedule ``prefix`` fixes before it,
    by the stored prior form. The prefix's steps from k on are empty, and
    its budgets are m."""
    if ctx.prior.form is PriorForm.PRECISION_SPARSE:
        return _OracleGains(ctx, prefix, k)
    return _DowndateGains(ctx, prefix, k)


def _select(source, k, s_k, lazy):
    """Greedy selection at step k from a gain source; returns its trace.

    Candidates sit in a heap ordered by their gain on a fixed 1e-12-nat
    grid, largest first, then by sensor index: gains that differ only by
    rounding tie, and the lowest index wins, whichever source computed
    them. The integer key is monotone in the gain, so a stale gain still
    bounds its key. The trace keeps each pick's unrounded gain. After each
    pick the eager policy re-evaluates every remaining candidate; the lazy
    policy marks them stale and re-evaluates a stale entry only when it
    reaches the top, re-inserting it unless it still beats the next one.
    The step stops at its first non-positive gain.
    """
    calls = 0
    chosen: list[int] = []
    gains: list[float] = []

    def entry(i):
        nonlocal calls
        calls += 1
        gain = _clamp_gain(source.gain(i), k, i)
        return (-int(gain * 1e12 + 0.5), i, gain)

    heap = [entry(i) for i in range(source.ctx.suite.m)] if s_k else []
    heapq.heapify(heap)
    stale: set[int] = set()
    while heap and len(chosen) < s_k:
        top = heapq.heappop(heap)
        if top[1] in stale:
            stale.remove(top[1])
            top = entry(top[1])
            if heap and top > heap[0]:
                heapq.heappush(heap, top)
                continue
        _, i, gain = top
        if gain <= 0.0:
            break
        chosen.append(i)
        gains.append(gain)
        source.pick(i)
        if lazy:
            stale = {j for _, j, _ in heap}
        elif len(chosen) < s_k:
            heap = [entry(j) for j in sorted(j for _, j, _ in heap)]
            heapq.heapify(heap)
    return StepTrace(step=k, chosen=tuple(chosen), gains=tuple(gains), oracle_calls=calls)


def greedy_step_detailed(
    ctx: OracleContext,
    fixed_prefix: Schedule,
    k: int,
    s_k: int,
    *,
    lazy: bool = False,
) -> StepTrace:
    """Run one within-step greedy selection and return its full trace.

    ``fixed_prefix`` must cover steps 0..k-1; its sets at step k and
    beyond are ignored. A non-empty prefix adds one evaluation to the
    count: the oracle call that gives the base value with a sparse
    precision prior; one band factorization of the prefix's
    I + W Sigma W^T, which conditions step k's block, with a sparse
    covariance; the downdates by the prefix's picks, step by step, with a
    dense prior.
    """
    if not 0 <= k < ctx.K:
        raise DimensionMismatchError(f"step {k} outside horizon of {ctx.K}")
    s_k = _check_budget(k, s_k, ctx.suite.m)
    if fixed_prefix.num_steps < k:
        raise DimensionMismatchError(
            f"prefix covers {fixed_prefix.num_steps} steps, step {k} needs {k}"
        )
    prefix = fixed_prefix._head(k, (ctx.suite.m,) * ctx.K)
    _check_picks(prefix._picks, ctx.K, ctx.suite.m)
    trace = _select(_gain_source(ctx, prefix, k), k, s_k, lazy)
    return replace(trace, oracle_calls=trace.oracle_calls + int(prefix._picks.max() >= 0))


def greedy_schedule(
    ctx: OracleContext,
    budgets: Sequence[int],
    *,
    lazy: bool = False,
) -> tuple[Schedule, GreedyTrace]:
    """Full-horizon greedy schedule under per-step budgets.

    Steps are fixed in order 0..K-1; each step's selection conditions on
    everything already fixed. The returned schedule always satisfies
    |S_k| <= budgets[k], and its cost never exceeds the empty schedule's.

    Args:
        budgets: K per-step selection budgets, each <= m.
        lazy: use the lazy-evaluation variant (identical output).

    Returns:
        (schedule, trace) with per-step picks, gains and call counts.
    """
    budgets = _check_budgets(budgets, ctx.K, ctx.suite.m)

    source = _gain_source(ctx, Schedule._blank((ctx.suite.m,) * ctx.K), 0)
    steps: list[StepTrace] = []
    for k in range(ctx.K):
        if k:
            source.advance()
        steps.append(_select(source, k, budgets[k], lazy))
    sets = tuple(tuple(sorted(step.chosen)) for step in steps)
    return Schedule(sets=sets, budgets=budgets), GreedyTrace(steps=tuple(steps))


def random_schedule(budgets: Sequence[int], m: int, seed: int) -> Schedule:
    """Uniformly random feasible schedule: s_k distinct sensors per step.

    Raises:
        InvalidParamsError: if ``seed`` is not a non-negative integer (a
            bool is not one).
    """
    if not _is_index(seed) or seed < 0:
        raise InvalidParamsError(f"seed: must be a non-negative integer, got {seed!r}")
    budgets = tuple(_check_budget(k, b, m) for k, b in enumerate(budgets))
    rng = np.random.default_rng(seed)
    sets = tuple(
        tuple(sorted(rng.choice(m, size=b, replace=False).tolist())) for b in budgets
    )
    return Schedule(sets=sets, budgets=budgets)
