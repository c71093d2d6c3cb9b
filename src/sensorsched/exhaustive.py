"""Brute-force enumeration of feasible schedules on small instances.

Provides certified ground truth -- the optimal cost OPT and the worst
cost MAX over every schedule with |S_k| <= s_k -- and the approximation
ratio of a candidate schedule against them. This module exists to
certify the greedy scheduler, not to compete with it; enumeration is
capped and raises rather than running forever.

Every schedule's cost is -1/2 logdet(P + blockdiag(Xi)) + (nK/2) log(2 pi e)
with P the prior precision (the stored one assembled, or a covariance
prior's cached dense inverse). Schedules that share a prefix of steps
share the leading block-Cholesky factors of that matrix, so enumeration
is a depth-first walk over steps, in the same lexicographic order as the
schedules: each node holds the trailing Schur complement its prefix
leaves (Xi only adds to diagonal blocks, so it enters one step at a
time), takes that step's pivot base from it once and factors base + Xi_s
for every candidate set s of the step in one stacked Cholesky. The
children of a node at step K-2 share their last step's stacks too, up to
_STACK pivots per stack. A schedule thus costs a fraction of one full
oracle call instead of one.
OPT, the first argmin of the walk's costs (ties go to the lowest schedule
in the order), is re-evaluated by the reference oracle,
``conditional_entropy``; MAX is H(x), as the objective is monotone. A walk
cost off OPT's reference, or above H(x), by more than EQUAL_TOL relative
raises ``OracleInconsistencyError``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blocklinalg import _cholesky_stack
from .entropy_oracle import OracleContext, _pick_sums, conditional_entropy
from .errors import (InvalidParamsError, NotPositiveDefiniteError, OracleInconsistencyError,
                     TooLargeError)
from .process_models import LOG_TWO_PI_E
from .sensing import Schedule, _check_budgets, _is_index, _pick_index

__all__ = [
    "EnumerationResult",
    "BoundCertificate",
    "exhaustive_optimum",
    "certify_bound",
]

# Gaps below DEGENERATE_GAP mean MAX == OPT: every schedule is equivalent
# and the only meaningful certificate is equality within EQUAL_TOL.
DEGENERATE_GAP = 1e-12
EQUAL_TOL = 1e-9

# Most candidate pivots in one stacked Cholesky when the children of a node
# share their last step: enough that the per-call overhead vanishes, few
# enough that this batching adds stacks of at most a few megabytes.
_STACK = 4096


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of enumerating every feasible schedule."""

    opt_cost: float
    max_cost: float
    opt_schedule: Schedule
    num_enumerated: int


@dataclass(frozen=True)
class BoundCertificate:
    """Approximation certificate of a schedule cost against OPT and MAX.

    ``ratio`` is (cost - OPT) / (MAX - OPT), or None when the gap is
    degenerate (MAX == OPT to within DEGENERATE_GAP); in the degenerate
    case ``certified_equal`` records whether the cost matches OPT.
    """

    greedy_cost: float
    opt_cost: float
    max_cost: float
    ratio: float | None
    certified_equal: bool

    @property
    def holds(self) -> bool:
        """True when the half-range guarantee is certified."""
        if self.ratio is None:
            return self.certified_equal
        return self.ratio <= 0.5 + 1e-9


def _is_cap(cap) -> bool:
    """True for an enumeration cap: an integer >= 1, and not a bool."""
    return _is_index(cap) and cap >= 1


def _step_candidates(m: int, s_k: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for size in range(s_k + 1):
        out.extend(itertools.combinations(range(m), size))
    return out


def _walk(S: np.ndarray, logdet: np.ndarray, k: int, xi: list[np.ndarray],
          out: np.ndarray, at: int) -> int:
    """Log-dets of P + blockdiag(Xi) below a stack of prefixes, depth first.

    ``S`` stacks the trailing Schur complements left by p prefixes that
    fix steps 0..k-1, shape (p, r, r), and ``logdet`` their log-dets so
    far. Writes the log-det of every completion, in lexicographic order,
    to ``out[at:]`` and returns the next free index.
    """
    n = xi[k].shape[-1]
    L = _cholesky_stack(S[:, None, :n, :n] + xi[k], k)  # (p, c, n, n)
    logdet = (logdet[:, None] + 2.0 * np.log(np.diagonal(L, 0, 2, 3)).sum(-1)).ravel()
    if k + 1 == len(xi):
        out[at:at + logdet.size] = logdet
        return at + logdet.size
    # eliminate step k: each child's trailing matrix is S22 - Y^T Y, Y = L^-1 S12
    Y = np.linalg.solve(L, S[:, None, :n, n:])
    r = S.shape[-1] - n
    trailing = (S[:, None, n:, n:] - np.swapaxes(Y, 2, 3) @ Y).reshape(-1, r, r)
    # children are walked one at a time, except into the last step, which
    # takes as many as fit in one stack of at most _STACK candidate pivots
    batch = max(1, _STACK // len(xi[-1])) if k + 2 == len(xi) else 1
    for i in range(0, logdet.size, batch):
        at = _walk(trailing[i:i + batch], logdet[i:i + batch], k + 1, xi, out, at)
    return at


def _enumerate(ctx: OracleContext, budgets: tuple[int, ...]):
    """Every step's candidate sets and the walk's cost of every schedule.

    The costs follow ``itertools.product`` over the candidate lists:
    lexicographic over steps, then over index sets (sizes ascending, then
    combination order). ``budgets`` must already be checked.
    """
    per_step = [_step_candidates(ctx.suite.m, s_k) for s_k in budgets]
    # Xi of every candidate set of a step, summed in pick order as the oracle
    # sums it: each candidate gathers from one read-only broadcast of step k's
    # row, at one pick index of all the step's candidates
    rows = ctx._increments.shape[1:]
    xi = [_pick_sums(np.broadcast_to(ctx._increments[k], (len(c), *rows)), _pick_index(c))
          for k, c in enumerate(per_step)]
    logdets = np.empty(math.prod(len(c) for c in per_step))
    _walk(ctx.prior.precision_dense()[None], np.zeros(1), 0, xi, logdets, 0)
    costs = 0.5 * ctx.prior.dim * LOG_TWO_PI_E - 0.5 * logdets
    if not np.isfinite(costs).all():
        raise NotPositiveDefiniteError("enumerated log-determinant is not finite")
    return per_step, costs


def exhaustive_optimum(
    ctx: OracleContext,
    budgets: Sequence[int],
    *,
    cap: int = 10**6,
) -> EnumerationResult:
    """Evaluate the objective on every schedule with |S_k| <= s_k.

    Costs come from the block-Cholesky walk (see the module docstring);
    OPT is re-evaluated by ``conditional_entropy``, and MAX is H(x).

    Args:
        cap: refuse enumerations beyond this many schedules; an integer >= 1.

    Raises:
        InvalidParamsError: ``cap`` is not an integer >= 1.
        DimensionMismatchError: the budgets do not cover the horizon, or
            one is not an integer in [0, m]; the message names the step.
        TooLargeError: the candidate count exceeds ``cap``.
        NotPositiveDefiniteError: a candidate pivot fails to factor
            (``exc.block_index`` is its step) or a cost is not finite.
        OracleInconsistencyError: the walk's OPT cost differs from the
            reference oracle's, or a walk cost exceeds H(x), by more than
            EQUAL_TOL relative.
    """
    if not _is_cap(cap):
        raise InvalidParamsError(f"cap must be an integer >= 1, got {cap!r}")
    m = ctx.suite.m
    budgets = _check_budgets(budgets, ctx.K, m)
    total = math.prod(sum(math.comb(m, j) for j in range(s_k + 1)) for s_k in budgets)
    if total > cap:
        raise TooLargeError(
            f"{total} candidate schedules exceed the cap of {cap}; "
            "shrink the instance or sample instead"
        )
    per_step, costs = _enumerate(ctx, budgets)
    max_cost = ctx.prior_entropy
    if costs.max() - max_cost > EQUAL_TOL * max(1.0, abs(max_cost)):
        raise OracleInconsistencyError(
            f"enumeration cost {costs.max()!r} exceeds the prior entropy {max_cost!r}"
        )
    best = int(np.argmin(costs))
    at = np.unravel_index(best, [len(c) for c in per_step])
    opt_sets = tuple(c[i] for c, i in zip(per_step, at))
    opt_schedule = Schedule(sets=opt_sets, budgets=budgets)
    opt_cost = conditional_entropy(ctx, opt_schedule)
    if abs(costs[best] - opt_cost) > EQUAL_TOL * max(1.0, abs(opt_cost)):
        raise OracleInconsistencyError(
            f"schedule {opt_sets}: enumeration cost {costs[best]!r} differs "
            f"from the oracle's {opt_cost!r}"
        )
    return EnumerationResult(
        opt_cost=opt_cost,
        max_cost=max_cost,
        opt_schedule=opt_schedule,
        num_enumerated=total,
    )


def certify_bound(result: EnumerationResult, cost: float) -> BoundCertificate:
    """Certify a schedule cost against an enumeration's OPT and MAX."""
    gap = result.max_cost - result.opt_cost
    degenerate = gap <= DEGENERATE_GAP
    return BoundCertificate(
        greedy_cost=cost,
        opt_cost=result.opt_cost,
        max_cost=result.max_cost,
        ratio=None if degenerate else (cost - result.opt_cost) / gap,
        certified_equal=degenerate and abs(cost - result.opt_cost) <= EQUAL_TOL,
    )
