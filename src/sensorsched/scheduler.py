"""Greedy sensor scheduling with its lazy acceleration and a random baseline.

The outer loop fixes steps one at a time; within a step, sensors are
added one by one, each time picking the candidate whose marginal entropy
reduction is largest. This yields feasible schedules whose cost is within
half of the optimal-to-worst range, because the objective is
non-increasing and supermodular in the selection.

Eager and lazy evaluation are two refresh policies of one selection
loop over a max-heap of candidate gains. After each pick the eager policy
re-evaluates every remaining candidate, at most s_k * m oracle calls per
step (the running base value is cached, never re-evaluated); the lazy
policy keeps the stale gains as upper bounds -- valid by supermodularity
-- and refreshes only the top. Ties are broken toward the lowest sensor
index (a deterministic refinement of the arbitrary tie-break) so that
runs are reproducible and both policies return the same schedule.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .entropy_oracle import OracleContext, conditional_entropy
from .errors import DimensionMismatchError, OracleInconsistencyError
from .sensing import Schedule

__all__ = [
    "StepTrace",
    "GreedyTrace",
    "greedy_schedule",
    "greedy_step",
    "lazy_greedy_step",
    "greedy_step_detailed",
    "random_schedule",
]

# Computed marginal gains are nonnegative in exact arithmetic; values in
# [-GAIN_SLACK, 0] are clamped to 0 and anything below is an oracle bug.
_GAIN_SLACK = 1e-8


@dataclass(frozen=True)
class StepTrace:
    """One step of a greedy run: picks in order, their gains, and costs."""

    step: int
    chosen: tuple[int, ...]
    gains: tuple[float, ...]
    oracle_calls: int
    wall_s: float


@dataclass(frozen=True)
class GreedyTrace:
    """Full record of a greedy run.

    Within each step the realized gains are non-increasing in pick order.
    The eager call count is at most s_k * m per step; the paper-level
    guarantee quotes a tighter per-step count, but a ground set of size m
    scanned once per pick costs m - t + 1 evaluations at pick t, which is
    what this trace reports.
    """

    steps: tuple[StepTrace, ...]

    @property
    def total_oracle_calls(self) -> int:
        return sum(s.oracle_calls for s in self.steps)

    @property
    def total_wall_s(self) -> float:
        return sum(s.wall_s for s in self.steps)

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


def _check_budget(k: int, s_k: int, m: int) -> None:
    if s_k < 0:
        raise DimensionMismatchError(f"budget {s_k} at step {k} is negative")
    if s_k > m:
        raise DimensionMismatchError(f"budget {s_k} at step {k} exceeds the {m} sensors")


def _sets_with(sets, k, new_set):
    out = list(sets)
    out[k] = tuple(sorted(new_set))
    return tuple(out)


def _select(ctx, sets, budgets, k, s_k, base, lazy, allow_zero_gain):
    """Greedy selection at step k; returns (trace, base after the picks).

    Candidates sit in a max-heap of (-gain, sensor, entropy). After each
    pick the eager policy re-evaluates every remaining candidate; the lazy
    policy marks them stale and re-evaluates a stale entry only when it
    reaches the top, re-inserting it unless it still beats the next one.
    """
    started = time.perf_counter()
    calls = 0
    chosen: list[int] = []
    gains: list[float] = []

    def entry(i):
        nonlocal calls
        calls += 1
        variant = Schedule._unchecked(_sets_with(sets, k, chosen + [i]), budgets)
        H = conditional_entropy(ctx, variant)
        return (-_clamp_gain(base - H, k, i), i, H)

    heap = [entry(i) for i in range(ctx.suite.m)] if s_k else []
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
        neg_gain, i, H = top
        gain = -neg_gain
        if gain <= 0.0 and not allow_zero_gain:
            break
        chosen.append(i)
        gains.append(gain)
        base = min(H, base)  # clamped zero gains keep the base monotone
        if lazy:
            stale = {j for _, j, _ in heap}
        elif len(chosen) < s_k:
            heap = [entry(j) for j in sorted(j for _, j, _ in heap)]
            heapq.heapify(heap)
    trace = StepTrace(
        step=k,
        chosen=tuple(chosen),
        gains=tuple(gains),
        oracle_calls=calls,
        wall_s=time.perf_counter() - started,
    )
    return trace, base


def greedy_step_detailed(
    ctx: OracleContext,
    fixed_prefix: Schedule,
    k: int,
    s_k: int,
    *,
    lazy: bool = False,
    allow_zero_gain: bool = False,
) -> StepTrace:
    """Run one within-step greedy selection and return its full trace.

    ``fixed_prefix`` must cover steps 0..k-1; its sets at step k and
    beyond are ignored. One extra oracle call establishes the base value.
    """
    if not 0 <= k < ctx.K:
        raise DimensionMismatchError(f"step {k} outside horizon of {ctx.K}")
    _check_budget(k, s_k, ctx.suite.m)
    if fixed_prefix.num_steps < k:
        raise DimensionMismatchError(
            f"prefix covers {fixed_prefix.num_steps} steps, step {k} needs {k}"
        )
    sets = tuple(
        fixed_prefix.sets[j] if j < k else () for j in range(ctx.K)
    )
    budgets = [
        fixed_prefix.budgets[j] if j < fixed_prefix.num_steps else 0
        for j in range(ctx.K)
    ]
    budgets[k] = max(budgets[k], s_k)
    budgets = tuple(budgets)
    started = time.perf_counter()
    evaluated = any(sets)
    base = ctx.prior_entropy
    if evaluated:
        base = conditional_entropy(ctx, Schedule._unchecked(sets, budgets))
    trace, _ = _select(ctx, sets, budgets, k, s_k, base, lazy, allow_zero_gain)
    return replace(
        trace, oracle_calls=trace.oracle_calls + int(evaluated), wall_s=time.perf_counter() - started
    )


def greedy_step(
    ctx: OracleContext,
    fixed_prefix: Schedule,
    k: int,
    s_k: int,
    *,
    allow_zero_gain: bool = False,
) -> tuple[int, ...]:
    """Sensor set for step k chosen greedily given the fixed prefix."""
    return greedy_step_detailed(
        ctx, fixed_prefix, k, s_k, lazy=False, allow_zero_gain=allow_zero_gain
    ).chosen


def lazy_greedy_step(
    ctx: OracleContext,
    fixed_prefix: Schedule,
    k: int,
    s_k: int,
    *,
    allow_zero_gain: bool = False,
) -> tuple[int, ...]:
    """Same set as ``greedy_step`` with fewer oracle evaluations.

    Stale gains are valid upper bounds by supermodularity, so only the
    top of the priority queue is ever refreshed; ties compare refreshed
    gains first and the sensor index second, matching the eager order.
    """
    return greedy_step_detailed(
        ctx, fixed_prefix, k, s_k, lazy=True, allow_zero_gain=allow_zero_gain
    ).chosen


def greedy_schedule(
    ctx: OracleContext,
    budgets: Sequence[int],
    *,
    lazy: bool = False,
    allow_zero_gain: bool = False,
) -> tuple[Schedule, GreedyTrace]:
    """Full-horizon greedy schedule under per-step budgets.

    Steps are fixed in order 0..K-1; each step's selection conditions on
    everything already fixed. The returned schedule always satisfies
    |S_k| <= budgets[k], and its cost never exceeds the empty schedule's.

    Args:
        budgets: K per-step selection budgets, each <= m.
        lazy: use the lazy-evaluation variant (identical output).
        allow_zero_gain: keep filling a step's budget with zero-gain
            sensors instead of stopping at the first non-positive gain.

    Returns:
        (schedule, trace) with per-step picks, gains and call counts.
    """
    budgets = tuple(int(b) for b in budgets)
    if len(budgets) != ctx.K:
        raise DimensionMismatchError(
            f"{len(budgets)} budgets for a horizon of {ctx.K}"
        )
    for k, b in enumerate(budgets):
        _check_budget(k, b, ctx.suite.m)

    sets: tuple[tuple[int, ...], ...] = tuple(() for _ in range(ctx.K))
    base = ctx.prior_entropy
    steps: list[StepTrace] = []
    for k in range(ctx.K):
        trace, base = _select(ctx, sets, budgets, k, budgets[k], base, lazy, allow_zero_gain)
        sets = _sets_with(sets, k, trace.chosen)
        steps.append(trace)
    return Schedule(sets=sets, budgets=budgets), GreedyTrace(steps=tuple(steps))


def random_schedule(budgets: Sequence[int], m: int, seed: int) -> Schedule:
    """Uniformly random feasible schedule: s_k distinct sensors per step."""
    budgets = tuple(int(b) for b in budgets)
    for k, b in enumerate(budgets):
        _check_budget(k, b, m)
    rng = np.random.default_rng(seed)
    sets = tuple(
        tuple(sorted(rng.choice(m, size=b, replace=False).tolist())) for b in budgets
    )
    return Schedule(sets=sets, budgets=budgets)
