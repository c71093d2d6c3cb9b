"""Greedy sensor scheduling with its lazy acceleration and a random baseline.

The outer loop fixes steps one at a time; within a step, sensors are
added one by one, each time picking the candidate whose marginal entropy
reduction is largest. This yields feasible schedules whose cost is within
half of the optimal-to-worst range, because the objective is
non-increasing and supermodular in the selection.

Ties are broken toward the lowest sensor index (a deterministic
refinement of the arbitrary tie-break) so that runs are reproducible and
the lazy variant provably returns the same schedule as the eager one.
Eager evaluation makes at most s_k * m oracle calls per step (one per
remaining candidate per pick; the running base value is cached, never
re-evaluated). The lazy variant keeps stale gains in a max-heap as upper
bounds -- valid by supermodularity -- and only refreshes the top.
"""

from __future__ import annotations

import heapq
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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


class _Evaluator:
    """Counts oracle calls and evaluates candidate schedules."""

    def __init__(self, ctx: OracleContext, budgets: tuple[int, ...], executor=None):
        self.ctx = ctx
        self.budgets = budgets
        self.calls = 0
        self.executor = executor

    def entropy(self, sets: tuple[tuple[int, ...], ...]) -> float:
        self.calls += 1
        return conditional_entropy(
            self.ctx, Schedule._unchecked(sets, self.budgets)
        )

    def entropies(self, variants: Sequence[tuple[tuple[int, ...], ...]]) -> list[float]:
        if self.executor is not None and len(variants) > 1:
            self.calls += len(variants)
            ctx, budgets = self.ctx, self.budgets
            return list(
                self.executor.map(
                    lambda s: conditional_entropy(ctx, Schedule._unchecked(s, budgets)),
                    variants,
                )
            )
        return [self.entropy(v) for v in variants]


def _clamp_gain(gain: float, k: int, i: int) -> float:
    if not math.isfinite(gain):
        raise OracleInconsistencyError(f"step {k}, sensor {i}: marginal gain {gain} is not finite")
    if gain < -_GAIN_SLACK:
        raise OracleInconsistencyError(
            f"step {k}, sensor {i}: marginal gain {gain:.3e} below -{_GAIN_SLACK}: "
            "adding a sensor may not increase the conditional entropy"
        )
    return max(gain, 0.0)


def _sets_with(sets, k, new_set):
    out = list(sets)
    out[k] = tuple(sorted(new_set))
    return tuple(out)


def _eager_step(evaluator, sets, k, s_k, base, allow_zero_gain):
    chosen: list[int] = []
    gains: list[float] = []
    ground = list(range(evaluator.ctx.suite.m))
    while ground and len(chosen) < s_k:
        variants = [
            _sets_with(sets, k, chosen + [i]) for i in ground
        ]
        values = evaluator.entropies(variants)
        best_i = None
        best_gain = -np.inf
        best_H = np.nan
        for i, H in zip(ground, values):
            gain = _clamp_gain(base - H, k, i)
            if gain > best_gain:
                best_i, best_gain, best_H = i, gain, H
        if best_gain <= 0.0 and not allow_zero_gain:
            break
        chosen.append(best_i)
        gains.append(best_gain)
        ground.remove(best_i)
        base = min(best_H, base)  # clamped zero gains keep the base monotone
    return tuple(chosen), tuple(gains), base


def _lazy_step(evaluator, sets, k, s_k, base, allow_zero_gain):
    if s_k <= 0:
        return (), (), base
    m = evaluator.ctx.suite.m
    chosen: list[int] = []
    gains: list[float] = []
    heap: list[tuple[float, int]] = []
    fresh_round: dict[int, int] = {}
    cached_H: dict[int, float] = {}
    pick_round = 0

    for i in range(m):
        H = evaluator.entropy(_sets_with(sets, k, [i]))
        cached_H[i] = H
        fresh_round[i] = pick_round
        heapq.heappush(heap, (-_clamp_gain(base - H, k, i), i))

    while heap and len(chosen) < s_k:
        neg_gain, i = heapq.heappop(heap)
        if fresh_round[i] != pick_round:
            H = evaluator.entropy(_sets_with(sets, k, chosen + [i]))
            cached_H[i] = H
            fresh_round[i] = pick_round
            entry = (-_clamp_gain(base - H, k, i), i)
            if heap and entry > heap[0]:
                heapq.heappush(heap, entry)
                continue
            neg_gain = entry[0]
        gain = -neg_gain
        if gain <= 0.0 and not allow_zero_gain:
            break
        chosen.append(i)
        gains.append(gain)
        base = min(cached_H[i], base)
        pick_round += 1
    return tuple(chosen), tuple(gains), base


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
    if s_k > ctx.suite.m:
        raise DimensionMismatchError(f"budget {s_k} exceeds the {ctx.suite.m} sensors")
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
    evaluator = _Evaluator(ctx, budgets)
    started = time.perf_counter()
    base = evaluator.entropy(sets) if any(sets) else ctx.prior_entropy
    step_fn = _lazy_step if lazy else _eager_step
    chosen, gains, _ = step_fn(evaluator, sets, k, s_k, base, allow_zero_gain)
    return StepTrace(
        step=k,
        chosen=chosen,
        gains=gains,
        oracle_calls=evaluator.calls,
        wall_s=time.perf_counter() - started,
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
    threads: int = 1,
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
        threads: evaluate candidate gains in parallel when > 1 (eager
            scans only; the oracle is pure, so this is safe).

    Returns:
        (schedule, trace) with per-step picks, gains and call counts.
    """
    budgets = tuple(int(b) for b in budgets)
    if len(budgets) != ctx.K:
        raise DimensionMismatchError(
            f"{len(budgets)} budgets for a horizon of {ctx.K}"
        )
    for k, b in enumerate(budgets):
        if b > ctx.suite.m:
            raise DimensionMismatchError(
                f"budget {b} at step {k} exceeds the {ctx.suite.m} sensors"
            )

    executor = None
    if threads > 1 and not lazy:
        executor = ThreadPoolExecutor(max_workers=threads)
    try:
        evaluator = _Evaluator(ctx, budgets, executor=executor)
        sets: tuple[tuple[int, ...], ...] = tuple(() for _ in range(ctx.K))
        base = ctx.prior_entropy
        steps: list[StepTrace] = []
        step_fn = _lazy_step if lazy else _eager_step
        for k in range(ctx.K):
            started = time.perf_counter()
            before = evaluator.calls
            chosen, gains, base = step_fn(
                evaluator, sets, k, budgets[k], base, allow_zero_gain
            )
            sets = _sets_with(sets, k, chosen)
            steps.append(
                StepTrace(
                    step=k,
                    chosen=chosen,
                    gains=gains,
                    oracle_calls=evaluator.calls - before,
                    wall_s=time.perf_counter() - started,
                )
            )
    finally:
        if executor is not None:
            executor.shutdown()

    return Schedule(sets=sets, budgets=budgets), GreedyTrace(steps=tuple(steps))


def random_schedule(budgets: Sequence[int], m: int, seed: int) -> Schedule:
    """Uniformly random feasible schedule: s_k distinct sensors per step."""
    budgets = tuple(int(b) for b in budgets)
    for k, b in enumerate(budgets):
        if b > m:
            raise DimensionMismatchError(f"budget {b} at step {k} exceeds m={m}")
    rng = np.random.default_rng(seed)
    sets = tuple(
        tuple(sorted(rng.choice(m, size=b, replace=False).tolist())) for b in budgets
    )
    return Schedule(sets=sets, budgets=budgets)
