"""Correctness checks on benchmark outputs.

Every check compares a program output with a value computed here, apart
from the program, or with a property the method must have. None compares
with a stored copy of earlier output. A failed check raises CheckError.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Sequence

import numpy as np

LOG_TWO_PI_E = math.log(2.0 * math.pi * math.e)

# The CLI prints floats with 12 significant digits, so values read back
# from its CSV files carry a relative rounding error of up to 5e-12.
CSV_TOL = 1e-9


class CheckError(AssertionError):
    """A program output failed a correctness check."""


def dense_precision(prior) -> np.ndarray:
    """Dense prior precision, inverted with numpy if a covariance is stored."""
    M = prior.assembled()
    if prior.form.is_precision:
        return M
    return np.linalg.inv(M)


def dense_entropy(prior, suite, sets: Sequence[Sequence[int]], linearization=None) -> float:
    """Conditional entropy of a schedule by the dense formula, in nats.

    H = 1/2 logdet((P + sum_k blockdiag J^T R^-1 J)^-1) + (nK/2) log(2 pi e),
    with Jacobians from ``Sensor.jacobian_at`` at the linearization point
    (default: the prior mean) and noise from ``Sensor.noise_cov_at``.
    """
    n, K = prior.n, prior.K
    x = np.asarray(prior.mean if linearization is None else linearization, float)
    states = x.reshape(K, n)
    M = np.array(dense_precision(prior), dtype=float)
    for k, chosen in enumerate(sets):
        for i in chosen:
            sensor = suite.sensors[i]
            J = sensor.jacobian_at(states[k])
            R = sensor.noise_cov_at(k)
            M[k * n:(k + 1) * n, k * n:(k + 1) * n] += J.T @ np.linalg.solve(R, J)
    sign, logdet = np.linalg.slogdet(M)
    if sign <= 0:
        raise CheckError("posterior information matrix is not positive definite")
    return -0.5 * logdet + 0.5 * n * K * LOG_TWO_PI_E


def dense_prior_entropy(prior) -> float:
    """Prior entropy 1/2 logdet(Sigma) + (nK/2) log(2 pi e) by numpy."""
    sign, logdet = np.linalg.slogdet(prior.assembled())
    if sign <= 0:
        raise CheckError("stored prior matrix is not positive definite")
    if prior.form.is_precision:
        logdet = -logdet
    return 0.5 * logdet + 0.5 * prior.dim * LOG_TWO_PI_E


def check_close(what: str, got: float, want: float, rel: float) -> None:
    """|got - want| <= rel * max(1, |want|)."""
    if not (math.isfinite(got) and abs(got - want) <= rel * max(1.0, abs(want))):
        raise CheckError(f"{what}: got {got!r}, expected {want!r} (relative tolerance {rel})")


def check_feasible(what: str, sets: Sequence[Sequence[int]], budgets: Sequence[int], m: int) -> None:
    """One set per step, each within its budget, of distinct indices in [0, m)."""
    if len(sets) != len(budgets):
        raise CheckError(f"{what}: {len(sets)} steps for {len(budgets)} budgets")
    for k, (chosen, cap) in enumerate(zip(sets, budgets)):
        if len(chosen) > cap:
            raise CheckError(f"{what}: step {k} selects {len(chosen)} sensors, budget {cap}")
        if len(set(chosen)) != len(chosen):
            raise CheckError(f"{what}: step {k} selects a sensor twice: {list(chosen)}")
        if any(not 0 <= i < m for i in chosen):
            raise CheckError(f"{what}: step {k} selects an index outside [0, {m}): {list(chosen)}")


def check_gains(what: str, step_gains: Sequence[Sequence[float]]) -> None:
    """Within each step, gains are >= 0 and non-increasing in pick order."""
    for k, gains in enumerate(step_gains):
        for t, g in enumerate(gains):
            if not (math.isfinite(g) and g >= 0.0):
                raise CheckError(f"{what}: step {k} pick {t} has gain {g!r} < 0")
            if t and g > gains[t - 1]:
                raise CheckError(
                    f"{what}: step {k} gains increase at pick {t}: {list(gains)}"
                )


def check_same_sets(what: str, a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> None:
    a = [tuple(sorted(s)) for s in a]
    b = [tuple(sorted(s)) for s in b]
    if a != b:
        differ = [k for k, (x, y) in enumerate(zip(a, b)) if x != y]
        at = differ[0] if differ else min(len(a), len(b))
        raise CheckError(f"{what}: schedules differ from step {at}")


def check_gain_identity(what: str, prior_h: float, gains: Sequence[float], h: float, tol: float = 1e-8) -> None:
    """Prior entropy minus the sum of the gains is the schedule's entropy."""
    rebuilt = prior_h - math.fsum(gains)
    if not abs(rebuilt - h) <= tol * max(1.0, abs(h)):
        raise CheckError(
            f"{what}: prior entropy - sum of gains = {rebuilt!r}, entropy {h!r}"
        )


def check_bound_ratio(what: str, ratio: float) -> None:
    if not (0.0 <= ratio <= 0.5):
        raise CheckError(f"{what}: bound ratio {ratio!r} outside [0, 1/2]")


def check_not_above(what: str, low: float, high: float, tol: float = 0.0) -> None:
    """low <= high (+ tol)."""
    if not low <= high + tol:
        raise CheckError(f"{what}: {low!r} exceeds {high!r}")


def num_feasible_schedules(m: int, budgets: Sequence[int]) -> int:
    """prod_k sum_{j <= s_k} C(m, j)."""
    return math.prod(sum(math.comb(m, j) for j in range(s + 1)) for s in budgets)


def check_enumeration_count(count: int, m: int, budgets: Sequence[int]) -> None:
    want = num_feasible_schedules(m, budgets)
    if count != want:
        raise CheckError(f"enumerated {count} schedules, expected {want}")


def random_feasible_sets(rng: np.random.Generator, m: int, budgets: Sequence[int]) -> list[tuple[int, ...]]:
    sets = []
    for s in budgets:
        size = int(rng.integers(0, s + 1))
        sets.append(tuple(sorted(rng.choice(m, size=size, replace=False).tolist())))
    return sets


def check_identical(what: str, first: bytes, now: bytes) -> None:
    if first != now:
        raise CheckError(f"{what} differs between rounds of the same input")


def read_results(path: Path) -> dict[str, dict[str, str]]:
    """results.csv as {scheduler: row}."""
    with open(path, newline="") as f:
        return {row["scheduler"]: row for row in csv.DictReader(f)}


def read_trace(path: Path, K: int) -> tuple[list[tuple[int, ...]], list[list[float]]]:
    """trace.csv as per-step pick lists and per-step gain lists."""
    picks: list[list[int]] = [[] for _ in range(K)]
    gains: list[list[float]] = [[] for _ in range(K)]
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            k, order = int(row["k"]), int(row["pick_order"])
            if not 0 <= k < K or order != len(picks[k]):
                raise CheckError(f"trace.csv: pick out of order at step {row['k']}")
            picks[k].append(int(row["sensor"]))
            gains[k].append(float(row["gain_nats"]))
    return [tuple(p) for p in picks], gains
