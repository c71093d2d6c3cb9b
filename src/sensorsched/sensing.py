"""Sensors, sensor suites and selection schedules.

Selection matrices are never materialized: a per-step selection is an
index set into the suite, and every formula that multiplies by a
selection matrix gathers the selected sensors' rows instead, from the
per-step whitened Jacobians of an oracle context
(``entropy_oracle.make_context``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .blocklinalg import _cholesky
from .errors import DimensionMismatchError, InvalidParamsError

__all__ = [
    "Sensor",
    "SensorSuite",
    "Schedule",
    "builtin_sensor",
    "finite_difference_jacobian",
]


def _is_index(value) -> bool:
    """True for an integer (NumPy integers included) that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _step_integer(k: int, what: str, value) -> int:
    if not _is_index(value):
        raise DimensionMismatchError(f"step {k} has {what} {value!r}, not an integer")
    return int(value)


def _check_budget(k: int, s_k, m: int) -> int:
    """Step k's budget as an int in [0, m]; a bool, float or string is rejected."""
    s_k = _step_integer(k, "budget", s_k)
    if s_k < 0:
        raise DimensionMismatchError(f"budget {s_k} at step {k} is negative")
    if s_k > m:
        raise DimensionMismatchError(f"budget {s_k} at step {k} exceeds the {m} sensors")
    return s_k


@dataclass(frozen=True)
class Sensor:
    """One nonlinear sensor: measurement map, Jacobian, Gaussian noise.

    ``measure`` maps a state vector to a length-``output_dim`` vector and
    ``jacobian`` to its (output_dim x n) derivative. ``noise_cov`` is the
    SPD noise covariance, constant over time unless ``noise_overrides``
    maps specific step indices (non-negative integers) to replacement
    covariances. Each of these is factored once, here, as R = L L^T;
    ``noise_factor_at`` returns L.

    Raises:
        NotPositiveDefiniteError: a noise covariance is not SPD.
        InvalidParamsError: a noise covariance holds NaN or infinite
            values, or an override key is not a non-negative integer.
    """

    output_dim: int
    measure: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    noise_cov: np.ndarray
    name: str = ""
    noise_overrides: Mapping[int, np.ndarray] | None = None

    def __post_init__(self):
        if self.output_dim < 1:
            raise InvalidParamsError(f"output_dim must be >= 1, got {self.output_dim}")
        cov, factor = self._factored(self.noise_cov, "noise_cov")
        object.__setattr__(self, "noise_cov", cov)
        factors = {None: factor}
        if self.noise_overrides is not None:
            frozen = {}
            for k, m in self.noise_overrides.items():
                if not _is_index(k) or k < 0:
                    raise InvalidParamsError(
                        f"sensor {self.name!r}: noise override key {k!r} is not a step index"
                    )
                frozen[int(k)], factors[int(k)] = self._factored(m, f"noise override at step {k}")
            object.__setattr__(self, "noise_overrides", frozen)
        object.__setattr__(self, "_factors", factors)

    def _factored(self, value, what: str) -> tuple[np.ndarray, np.ndarray]:
        """A read-only symmetrized noise covariance and its lower Cholesky factor."""
        cov = np.atleast_2d(np.asarray(value, dtype=float))
        if cov.shape != (self.output_dim, self.output_dim):
            raise DimensionMismatchError(
                f"{what} has shape {cov.shape}, expected ({self.output_dim}, {self.output_dim})"
            )
        if not np.isfinite(cov).all():
            raise InvalidParamsError(f"sensor {self.name!r}: {what} is not finite")
        cov = 0.5 * (cov + cov.T)
        factor = _cholesky(cov, f"sensor {self.name!r}: {what}")
        cov.setflags(write=False)
        factor.setflags(write=False)
        return cov, factor

    def noise_cov_at(self, k: int) -> np.ndarray:
        if self.noise_overrides is not None and k in self.noise_overrides:
            return self.noise_overrides[k]
        return self.noise_cov

    def noise_factor_at(self, k: int) -> np.ndarray:
        """Lower Cholesky factor L of ``noise_cov_at(k)`` = L L^T."""
        return self._factors.get(k, self._factors[None])

    def measure_at(self, x: np.ndarray) -> np.ndarray:
        z = np.atleast_1d(np.asarray(self.measure(x), dtype=float))
        if z.shape != (self.output_dim,):
            raise DimensionMismatchError(
                f"sensor {self.name!r} returned shape {z.shape}, "
                f"expected ({self.output_dim},)"
            )
        return z

    def jacobian_at(self, x: np.ndarray) -> np.ndarray:
        J = np.atleast_2d(np.asarray(self.jacobian(x), dtype=float))
        if J.shape != (self.output_dim, x.size):
            raise DimensionMismatchError(
                f"sensor {self.name!r} jacobian has shape {J.shape}, "
                f"expected ({self.output_dim}, {x.size})"
            )
        return J


@dataclass(frozen=True)
class SensorSuite:
    """The m available sensors over a state of dimension ``state_dim``."""

    state_dim: int
    sensors: tuple[Sensor, ...]

    def __post_init__(self):
        object.__setattr__(self, "sensors", tuple(self.sensors))

    @property
    def m(self) -> int:
        return len(self.sensors)


@dataclass(frozen=True)
class Schedule:
    """Per-step selected sensor index sets with their budgets.

    Sensor indices are 0-based positions in the suite. Each step holds a
    set (duplicates rejected) of at most ``budgets[k]`` indices. Budgets
    and indices must be integers; a bool, float or string is rejected,
    never truncated.
    """

    sets: tuple[tuple[int, ...], ...]
    budgets: tuple[int, ...]

    def __post_init__(self):
        budgets = tuple(_step_integer(k, "budget", s) for k, s in enumerate(self.budgets))
        if any(s < 0 for s in budgets):
            raise DimensionMismatchError("budgets must be non-negative")
        sets = []
        for k, raw in enumerate(self.sets):
            indices = [_step_integer(k, "sensor index", i) for i in raw]
            if any(i < 0 for i in indices):
                raise DimensionMismatchError(f"step {k} has a negative sensor index")
            if len(set(indices)) != len(indices):
                raise DimensionMismatchError(f"step {k} selects a sensor more than once")
            sets.append(tuple(sorted(indices)))
        if len(sets) != len(budgets):
            raise DimensionMismatchError(
                f"{len(sets)} step sets vs {len(budgets)} budgets"
            )
        for k, (chosen, cap) in enumerate(zip(sets, budgets)):
            if len(chosen) > cap:
                raise DimensionMismatchError(
                    f"step {k} selects {len(chosen)} sensors, budget is {cap}"
                )
        object.__setattr__(self, "sets", tuple(sets))
        object.__setattr__(self, "budgets", budgets)

    @classmethod
    def empty(cls, budgets: Sequence[int]) -> "Schedule":
        return cls(sets=tuple(() for _ in budgets), budgets=tuple(budgets))

    @classmethod
    def _unchecked(cls, sets, budgets) -> "Schedule":
        # internal fast path for callers that construct already-valid,
        # sorted index tuples in bulk (greedy scans, enumeration)
        obj = object.__new__(cls)
        object.__setattr__(obj, "sets", sets)
        object.__setattr__(obj, "budgets", budgets)
        return obj

    @property
    def num_steps(self) -> int:
        return len(self.sets)

    @property
    def total_selected(self) -> int:
        return sum(len(s) for s in self.sets)


def finite_difference_jacobian(
    measure: Callable[[np.ndarray], np.ndarray], x: np.ndarray, step: float = 1e-6
) -> np.ndarray:
    """Central finite-difference Jacobian of a measurement map at x."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(measure(x), dtype=float))
    J = np.empty((f0.size, x.size))
    for j in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[j] += step
        lo[j] -= step
        J[:, j] = (
            np.atleast_1d(measure(hi)) - np.atleast_1d(measure(lo))
        ) / (2.0 * step)
    return J


def _resolve_noise(output_dim, noise_cov, noise_var):
    if noise_cov is not None and noise_var is not None:
        raise InvalidParamsError("give noise_cov or noise_var, not both")
    if noise_cov is not None:
        return np.atleast_2d(np.asarray(noise_cov, dtype=float))
    if noise_var is None:
        raise InvalidParamsError("sensor needs noise_cov or noise_var")
    if not 0 < noise_var < math.inf:
        raise InvalidParamsError(f"noise_var must be positive and finite, got {noise_var}")
    return float(noise_var) * np.eye(output_dim)


def builtin_sensor(
    kind: str,
    *,
    noise_cov: np.ndarray | None = None,
    noise_var: float | None = None,
    axis: int | None = None,
    anchor: Sequence[float] | None = None,
    weight: np.ndarray | None = None,
    name: str | None = None,
) -> Sensor:
    """Library of concrete sensors with analytically coded Jacobians.

    Kinds:
        linear_coordinate: reads state coordinate ``axis``.
        range: Euclidean distance to ``anchor``; singular at the anchor.
        bearing: planar angle to ``anchor`` from the first two state
            coordinates; singular at the anchor.
        quadratic: 0.5 * x^T W x with symmetric ``weight`` W.

    Raises:
        InvalidParamsError: for unknown kinds or missing/invalid params.
    """
    if kind == "linear_coordinate":
        if not _is_index(axis) or axis < 0:
            raise InvalidParamsError(
                f"linear_coordinate needs a non-negative integer axis, got {axis!r}"
            )
        ax = int(axis)

        def measure(x, _ax=ax):
            if _ax >= x.size:
                raise InvalidParamsError(f"axis {_ax} out of range for state dim {x.size}")
            return np.array([x[_ax]])

        def jac(x, _ax=ax):
            if _ax >= x.size:
                raise InvalidParamsError(f"axis {_ax} out of range for state dim {x.size}")
            row = np.zeros((1, x.size))
            row[0, _ax] = 1.0
            return row

        return Sensor(1, measure, jac, _resolve_noise(1, noise_cov, noise_var),
                      name=name or f"linear_coordinate[{ax}]")

    if kind == "range":
        if anchor is None:
            raise InvalidParamsError("range sensor needs an anchor point")
        a = np.asarray(anchor, dtype=float)

        def offset(x, _a=a):
            if x.size != _a.size:
                raise InvalidParamsError(
                    f"range anchor has {_a.size} coordinates, state dim {x.size}"
                )
            d = x - _a
            r = float(np.linalg.norm(d))
            if r == 0.0:
                raise InvalidParamsError("range sensor evaluated at its anchor")
            return d, r

        def measure(x):
            return np.array([offset(x)[1]])

        def jac(x):
            d, r = offset(x)
            return (d / r).reshape(1, -1)

        return Sensor(1, measure, jac, _resolve_noise(1, noise_cov, noise_var),
                      name=name or "range")

    if kind == "bearing":
        if anchor is None:
            raise InvalidParamsError("bearing sensor needs an anchor point")
        a = np.asarray(anchor, dtype=float)
        if a.size < 2:
            raise InvalidParamsError("bearing anchor needs at least two coordinates")

        def measure(x, _a=a):
            if x.size < 2:
                raise InvalidParamsError("bearing sensor needs state dim >= 2")
            dx, dy = x[0] - _a[0], x[1] - _a[1]
            if dx == 0.0 and dy == 0.0:
                raise InvalidParamsError("bearing sensor evaluated at its anchor")
            return np.array([np.arctan2(dy, dx)])

        def jac(x, _a=a):
            if x.size < 2:
                raise InvalidParamsError("bearing sensor needs state dim >= 2")
            dx, dy = x[0] - _a[0], x[1] - _a[1]
            r2 = dx * dx + dy * dy
            if r2 == 0.0:
                raise InvalidParamsError("bearing sensor evaluated at its anchor")
            row = np.zeros((1, x.size))
            row[0, 0] = -dy / r2
            row[0, 1] = dx / r2
            return row

        return Sensor(1, measure, jac, _resolve_noise(1, noise_cov, noise_var),
                      name=name or "bearing")

    if kind == "quadratic":
        if weight is None:
            raise InvalidParamsError("quadratic sensor needs a weight matrix")
        W = np.atleast_2d(np.asarray(weight, dtype=float))
        if W.shape[0] != W.shape[1]:
            raise InvalidParamsError(f"weight must be square, got shape {W.shape}")
        W = 0.5 * (W + W.T)

        def measure(x, _W=W):
            if x.size != _W.shape[0]:
                raise InvalidParamsError(
                    f"quadratic weight is {_W.shape[0]} x {_W.shape[0]}, state dim {x.size}"
                )
            return np.array([0.5 * float(x @ _W @ x)])

        def jac(x, _W=W):
            if x.size != _W.shape[0]:
                raise InvalidParamsError(
                    f"quadratic weight is {_W.shape[0]} x {_W.shape[0]}, state dim {x.size}"
                )
            return (_W @ x).reshape(1, -1)

        return Sensor(1, measure, jac, _resolve_noise(1, noise_cov, noise_var),
                      name=name or "quadratic")

    raise InvalidParamsError(f"unknown sensor kind {kind!r}")
