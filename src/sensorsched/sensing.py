"""Sensors, sensor suites and selection schedules.

Selection matrices are never materialized: a per-step selection is an
index set into the suite, and every formula that multiplies by a
selection matrix gathers the selected sensors' rows instead, from the
(K, m, d, n) stack of whitened Jacobians of an oracle context
(``entropy_oracle.make_context``). d is the largest ``output_dim`` in the
suite, and a sensor's rows beyond its own ``output_dim`` are zero.
"""

from __future__ import annotations

import functools
import itertools
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
    if type(value) is int:  # the common case, without the costlier ABC check
        return True
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


def _check_budgets(budgets, K: int, m: int) -> tuple[int, ...]:
    """K budgets, each checked by ``_check_budget``."""
    budgets = tuple(budgets)
    if len(budgets) != K:
        raise DimensionMismatchError(f"{len(budgets)} budgets for a horizon of {K}")
    return tuple(_check_budget(k, s_k, m) for k, s_k in enumerate(budgets))


def _pick_index(sets) -> np.ndarray:
    """The read-only (q, len(sets)) pick index of sorted index sets: column j
    is ``sets[j]`` padded with -1, and q the most picks in any set (1 if
    every set is empty). -1 reads a padded stack's last slot, its zeros."""
    picks = np.array(list(itertools.zip_longest(*sets, fillvalue=-1)) or [(-1,) * len(sets)],
                     dtype=np.intp)
    picks.setflags(write=False)
    return picks


def _check_picks(picks: np.ndarray, K: int, m: int) -> None:
    """A schedule's pick index fits a horizon of K steps and a suite of m sensors."""
    if picks.shape[1] != K:
        raise DimensionMismatchError(f"schedule has {picks.shape[1]} steps, prior horizon is {K}")
    if picks.max() >= m:
        k = int((picks >= m).any(axis=0).argmax())
        raise DimensionMismatchError(f"step {k} selects a sensor index >= m={m}")


@dataclass(frozen=True, eq=False)
class Sensor:
    """One nonlinear sensor: measurement map, Jacobian, Gaussian noise.

    ``measure`` maps a state vector to a length-``output_dim`` vector and
    ``jacobian`` to its (output_dim x n) derivative. ``measure_at`` and
    ``jacobian_at`` evaluate them, checking the shape, at one state or at
    each row of a (P, n) stack of states; a built-in sensor's maps
    (``builtin_sensor``) take the whole stack in one call, and any other
    sensor's are applied row by row. ``noise_cov`` is the
    SPD noise covariance, constant over time unless ``noise_overrides``
    maps specific step indices (non-negative integers) to replacement
    covariances. Each of these is factored once, here, as R = L L^T;
    ``noise_factor_at`` returns L. Sensors compare and hash by identity.

    Raises:
        NotPositiveDefiniteError: a noise covariance is not SPD.
        InvalidParamsError: ``output_dim`` is not an integer >= 1 (a bool
            is not one), a noise covariance holds NaN or infinite values,
            or an override key is not a non-negative integer.
    """

    output_dim: int
    measure: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    noise_cov: np.ndarray
    name: str = ""
    noise_overrides: Mapping[int, np.ndarray] | None = None

    def __post_init__(self):
        if not _is_index(self.output_dim) or self.output_dim < 1:
            raise InvalidParamsError(f"sensor {self.name!r}: output_dim must be an integer >= 1, "
                                     f"got {self.output_dim!r}")
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
        """The measurement at one state, (output_dim,), or at each row of a
        (P, n) stack of states, (P, output_dim)."""
        x = np.asarray(x)
        if x.ndim == 2:
            return self._on_stack(self.measure, self.measure_at, x, (self.output_dim,))
        z = np.asarray(self.measure(x), dtype=float)
        if z.ndim == 0:
            z = z.reshape(1)
        if z.shape != (self.output_dim,):
            raise DimensionMismatchError(
                f"sensor {self.name!r} returned shape {z.shape}, "
                f"expected ({self.output_dim},)"
            )
        return z

    def jacobian_at(self, x: np.ndarray) -> np.ndarray:
        """The Jacobian at one state, (output_dim, n), or at each row of a
        (P, n) stack of states, (P, output_dim, n)."""
        x = np.asarray(x)
        if x.ndim == 2:
            return self._on_stack(self.jacobian, self.jacobian_at, x, (self.output_dim, x.shape[1]))
        J = np.asarray(self.jacobian(x), dtype=float)
        if J.ndim < 2:
            J = J.reshape(1, -1)
        if J.shape != (self.output_dim, x.size):
            raise DimensionMismatchError(
                f"sensor {self.name!r} jacobian has shape {J.shape}, "
                f"expected ({self.output_dim}, {x.size})"
            )
        return J

    def _on_stack(self, f, at_state, X: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        """The map f at each row of X: one call for a built-in map, else row by row."""
        shape = (len(X),) + shape
        if isinstance(f, _StackedMap):
            return self._stack_shaped(f.stacked(X.astype(float, copy=False)), shape)
        out = np.empty(shape)
        for p, x in enumerate(X):
            out[p] = at_state(x)
        return out

    def _stack_shaped(self, out: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
        if out.shape != shape:
            raise DimensionMismatchError(
                f"sensor {self.name!r} returned shape {out.shape} on a stack, expected {shape}"
            )
        return out

    def _residual(self, Y: np.ndarray, Z: np.ndarray, out: np.ndarray) -> None:
        """Readings Y less predictions Z, written to ``out``. An angle's
        residual outside (-pi, pi] is shifted by 2 pi, so a reading just
        across the cut at +-pi lies near its prediction, not a turn away;
        every other residual keeps the bits of the plain difference."""
        np.subtract(Y, Z, out=out)
        if getattr(self.measure, "angular", False) and np.abs(out).max() >= math.pi:
            out[out > math.pi] -= 2.0 * math.pi
            out[out <= -math.pi] += 2.0 * math.pi

    def _measure_and_jacobian(self, X: np.ndarray):
        """``measure_at`` and ``jacobian_at`` of a (P, n) float stack, equal to
        theirs bit for bit, and the (P, d, n, n) second derivatives of a
        built-in sensor's outputs, or None for any other sensor. A built-in
        sensor's two maps share one ``evaluate``, which gives all three in
        one call; any other sensor makes both calls."""
        evaluate = getattr(self.measure, "evaluate", None)
        if evaluate is None or evaluate is not getattr(self.jacobian, "evaluate", None):
            return self.measure_at(X), self.jacobian_at(X), None
        out = evaluate(X, True)
        P, d, n = len(X), self.output_dim, X.shape[1]
        return (self._stack_shaped(out[self.measure.which], (P, d)),
                self._stack_shaped(out[self.jacobian.which], (P, d, n)),
                self._stack_shaped(out[2], (P, d, n, n)))


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

    Every evaluation reads the sets through ``_picks``, their
    ``_pick_index``, built on first read and never compared, hashed,
    shown or pickled.
    """

    sets: tuple[tuple[int, ...], ...]
    budgets: tuple[int, ...]

    def __post_init__(self):
        # no suite here, so no upper bound
        budgets = tuple(_check_budget(k, s, math.inf) for k, s in enumerate(self.budgets))
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
    def _unchecked(cls, sets, budgets, picks: np.ndarray) -> "Schedule":
        # internal fast path for the scheduler, which builds an already-valid
        # schedule of sorted index tuples for every gain, with its pick index
        obj = object.__new__(cls)
        object.__setattr__(obj, "sets", sets)
        object.__setattr__(obj, "budgets", budgets)
        obj.__dict__["_picks"] = picks
        return obj

    @functools.cached_property
    def _picks(self) -> np.ndarray:
        return _pick_index(self.sets)

    def __getstate__(self):
        return {"sets": self.sets, "budgets": self.budgets}

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


class _StackedMap:
    """One output of a built-in sensor kind's ``evaluate``, which maps a
    (P, n) stack of states to its (P, 1) values and (P, 1, n) Jacobians
    together, and with ``second`` set to its (P, 1, n, n) second
    derivatives as well; ``which`` is 0 for the values and 1 for the
    Jacobians.

    Called on one state, it evaluates a one-row stack and returns row 0,
    so the one-state and stacked forms cannot drift. ``Sensor.measure_at``
    and ``Sensor.jacobian_at`` call ``stacked`` on a whole stack at once,
    and ``Sensor._measure_and_jacobian`` makes one ``evaluate`` call, with
    ``second`` set, when both maps share it. ``angular`` marks a measure map whose values are
    angles in (-pi, pi].
    """

    __slots__ = ("evaluate", "which", "angular")

    def __init__(self, evaluate, which: int, angular: bool = False):
        self.evaluate = evaluate
        self.which = which
        self.angular = angular

    def stacked(self, X: np.ndarray) -> np.ndarray:
        return self.evaluate(X)[self.which]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.stacked(np.asarray(x, dtype=float).reshape(1, -1))[0]


def _stacked_sensor(evaluate, noise_cov, noise_var, name, angular=False) -> Sensor:
    """A one-output sensor whose measure and Jacobian maps are ``evaluate``'s two outputs."""
    return Sensor(1, _StackedMap(evaluate, 0, angular), _StackedMap(evaluate, 1),
                  _resolve_noise(1, noise_cov, noise_var), name=name)


def _given(kind: str, field: str, value, what: str) -> np.ndarray:
    """``value`` as a float array; raises naming the kind and the field
    when it is missing or not finite."""
    if value is None:
        raise InvalidParamsError(f"{kind} sensor needs {what}")
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise InvalidParamsError(f"{kind} {field} is not finite")
    return arr


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

    Each kind is one evaluation of a (P, n) stack of states that gives its
    values and Jacobians together, so ``measure_at`` and ``jacobian_at``
    evaluate a whole stack in one call; the returned sensor's one-state
    ``measure`` and ``jacobian`` read row 0 of a one-row stack. A stack is
    checked as a whole: one row at an anchor, or a stack of the wrong
    width, raises the error a one-state call raises. A bearing is also
    singular where its offset from the anchor is not zero but its square
    underflows. The same evaluation gives each state's n x n second
    derivative, for the MAP's Newton iteration only; ``measure_at`` and
    ``jacobian_at`` never compute it.

    Kinds (second derivative in brackets):
        linear_coordinate: reads state coordinate ``axis`` [0].
        range: Euclidean distance r to ``anchor``; singular at the anchor
            [(I - u u^T) / r, u the unit offset].
        bearing: planar angle to ``anchor`` from the first two state
            coordinates; singular at the anchor [the 2 x 2 block of
            atan2's second derivative, zero elsewhere].
        quadratic: 0.5 * x^T W x with symmetric ``weight`` W [W].

    Raises:
        InvalidParamsError: for unknown kinds or missing/invalid params,
            e.g. an anchor or weight that is not finite (names the kind
            and the field).
    """
    if kind == "linear_coordinate":
        if not _is_index(axis) or axis < 0:
            raise InvalidParamsError(
                f"linear_coordinate needs a non-negative integer axis, got {axis!r}"
            )
        ax = int(axis)

        def coordinate(X, second=False):
            P, n = X.shape
            if ax >= n:
                raise InvalidParamsError(f"axis {ax} out of range for state dim {n}")
            J = np.zeros((P, 1, n))
            J[:, 0, ax] = 1.0
            return (X[:, [ax]], J) + ((np.zeros((P, 1, n, n)),) if second else ())

        return _stacked_sensor(coordinate, noise_cov, noise_var, name or f"linear_coordinate[{ax}]")

    if kind == "range":
        a = _given("range", "anchor", anchor, "an anchor point")
        identity = np.eye(a.size)

        def distance(X, second=False):
            if X.shape[1] != a.size:
                raise InvalidParamsError(
                    f"range anchor has {a.size} coordinates, state dim {X.shape[1]}"
                )
            D = X - a
            # the per-row product is the one-state d @ d, bit for bit; its
            # square root is what np.linalg.norm computes
            r = np.sqrt(D[:, None, :] @ D[:, :, None])[:, 0]
            if (r == 0.0).any():
                raise InvalidParamsError("range sensor evaluated at its anchor")
            U = (D / r)[:, None, :]
            if not second:
                return r, U
            # the unit offset u's derivative, (I - u u^T) / r
            return r, U, ((identity - U.swapaxes(1, 2) * U) / r[:, :, None])[:, None]

        return _stacked_sensor(distance, noise_cov, noise_var, name or "range")

    if kind == "bearing":
        a = _given("bearing", "anchor", anchor, "an anchor point")
        if a.size < 2:
            raise InvalidParamsError("bearing anchor needs at least two coordinates")

        def angle(X, second=False):
            P, n = X.shape
            if n < 2:
                raise InvalidParamsError("bearing sensor needs state dim >= 2")
            dx, dy = X[:, 0] - a[0], X[:, 1] - a[1]
            # singular at the anchor, and where the offset's square underflows
            r2 = dx * dx + dy * dy
            if (r2 == 0.0).any():
                raise InvalidParamsError("bearing sensor evaluated at its anchor")
            u, v = dx / r2, dy / r2
            J = np.zeros((P, 1, n))
            J[:, 0, 0] = -v
            J[:, 0, 1] = u
            if not second:
                return np.arctan2(dy, dx)[:, None], J
            # the derivative of (-dy, dx) / r2 in the plane of the first two coordinates
            H = np.zeros((P, 1, n, n))
            H[:, 0, 0, 0] = 2.0 * u * v
            H[:, 0, 1, 1] = -H[:, 0, 0, 0]
            H[:, 0, 0, 1] = H[:, 0, 1, 0] = v * v - u * u
            return np.arctan2(dy, dx)[:, None], J, H

        return _stacked_sensor(angle, noise_cov, noise_var, name or "bearing", angular=True)

    if kind == "quadratic":
        W = np.atleast_2d(_given("quadratic", "weight", weight, "a weight matrix"))
        if W.shape[0] != W.shape[1]:
            raise InvalidParamsError(f"weight must be square, got shape {W.shape}")
        W = 0.5 * (W + W.T)

        def form(X, second=False):
            if X.shape[1] != W.shape[0]:
                raise InvalidParamsError(
                    f"quadratic weight is {W.shape[0]} x {W.shape[0]}, state dim {X.shape[1]}"
                )
            # per row, these products are the one-state x @ W @ x and W @ x, bit for bit
            z, J = (0.5 * ((X[:, None, :] @ W) @ X[:, :, None])[:, 0],
                    (W @ X[:, :, None]).transpose(0, 2, 1))
            if not second:
                return z, J
            H = np.empty((len(X), 1) + W.shape)
            H[:] = W
            return z, J, H

        return _stacked_sensor(form, noise_cov, noise_var, name or "quadratic")

    raise InvalidParamsError(f"unknown sensor kind {kind!r}")
