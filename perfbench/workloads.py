"""The four workloads: seeded inputs, set-up, one round, and its checks.

Inputs come from the benchmark seed alone; the program receives only the
generated instances (library workloads) or JSON configs (CLI workloads).
All program calls go through module attributes looked up at call time,
so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sensorsched import cli, entropy_oracle, process_models, scheduler, sensing

from . import checks
from .calibration import Clock
from .tracing import CliHook, SetupReached

perf = time.perf_counter

# Horizon K of each workload at full size, and at the toy size the
# benchmark's own tests use. Full sizes keep each timed piece (a
# schedule, a certify call, a receding step) well under a second, so a
# run holds many samples of each.
SIZES = {
    "full": {"horizon": 25, "dense": 25, "certify": 3, "receding": 30},
    "toy": {"horizon": 6, "dense": 6, "certify": 2, "receding": 4},
}

# The receding inputs do not depend on the benchmark seed: with this
# config seed the CLI's Gauss-Newton MAP solves fail to converge on a
# fixed set of steps, and each such step is counted as failed.
RECEDING_SEED = 2

# Random feasible schedules evaluated against OPT on the certify workload.
RANDOM_SCHEDULES = 200

# Library schedules timed per certify round for greedy_s and lazy_s: the
# CLI's own figure is one ~2 ms sample per certify call, too short to be
# steady.
SCHEDULE_REPEATS = 50


def _rot(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def _ring_sensors(rng: np.random.Generator, kinds, n: int, phi: float, noise: dict) -> list[dict]:
    """Sensors on a ring of radius ~3 around the origin, rotated by phi.

    Range anchors sit in the position plane (padded with zeros to length
    n), bearing anchors are planar, quadratic weights are rotated with
    the scene. The seed jitters each angle (by up to 0.03 rad) and radius
    (by up to 1 %), so that the objective, which the common rotation leaves
    unchanged, still differs a little between seeds.
    """
    specs = []
    for i, kind in enumerate(kinds):
        angle = phi + 2.0 * math.pi * i / len(kinds) + rng.uniform(-0.03, 0.03)
        radius = 3.0 * rng.uniform(0.99, 1.01)
        anchor = radius * np.array([math.cos(angle), math.sin(angle)])
        if kind == "range":
            spec = {"anchor": np.concatenate([anchor, np.zeros(n - 2)]).tolist()}
        elif kind == "bearing":
            spec = {"anchor": anchor.tolist()}
        else:
            W = np.zeros((n, n))
            R = _rot(angle)
            W[:2, :2] = R @ np.diag([1.0, 0.3]) @ R.T
            W[2:, 2:] = 0.2 * np.eye(n - 2)
            spec = {"weight": W.tolist()}
        specs.append({"kind": kind, **spec, "noise_var": noise[kind]})
    order = rng.permutation(len(specs))
    return [specs[i] for i in order]


def _suite(specs: list[dict], n: int):
    sensors = []
    for spec in specs:
        kwargs = {k: (np.asarray(v, float) if isinstance(v, list) else v)
                  for k, v in spec.items() if k != "kind"}
        sensors.append(sensing.builtin_sensor(spec["kind"], **kwargs))
    return sensing.SensorSuite(state_dim=n, sensors=tuple(sensors))


def planning_instance(seed: int, K: int) -> dict:
    """Gauss-Markov target on a circle, seen by 8 range/bearing/quadratic sensors.

    State (position, velocity) in the plane, n = 4; the velocity turns by
    2 pi / 25 per step, so the prior mean circles the origin once in 25
    steps. The seed rotates the scene, permutes the sensors and jitters
    their placement.
    """
    rng = np.random.default_rng(seed)
    dt, omega = 0.5, 2.0 * math.pi / 25.0
    A = np.eye(4)
    A[:2, 2:] = dt * np.eye(2)
    A[2:, 2:] = _rot(omega)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    rho = 1.5 * rng.uniform(0.99, 1.01)
    u = np.array([math.cos(phi), math.sin(phi)])
    mu0 = np.concatenate([rho * u, rho * (_rot(omega) - np.eye(2)) @ u / dt])
    kinds = ["range", "bearing"] * 3 + ["quadratic"] * 2
    noise = {"range": 0.2, "bearing": 0.02, "quadratic": 0.5}
    return {
        "A": A,
        "Q": np.diag([0.01, 0.01, 0.02, 0.02]),
        "Sigma0": np.diag([0.3, 0.3, 0.1, 0.1]),
        "mu0": mu0,
        "K": K,
        "sensors": _ring_sensors(rng, kinds, 4, phi, noise),
        "budgets": (2,) * K,
    }


def certify_config(seed: int, K: int) -> dict:
    """Tracking prior (sparse covariance), n = 2, m = 4, s_k = 2; rotated by the seed."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    angles = phi + 2.0 * math.pi / 8.0 * np.arange(K)
    mean = 1.5 * rng.uniform(0.99, 1.01) * np.stack([np.cos(angles), np.sin(angles)], 1)
    noise = {"range": 0.3, "bearing": 0.03, "quadratic": 0.5}
    return {
        "name": f"perfbench-certify-{seed}",
        "seed": seed,
        "prior": {"kind": "tracking", "n": 2, "K": K, "marginal_var": 1.0,
                  "neighbor_corr": 0.4, "mean": mean.reshape(-1).tolist()},
        "sensors": _ring_sensors(rng, ["range", "bearing", "range", "quadratic"], 2, phi, noise),
        "budgets": 2,
        "schedulers": ["greedy", "lazy"],
    }


def receding_config(K: int) -> dict:
    """Tracking prior, n = 2, m = 6 mixed sensors, s_k = 2, receding linearization.

    Fixed inputs (RECEDING_SEED), whatever the benchmark seed.
    """
    rng = np.random.default_rng(RECEDING_SEED)
    t = 0.1 * np.arange(K)
    start = rng.uniform(0.0, 2.0 * math.pi)
    mean = 2.0 * np.stack([np.cos(start + t), np.sin(start + t)], 1)
    sensors = []
    for kind in ("range", "range", "bearing", "bearing", "linear_coordinate", "quadratic"):
        angle, radius = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(3.0, 5.0)
        spec = {"kind": kind}
        if kind in ("range", "bearing"):
            spec["anchor"] = [radius * math.cos(angle), radius * math.sin(angle)]
        elif kind == "linear_coordinate":
            spec["axis"] = int(rng.integers(2))
        else:
            B = rng.standard_normal((2, 2))
            spec["weight"] = (0.5 * (B + B.T) + np.eye(2)).tolist()
        spec["noise_var"] = float(rng.uniform(0.05, 0.5))
        sensors.append(spec)
    return {
        "name": "perfbench-receding",
        "seed": RECEDING_SEED,
        "prior": {"kind": "tracking", "n": 2, "K": K, "marginal_var": 1.0,
                  "neighbor_corr": 0.4, "mean": mean.reshape(-1).tolist()},
        "sensors": sensors,
        "budgets": 2,
        "linearization": "receding",
        "schedulers": ["greedy", "lazy"],
    }


@dataclass
class Round:
    """Timings (in reference seconds, see calibration.py) and outcome of one round."""

    wall: float
    mi: float
    attempted: int
    greedy: float = 0.0
    lazy: float = 0.0
    failed: int = 0
    steps: list[float] = field(default_factory=list)


class Planning:
    """horizon / dense: eager then lazy ``greedy_schedule`` through the library.

    One operation is one full-horizon schedule.
    """

    min_rounds = 3
    hook = None
    full_round_setup = True  # a traced round rebuilds the context first

    def __init__(self, seed: int, K: int, dense: bool) -> None:
        self.spec = planning_instance(seed, K)
        self.dense = dense
        self.prior_h: float | None = None
        self.clock = Clock()

    def setup(self) -> float:
        """Build prior, suite and context; return the reference seconds it took."""
        s = self.spec
        started = self.clock.start()
        prior = process_models.build_gauss_markov_prior(
            s["A"], s["Q"], s["Sigma0"], mu0=s["mu0"], K=s["K"]
        )
        if self.dense:
            prior = process_models.densify(prior)
        suite = _suite(s["sensors"], 4)
        ctx = entropy_oracle.make_context(prior, suite)
        took = self.clock.stop(started)
        self.prior, self.suite, self.ctx = prior, suite, ctx
        return took

    def round(self) -> Round:
        ctx, budgets, clock = self.ctx, self.spec["budgets"], self.clock
        started = clock.start()
        eager, eager_trace = scheduler.greedy_schedule(ctx, budgets)
        greedy = clock.stop(started)
        started = clock.start()
        lazy, lazy_trace = scheduler.greedy_schedule(ctx, budgets, lazy=True)
        lazy_s = clock.stop(started)
        entropy = entropy_oracle.conditional_entropy(ctx, eager)
        self.check(eager, eager_trace, lazy, lazy_trace, entropy)
        return Round(wall=greedy + lazy_s, greedy=greedy, lazy=lazy_s,
                     mi=ctx.prior_entropy - entropy, attempted=2)

    def check(self, eager, eager_trace, lazy, lazy_trace, entropy: float) -> None:
        if self.prior_h is None:
            self.prior_h = checks.dense_prior_entropy(self.prior)
        want = checks.dense_entropy(self.prior, self.suite, eager.sets)
        checks.check_close("eager entropy vs dense formula", entropy, want, 1e-9)
        checks.check_same_sets("eager vs lazy schedule", eager.sets, lazy.sets)
        for name, schedule, trace in (("eager", eager, eager_trace), ("lazy", lazy, lazy_trace)):
            checks.check_feasible(name, schedule.sets, self.spec["budgets"], self.suite.m)
            checks.check_same_sets(f"{name} trace vs schedule",
                                   [s.chosen for s in trace.steps], schedule.sets)
            checks.check_gains(name, [s.gains for s in trace.steps])
            checks.check_gain_identity(name, self.prior_h,
                                       [g for s in trace.steps for g in s.gains], want)


class CliRun:
    """certify / receding: one ``sensorsched.cli.main`` call per round.

    Set-up is probed by a CLI call that CliHook stops once the first
    context is built: config load, prior, suite and that context. The
    round's wall time is the call's, less the calibration samples CliHook
    takes inside it; each receding step is scaled on its own.
    """

    full_round_setup = False  # every CLI call builds its own context

    def __init__(self, verb: str, config: dict, run_dir: Path) -> None:
        run_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = run_dir / "config.json"
        self.config_path.write_text(json.dumps(config, indent=1) + "\n")
        self.out = run_dir / "out"
        self.argv = [verb, "--config", str(self.config_path), "--output-dir", str(self.out)]
        self.clock = Clock()
        self.hook = CliHook(self.clock)
        self.first: dict[str, bytes] = {}
        self.K, self.m = config["prior"]["K"], len(config["sensors"])
        self.budgets = (config["budgets"],) * self.K

    def _main(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(self.argv)
        if status != 0:
            raise checks.CheckError(f"sensorsched {self.argv[0]} exited with {status}")

    def setup(self) -> float:
        self.hook.probe = True
        started = self.clock.start()
        try:
            self._main()
        except SetupReached as reached:
            return self.clock.lap(reached.args[0] - started)
        finally:
            self.hook.probe = False
        raise RuntimeError("the CLI finished without building a context")

    def round(self) -> Round:
        steps, clock = self.hook.steps, self.clock
        steps.clear()
        started = clock.start()
        spent = clock.spent
        self._main()
        rest = perf() - started - (clock.spent - spent) - sum(s.raw for s in steps)
        wall = sum(s.seconds for s in steps) + clock.lap(rest)
        results = checks.read_results(self.out / "results.csv")
        for name in ("results.csv", "trace.csv"):
            data = (self.out / name).read_bytes()
            checks.check_identical(name, self.first.setdefault(name, data), data)
        greedy, lazy = results["greedy"], results["lazy"]
        for column in ("entropy_nats", "mutual_info_nats"):
            if greedy[column] != lazy[column]:
                raise checks.CheckError(
                    f"results.csv: greedy and lazy rows disagree on {column}: "
                    f"{greedy[column]} vs {lazy[column]}"
                )
        sets, gains = checks.read_trace(self.out / "trace.csv", self.K)
        checks.check_feasible("trace.csv", sets, self.budgets, self.m)
        checks.check_gains("trace.csv", gains)
        fields = {"wall": wall, "mi": float(greedy["mutual_info_nats"])}
        fields.update(self.check(results, sets))
        return Round(**fields)


class Certify(CliRun):
    """``sensorsched certify``: greedy, lazy and exhaustive enumeration.

    One operation is one certify call. Unless ``time_schedules`` is off (the
    traced run, which reports no greedy_s or lazy_s), each round also
    times SCHEDULE_REPEATS eager and lazy library schedules of the same
    instance for greedy_s and lazy_s.
    """

    min_rounds = 3

    def __init__(self, seed: int, K: int, run_dir: Path, time_schedules: bool = True) -> None:
        config = certify_config(seed, K)
        super().__init__("certify", config, run_dir)
        p = config["prior"]
        # the same instance, built through the library for the dense formula
        self.prior = process_models.build_tracking_prior(
            p["n"], p["K"], p["marginal_var"], p["neighbor_corr"], mean=np.asarray(p["mean"])
        )
        self.suite = _suite(config["sensors"], p["n"])
        self.ctx = entropy_oracle.make_context(self.prior, self.suite) if time_schedules else None
        self.rng_seed = seed
        self.random_checked = False

    def check(self, results: dict, sets) -> dict:
        greedy_h = float(results["greedy"]["entropy_nats"])
        opt_h = float(results["exhaustive"]["entropy_nats"])
        for name in ("greedy", "lazy"):
            checks.check_bound_ratio(f"{name} bound_ratio", float(results[name]["bound_ratio"]))
        checks.check_not_above("exhaustive entropy vs greedy entropy", opt_h, greedy_h)
        checks.check_enumeration_count(int(results["exhaustive"]["oracle_calls"]), self.m, self.budgets)
        checks.check_close("greedy entropy from trace.csv vs dense formula", greedy_h,
                           checks.dense_entropy(self.prior, self.suite, sets), checks.CSV_TOL)
        if not self.random_checked:  # later rounds are byte-identical
            rng = np.random.default_rng(self.rng_seed)
            for _ in range(RANDOM_SCHEDULES):
                random_sets = checks.random_feasible_sets(rng, self.m, self.budgets)
                checks.check_not_above(
                    f"OPT vs random schedule {random_sets}", opt_h,
                    checks.dense_entropy(self.prior, self.suite, random_sets), 1e-9,
                )
            self.random_checked = True
        if self.ctx is None:
            return {"attempted": 1}
        return {"attempted": 1, **self.time_schedules(sets)}

    def time_schedules(self, cli_sets) -> dict:
        """Mean reference seconds of one eager and one lazy ``greedy_schedule``."""
        took = {}
        for name, lazy in (("greedy", False), ("lazy", True)):
            started = self.clock.start()
            for _ in range(SCHEDULE_REPEATS):
                schedule, _ = scheduler.greedy_schedule(self.ctx, self.budgets, lazy=lazy)
            took[name] = self.clock.stop(started) / SCHEDULE_REPEATS
            checks.check_same_sets(f"library {name} vs trace.csv", schedule.sets, cli_sets)
        return took


class Receding(CliRun):
    """``sensorsched run`` with receding linearization, greedy and lazy.

    One operation is one receding step; a step whose MAP estimate reports
    ``converged=False`` counts as failed. ``greedy`` and ``lazy`` are the
    sums of the K steps of each scheduler's run.
    """

    min_rounds = 2

    def __init__(self, seed: int, K: int, run_dir: Path) -> None:
        super().__init__("run", receding_config(K), run_dir)

    def check(self, results: dict, sets) -> dict:
        steps = self.hook.steps
        if len(steps) != 2 * self.K:
            raise checks.CheckError(f"saw {len(steps)} receding steps, expected {2 * self.K}")
        took = [s.seconds for s in steps]
        return {
            "attempted": len(steps),
            "failed": sum(not s.converged for s in steps),
            "steps": took,
            # the CLI runs its schedulers in config order: greedy, then lazy
            "greedy": sum(took[:self.K]),
            "lazy": sum(took[self.K:]),
        }


def make(name: str, seed: int, size: str, run_dir: Path, traced: bool = False):
    K = SIZES[size][name]
    if name in ("horizon", "dense"):
        return Planning(seed, K, dense=name == "dense")
    if name == "certify":
        return Certify(seed, K, run_dir, time_schedules=not traced)
    return Receding(seed, K, run_dir)


WORKLOADS = ("horizon", "dense", "certify", "receding")
