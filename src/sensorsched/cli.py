"""Scenario-driven command-line harness.

Verbs:
    run      build the instance from a JSON config, run the requested
             schedulers, write results.csv / trace.csv / timings.csv and
             a manifest echoing every resolved value.
    certify  run greedy plus exhaustive enumeration and report the bound.

Outputs are deterministic for a fixed config and seed: results.csv and
trace.csv are byte-identical across runs, with all wall-clock numbers
kept in the separate timings.csv. Floats are printed with 12 significant
digits. One root seed drives every stochastic component through
deterministically derived child seeds.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .blocklinalg import _cholesky
from .entropy_oracle import conditional_entropy, make_context, map_linearization
from .errors import ConfigError, DimensionMismatchError, SensorSchedError
from .exhaustive import _is_cap, certify_bound, exhaustive_optimum
from .process_models import (
    GaussianPrior,
    build_dense_prior,
    build_gauss_markov_prior,
    build_tracking_prior,
    densify,
)
from .scheduler import GreedyTrace, StepTrace, greedy_schedule, greedy_step_detailed, random_schedule
from .sensing import Schedule, SensorSuite, _check_budgets, _is_index, builtin_sensor

__all__ = ["Scenario", "load_scenario", "run_scenario", "main"]

logger = logging.getLogger(__name__)

_SCHEDULERS = ("greedy", "lazy", "random", "exhaustive")
_LINEARIZATIONS = ("prior_mean", "receding")
# the fields a config may hold: at its root, and per prior and sensor kind
_ROOT_FIELDS = ("name", "seed", "prior", "dense", "sensors", "budgets", "linearization",
                "schedulers", "exhaustive_cap")
_PRIOR_FIELDS = {
    "tracking": ("kind", "n", "K", "marginal_var", "neighbor_corr", "mean"),
    "gauss_markov": ("kind", "n", "K", "A", "Q", "Sigma0", "mu0"),
    "dense_custom": ("kind", "n", "K", "representation", "matrix", "mean"),
}
_SENSOR_FIELDS = {
    kind: ("kind", "noise_var", "noise_cov") + extra
    for kind, extra in (("linear_coordinate", ("axis",)), ("range", ("anchor",)),
                        ("bearing", ("anchor",)), ("quadratic", ("weight",)))
}


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


@dataclass(frozen=True)
class Scenario:
    """Fully resolved scenario configuration."""

    name: str
    seed: int
    prior: dict
    dense: bool
    sensors: tuple[dict, ...]
    budgets: tuple[int, ...]
    linearization: str
    schedulers: tuple[str, ...]
    exhaustive_cap: int

    def resolved(self) -> dict:
        """Manifest payload; itself a valid config that re-runs identically."""
        return dataclasses.asdict(self)


def _require(cfg: dict, field: str, types, path: str):
    """cfg[field], which must be one of ``types``; JSON true/false is not a number."""
    if field not in cfg:
        raise ConfigError(f"{path}{field}: missing required field")
    value = cfg[field]
    types = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise ConfigError(
            f"{path}{field}: expected {' or '.join(t.__name__ for t in types)}, "
            f"got {type(value).__name__}"
        )
    return value


def _optional(cfg: dict, field: str, default, valid, expected: str):
    """cfg[field], or ``default`` when it is absent; ``valid`` tells a good value."""
    value = cfg.get(field, default)
    if not valid(value):
        raise ConfigError(f"{field}: {expected}, got {value!r}")
    return value


def _known_fields(cfg: dict, fields: tuple[str, ...], path: str, what: str) -> None:
    """Reject the first field of ``cfg`` that is not in ``fields``, naming its path."""
    for field in cfg:
        if field not in fields:
            raise ConfigError(f"{path}{field}: unknown field for {what}; "
                              f"expected one of {', '.join(fields)}")


def _number(cfg: dict, field: str, path: str) -> float:
    value = float(_require(cfg, field, (int, float), path))
    if not np.isfinite(value):
        raise ConfigError(f"{path}{field}: must be finite, got {value}")
    return value


def _numbers(value, path: str) -> np.ndarray:
    """A finite float array from a number or a rectangular nest of numbers."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise ConfigError(f"{path}: expected a rectangular array of numbers") from exc
    if arr.dtype.kind not in "iuf":  # strings, booleans, null, ...
        raise ConfigError(f"{path}: expected numbers, got {value!r}")
    arr = arr.astype(float)
    if not np.isfinite(arr).all():
        raise ConfigError(f"{path}: must be finite")
    return arr


def _matrix(cfg: dict, field: str, n_rows: int, n_cols: int, path: str) -> list[list[float]]:
    arr = _numbers(_require(cfg, field, list, path), path + field)
    if arr.shape != (n_rows, n_cols):
        raise ConfigError(
            f"{path}{field}: expected a {n_rows}x{n_cols} matrix, got shape {arr.shape}"
        )
    return arr.tolist()


def _vector(value, length: int, path: str) -> list[float]:
    arr = _numbers(value, path).reshape(-1)
    if arr.shape != (length,):
        raise ConfigError(f"{path}: expected length {length}")
    return arr.tolist()


def _validate_prior(cfg: Any, path: str = "prior.") -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("prior: expected an object")
    kind = _require(cfg, "kind", str, path)
    if kind not in _PRIOR_FIELDS:
        raise ConfigError(f"{path}kind: unknown prior kind {kind!r}")
    _known_fields(cfg, _PRIOR_FIELDS[kind], path, f"a {kind} prior")
    for field in ("n", "K"):
        if _require(cfg, field, int, path) < 1:
            raise ConfigError(f"{path}{field}: must be >= 1, got {cfg[field]}")
    n, K = cfg["n"], cfg["K"]
    out = {"kind": kind, "n": n, "K": K}
    if kind == "tracking":
        var = _number(cfg, "marginal_var", path)
        corr = _number(cfg, "neighbor_corr", path)
        if var <= 0:
            raise ConfigError(f"{path}marginal_var: must be positive, got {var}")
        if not -1.0 < corr < 1.0:
            raise ConfigError(f"{path}neighbor_corr: must be in (-1, 1), got {corr}")
        out["marginal_var"] = var
        out["neighbor_corr"] = corr
        out["mean"] = _vector(cfg.get("mean", [0.0] * (n * K)), n * K, path + "mean")
    elif kind == "gauss_markov":
        for field in ("A", "Q", "Sigma0"):
            out[field] = _matrix(cfg, field, n, n, path)
        out["mu0"] = _vector(cfg.get("mu0", [0.0] * n), n, path + "mu0")
    else:  # dense_custom
        rep = cfg.get("representation", "covariance")
        if rep not in ("covariance", "precision"):
            raise ConfigError(
                f"{path}representation: must be 'covariance' or 'precision', got {rep!r}"
            )
        out["representation"] = rep
        out["matrix"] = _matrix(cfg, "matrix", n * K, n * K, path)
        out["mean"] = _vector(cfg.get("mean", [0.0] * (n * K)), n * K, path + "mean")
    return out


def _validate_sensor(cfg: Any, n: int, idx: int) -> dict:
    path = f"sensors[{idx}]."
    if not isinstance(cfg, dict):
        raise ConfigError(f"sensors[{idx}]: expected an object")
    kind = _require(cfg, "kind", str, path)
    if kind not in _SENSOR_FIELDS:
        raise ConfigError(f"{path}kind: unknown sensor kind {kind!r}")
    _known_fields(cfg, _SENSOR_FIELDS[kind], path, f"a {kind} sensor")
    if kind == "bearing" and n < 2:
        raise ConfigError(f"{path}kind: a bearing sensor needs state dim n >= 2, got n={n}")
    out = {"kind": kind}
    if "noise_cov" in cfg and "noise_var" in cfg:
        raise ConfigError(f"{path}noise_var: give noise_cov or noise_var, not both")
    if "noise_cov" in cfg:
        out["noise_cov"] = np.atleast_2d(_numbers(cfg["noise_cov"], path + "noise_cov")).tolist()
    elif "noise_var" in cfg:
        var = _number(cfg, "noise_var", path)
        if var <= 0:
            raise ConfigError(f"{path}noise_var: must be positive, got {var!r}")
        out["noise_var"] = var
    else:
        raise ConfigError(f"{path}noise_var: sensor needs noise_var or noise_cov")
    if kind == "linear_coordinate":
        axis = _require(cfg, "axis", int, path)
        if not 0 <= axis < n:
            raise ConfigError(f"{path}axis: must be in [0, {n}), got {axis}")
        out["axis"] = axis
    elif kind in ("range", "bearing"):
        anchor = _numbers(_require(cfg, "anchor", list, path), path + "anchor").reshape(-1)
        if kind == "range" and anchor.shape != (n,):
            raise ConfigError(f"{path}anchor: expected length {n}")
        if kind == "bearing" and anchor.size < 2:
            raise ConfigError(f"{path}anchor: bearing anchor needs >= 2 coordinates")
        out["anchor"] = anchor.tolist()
    else:  # quadratic
        out["weight"] = _matrix(cfg, "weight", n, n, path)
    return out


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a JSON scenario config.

    Raises:
        ConfigError: with a field-level message on the first violation.
    """
    try:
        with open(path) as f:
            cfg = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root: expected an object")
    _known_fields(cfg, _ROOT_FIELDS, "", "a config")

    name = _optional(cfg, "name", Path(path).stem, lambda v: isinstance(v, str),
                     "expected a string")
    seed = _optional(cfg, "seed", 0, lambda v: _is_index(v) and v >= 0,
                     "must be a non-negative integer")
    prior = _validate_prior(_require(cfg, "prior", dict, ""))
    n, K = prior["n"], prior["K"]
    dense = _optional(cfg, "dense", False, lambda v: isinstance(v, bool), "expected a boolean")

    raw_sensors = _require(cfg, "sensors", list, "")
    if not raw_sensors:
        raise ConfigError("sensors: need at least one sensor")
    sensors = tuple(_validate_sensor(s, n, i) for i, s in enumerate(raw_sensors))

    raw_budgets = _require(cfg, "budgets", (int, list), "")
    try:
        budgets = _check_budgets(raw_budgets if isinstance(raw_budgets, list) else [raw_budgets] * K,
                                 K, len(sensors))
    except DimensionMismatchError as exc:
        raise ConfigError(f"budgets: {exc}") from exc

    linearization = _optional(cfg, "linearization", "prior_mean",
                              lambda v: v in _LINEARIZATIONS, f"must be one of {_LINEARIZATIONS}")

    schedulers = cfg.get("schedulers", ["greedy"])
    if not isinstance(schedulers, list):
        raise ConfigError(f"schedulers: expected a list, got {type(schedulers).__name__}")
    schedulers = tuple(schedulers)
    if not schedulers:
        raise ConfigError("schedulers: need at least one scheduler")
    for j, s in enumerate(schedulers):
        if s not in _SCHEDULERS:
            raise ConfigError(f"schedulers: unknown scheduler {s!r}")
        if s in schedulers[:j]:
            raise ConfigError(f"schedulers: {s!r} is named more than once")

    cap = _optional(cfg, "exhaustive_cap", 10**6, _is_cap, "must be a positive integer")

    return Scenario(
        name=name,
        seed=seed,
        prior=prior,
        dense=dense,
        sensors=sensors,
        budgets=budgets,
        linearization=linearization,
        schedulers=schedulers,
        exhaustive_cap=cap,
    )


def _build_prior(spec: dict) -> GaussianPrior:
    """The prior a validated spec describes: its fields are the builder's keywords."""
    kind, kwargs = spec["kind"], {k: v for k, v in spec.items() if k != "kind"}
    if kind == "tracking":
        return build_tracking_prior(**kwargs)
    if kind == "gauss_markov":
        del kwargs["n"]  # the builder reads n from A
        return build_gauss_markov_prior(**kwargs)
    return build_dense_prior(**kwargs)


def _build_suite(sensor_specs: Sequence[dict], n: int) -> SensorSuite:
    sensors = []
    for idx, spec in enumerate(sensor_specs):
        kwargs = {k: v for k, v in spec.items() if k != "kind"}
        try:
            sensors.append(builtin_sensor(spec["kind"], **kwargs))
        except SensorSchedError as exc:
            raise ConfigError(f"sensors[{idx}]: {exc}") from exc
    return SensorSuite(state_dim=n, sensors=tuple(sensors))


def _fresh(path: Path):
    """Open ``path`` for writing as a new file, unlinking any old one first.

    Truncating a small existing file and rewriting it can cost tens of
    milliseconds on ext4, whose replace-via-truncate heuristic
    (``auto_da_alloc``) starts writing the file back when it is closed; a
    new file is not flushed that way."""
    path.unlink(missing_ok=True)
    return open(path, "w", newline="")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with _fresh(path) as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def _simulate_measurements(suite, chosen, k, x_true_k, rng):
    """Noisy readings at step k of the sensors ``chosen``, their noise drawn
    in pick order and their readings stacked in ascending sensor order,
    the order of ``Schedule`` sets and so of ``map_linearization``."""
    parts = {}
    for i in chosen:
        sensor = suite.sensors[i]
        noise = sensor.noise_factor_at(k) @ rng.standard_normal(sensor.output_dim)
        parts[i] = sensor.measure_at(x_true_k) + noise
    return np.concatenate([parts[i] for i in sorted(parts)]) if parts else None


def _receding_greedy(prior, suite, budgets, lazy, seed):
    """Greedy planning that re-linearizes at the running MAP estimate.

    Ground truth is simulated from the prior; after each step the chosen
    sensors are sampled and the MAP estimate refreshed, so later steps
    linearize where the data points. A step's readings are stacked in
    ascending sensor order, as its sorted ``Schedule`` set lists them,
    whatever order greedy picked them in. Each MAP solve starts from the
    previous step's estimate (the prior mean at step 0), which is also
    where that step's context was linearized; a new step adds one step's
    readings, so the solve starts near its answer.
    """
    rng = np.random.default_rng(seed)
    cov = prior.covariance_dense()
    x_true = np.asarray(prior.mean) + _cholesky(cov) @ rng.standard_normal(prior.dim)

    K = prior.K
    measurements: list[np.ndarray | None] = [None] * K
    linearization = np.asarray(prior.mean)
    steps: list[StepTrace] = []
    # steps k and beyond are still empty, so the picks so far are the prefix
    schedule = Schedule.empty(budgets)
    ctx = None
    for k in range(K):
        ctx = make_context(prior, suite, linearization=linearization)
        detail = greedy_step_detailed(ctx, schedule, k, budgets[k], lazy=lazy)
        measurements[k] = _simulate_measurements(
            suite, detail.chosen, k, x_true.reshape(K, prior.n)[k], rng
        )
        # the schedule this step's MAP solve reads is the next step's prefix
        schedule = schedule._with_step(k, detail.chosen)
        solution = map_linearization(prior, suite, schedule, measurements, initial=linearization)
        if not solution.converged:
            logger.warning(
                "receding step %d: MAP linearization did not converge in %d iterations",
                k, solution.iterations,
            )
        linearization = solution.estimate
        steps.append(detail)
    return schedule, GreedyTrace(steps=tuple(steps)), ctx


def run_scenario(
    config_path: str | Path,
    output_dir: str | Path | None = None,
    *,
    force_schedulers: tuple[str, ...] | None = None,
) -> dict[str, Path]:
    """Execute a scenario config and write the report files.

    Returns a mapping of output names to their paths: results, trace,
    timings, manifest.

    Raises:
        ConfigError: the config is invalid, or pairs "receding" linearization
            with the "exhaustive" scheduler (``force_schedulers`` included).
    """
    scenario = load_scenario(config_path)
    if force_schedulers is not None:
        schedulers = tuple(
            dict.fromkeys(tuple(force_schedulers) + scenario.schedulers)
        )
        scenario = dataclasses.replace(scenario, schedulers=schedulers)
    if scenario.linearization == "receding" and "exhaustive" in scenario.schedulers:
        # OPT is scored under the prior-mean context, a receding row under its own
        raise ConfigError("schedulers: 'exhaustive' cannot certify linearization 'receding'")
    out_dir = Path(output_dir) if output_dir is not None else Path(config_path).parent
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        prior = _build_prior(scenario.prior)
    except SensorSchedError as exc:
        raise ConfigError(f"prior: {exc}") from exc
    if scenario.dense:
        prior = densify(prior)
    suite = _build_suite(scenario.sensors, scenario.prior["n"])
    budgets = scenario.budgets

    seed_seq = np.random.SeedSequence(scenario.seed)
    random_seed, receding_seed = (int(c.generate_state(1)[0]) for c in seed_seq.spawn(2))

    plan_ctx = make_context(prior, suite)

    rows = []
    trace_rows: list[tuple[int, int, int, float]] = []
    timing_rows = []
    exhaustive_result = None

    for scheduler_name in scenario.schedulers:
        started = time.perf_counter()
        if scheduler_name in ("greedy", "lazy"):
            lazy = scheduler_name == "lazy"
            if scenario.linearization == "receding":
                schedule, trace, report_ctx = _receding_greedy(
                    prior, suite, budgets, lazy, receding_seed
                )
            else:
                schedule, trace = greedy_schedule(plan_ctx, budgets, lazy=lazy)
                report_ctx = plan_ctx
            entropy = conditional_entropy(report_ctx, schedule)
            calls = trace.total_oracle_calls
            # the first greedy run's picks; greedy and lazy pick alike
            if not trace_rows:
                trace_rows = list(trace.picks())
        elif scheduler_name == "random":
            schedule = random_schedule(budgets, suite.m, random_seed)
            entropy = conditional_entropy(plan_ctx, schedule)
            calls = 1
        else:  # exhaustive
            exhaustive_result = exhaustive_optimum(
                plan_ctx, budgets, cap=scenario.exhaustive_cap
            )
            entropy = exhaustive_result.opt_cost
            calls = exhaustive_result.num_enumerated
        wall_ms = (time.perf_counter() - started) * 1e3
        # every context of a run has the same prior, and so the same H(x)
        rows.append({"scheduler": scheduler_name, "entropy_nats": entropy,
                     "mutual_info_nats": plan_ctx.prior_entropy - entropy,
                     "oracle_calls": calls})
        timing_rows.append((scheduler_name, wall_ms))

    with_bound = exhaustive_result is not None
    if with_bound:
        for row in rows:
            ratio = certify_bound(exhaustive_result, row["entropy_nats"]).ratio
            row["bound_ratio"] = 0.0 if ratio is None else ratio

    results_path = out_dir / "results.csv"
    header = ["scheduler", "entropy_nats", "mutual_info_nats", "oracle_calls"]
    if with_bound:
        header.append("bound_ratio")
    _write_csv(results_path, header, [
        [row["scheduler"], _fmt(row["entropy_nats"]), _fmt(row["mutual_info_nats"]),
         str(row["oracle_calls"])] + ([_fmt(row["bound_ratio"])] if with_bound else [])
        for row in rows
    ])

    trace_path = out_dir / "trace.csv"
    _write_csv(trace_path, ["k", "pick_order", "sensor", "gain_nats"], [
        [str(k), str(order), str(sensor), _fmt(gain)] for k, order, sensor, gain in trace_rows
    ])

    timings_path = out_dir / "timings.csv"
    _write_csv(timings_path, ["scheduler", "wall_ms"],
               [[name, _fmt(wall_ms)] for name, wall_ms in timing_rows])

    manifest_path = out_dir / "manifest.json"
    with _fresh(manifest_path) as f:
        json.dump(scenario.resolved(), f, indent=2, sort_keys=True)
        f.write("\n")

    return {
        "results": results_path,
        "trace": trace_path,
        "timings": timings_path,
        "manifest": manifest_path,
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sensorsched",
        description="Budgeted sensor scheduling for Gaussian batch-state estimation.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="run a scenario config")
    certify_p = sub.add_parser("certify", help="certify the greedy bound exhaustively")
    for p in (run_p, certify_p):
        p.add_argument("--config", required=True, help="path to the JSON scenario config")
        p.add_argument("--output-dir", default=None, help="directory for report files")

    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            paths = run_scenario(args.config, args.output_dir)
        else:
            paths = run_scenario(
                args.config, args.output_dir, force_schedulers=("greedy", "exhaustive")
            )
    except SensorSchedError as exc:
        parser.exit(2, f"error: {exc}\n")
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
