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
from .errors import ConfigError, SensorSchedError
from .exhaustive import certify_bound, exhaustive_optimum
from .process_models import (
    GaussianPrior,
    build_dense_prior,
    build_gauss_markov_prior,
    build_tracking_prior,
    densify,
)
from .scheduler import GreedyTrace, StepTrace, greedy_schedule, greedy_step_detailed, random_schedule
from .sensing import Schedule, SensorSuite, builtin_sensor

__all__ = ["Scenario", "load_scenario", "run_scenario", "main"]

logger = logging.getLogger(__name__)

_SCHEDULERS = ("greedy", "lazy", "random", "exhaustive")
_LINEARIZATIONS = ("prior_mean", "receding")
_PRIOR_KINDS = ("tracking", "gauss_markov", "dense_custom")
_SENSOR_KINDS = ("linear_coordinate", "range", "bearing", "quadratic")


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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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


def _matrix(value, n_rows: int, n_cols: int, path: str) -> list[list[float]]:
    arr = _numbers(value, path)
    if arr.shape != (n_rows, n_cols):
        raise ConfigError(f"{path}: expected a {n_rows}x{n_cols} matrix, got shape {arr.shape}")
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
    if kind not in _PRIOR_KINDS:
        raise ConfigError(f"{path}kind: unknown prior kind {kind!r}")
    n = _require(cfg, "n", int, path)
    K = _require(cfg, "K", int, path)
    if n < 1:
        raise ConfigError(f"{path}n: must be >= 1, got {n}")
    if K < 1:
        raise ConfigError(f"{path}K: must be >= 1, got {K}")
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
        if "mean" in cfg:
            out["mean"] = _vector(cfg["mean"], n * K, path + "mean")
    elif kind == "gauss_markov":
        out["A"] = _matrix(_require(cfg, "A", (list, int, float), path), n, n, path + "A")
        out["Q"] = _matrix(_require(cfg, "Q", (list, int, float), path), n, n, path + "Q")
        out["Sigma0"] = _matrix(
            _require(cfg, "Sigma0", (list, int, float), path), n, n, path + "Sigma0"
        )
        out["mu0"] = _vector(cfg.get("mu0", [0.0] * n), n, path + "mu0")
    else:  # dense_custom
        rep = cfg.get("representation", "covariance")
        if rep not in ("covariance", "precision"):
            raise ConfigError(
                f"{path}representation: must be 'covariance' or 'precision', got {rep!r}"
            )
        out["representation"] = rep
        out["matrix"] = _matrix(
            _require(cfg, "matrix", list, path), n * K, n * K, path + "matrix"
        )
        out["mean"] = _vector(cfg.get("mean", [0.0] * (n * K)), n * K, path + "mean")
    return out


def _validate_sensor(cfg: Any, n: int, idx: int) -> dict:
    path = f"sensors[{idx}]."
    if not isinstance(cfg, dict):
        raise ConfigError(f"sensors[{idx}]: expected an object")
    kind = _require(cfg, "kind", str, path)
    if kind not in _SENSOR_KINDS:
        raise ConfigError(f"{path}kind: unknown sensor kind {kind!r}")
    out = {"kind": kind}
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
        out["weight"] = _matrix(
            _require(cfg, "weight", list, path), n, n, path + "weight"
        )
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

    name = cfg.get("name", Path(path).stem)
    if not isinstance(name, str):
        raise ConfigError("name: expected a string")
    seed = cfg.get("seed", 0)
    if not _is_int(seed):
        raise ConfigError(f"seed: expected an integer, got {type(seed).__name__}")

    prior = _validate_prior(_require(cfg, "prior", dict, ""))
    n, K = prior["n"], prior["K"]

    dense = cfg.get("dense", False)
    if not isinstance(dense, bool):
        raise ConfigError("dense: expected a boolean")

    raw_sensors = _require(cfg, "sensors", list, "")
    if not raw_sensors:
        raise ConfigError("sensors: need at least one sensor")
    sensors = tuple(_validate_sensor(s, n, i) for i, s in enumerate(raw_sensors))

    raw_budgets = _require(cfg, "budgets", (int, list), "")
    if _is_int(raw_budgets):
        budgets = tuple(raw_budgets for _ in range(K))
    else:
        if len(raw_budgets) != K:
            raise ConfigError(f"budgets: expected {K} entries, got {len(raw_budgets)}")
        budgets = tuple(raw_budgets)
    for k, b in enumerate(budgets):
        if not _is_int(b) or b < 0:
            raise ConfigError(f"budgets[{k}]: must be a non-negative integer, got {b!r}")
        if b > len(sensors):
            raise ConfigError(f"budgets[{k}]: {b} exceeds the {len(sensors)} sensors")

    linearization = cfg.get("linearization", "prior_mean")
    if linearization not in _LINEARIZATIONS:
        raise ConfigError(
            f"linearization: must be one of {_LINEARIZATIONS}, got {linearization!r}"
        )

    schedulers = cfg.get("schedulers", ["greedy"])
    if not isinstance(schedulers, list):
        raise ConfigError(f"schedulers: expected a list, got {type(schedulers).__name__}")
    schedulers = tuple(schedulers)
    if not schedulers:
        raise ConfigError("schedulers: need at least one scheduler")
    for s in schedulers:
        if s not in _SCHEDULERS:
            raise ConfigError(f"schedulers: unknown scheduler {s!r}")

    cap = cfg.get("exhaustive_cap", 10**6)
    if not _is_int(cap) or cap < 1:
        raise ConfigError(f"exhaustive_cap: must be a positive integer, got {cap!r}")

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
    kind, K = spec["kind"], spec["K"]
    if kind == "tracking":
        return build_tracking_prior(
            spec["n"], K, spec["marginal_var"], spec["neighbor_corr"], mean=spec.get("mean")
        )
    if kind == "gauss_markov":
        return build_gauss_markov_prior(
            np.asarray(spec["A"]), np.asarray(spec["Q"]), np.asarray(spec["Sigma0"]),
            mu0=np.asarray(spec["mu0"]), K=K,
        )
    return build_dense_prior(
        spec["n"], K, np.asarray(spec["matrix"]), spec["representation"],
        mean=np.asarray(spec["mean"]),
    )


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


def _simulate_measurements(suite, schedule_sets, k, x_true_k, rng):
    parts = []
    for i in schedule_sets:
        sensor = suite.sensors[i]
        noise = sensor.noise_factor_at(k) @ rng.standard_normal(sensor.output_dim)
        parts.append(sensor.measure_at(x_true_k) + noise)
    return np.concatenate(parts) if parts else None


def _receding_greedy(prior, suite, budgets, lazy, seed):
    """Greedy planning that re-linearizes at the running MAP estimate.

    Ground truth is simulated from the prior; after each step the chosen
    sensors are sampled and the MAP estimate refreshed, so later steps
    linearize where the data points.
    """
    rng = np.random.default_rng(seed)
    cov = prior.covariance_dense()
    x_true = np.asarray(prior.mean) + _cholesky(cov) @ rng.standard_normal(prior.dim)

    K = prior.K
    sets: list[tuple[int, ...]] = [() for _ in range(K)]
    measurements: list[np.ndarray | None] = [None] * K
    linearization = np.asarray(prior.mean)
    steps: list[StepTrace] = []
    ctx = None
    for k in range(K):
        ctx = make_context(prior, suite, linearization=linearization)
        prefix = Schedule(
            sets=tuple(sets[:k]) + tuple(() for _ in range(K - k)),
            budgets=budgets,
        )
        detail = greedy_step_detailed(ctx, prefix, k, budgets[k], lazy=lazy)
        sets[k] = detail.chosen
        measurements[k] = _simulate_measurements(
            suite, detail.chosen, k, x_true.reshape(K, prior.n)[k], rng
        )
        solution = map_linearization(
            prior,
            suite,
            Schedule(sets=tuple(sets), budgets=budgets),
            measurements,
        )
        if not solution.converged:
            logger.warning(
                "receding step %d: MAP linearization did not converge in %d iterations",
                k, solution.iterations,
            )
        linearization = solution.estimate
        steps.append(detail)
    schedule = Schedule(sets=tuple(sets), budgets=budgets)
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
    """
    scenario = load_scenario(config_path)
    if force_schedulers is not None:
        schedulers = tuple(
            dict.fromkeys(tuple(force_schedulers) + scenario.schedulers)
        )
        scenario = dataclasses.replace(scenario, schedulers=schedulers)
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
    trace_written_for: str | None = None
    timing_rows = []
    exhaustive_result = None

    for scheduler_name in scenario.schedulers:
        started = time.perf_counter()
        if scheduler_name in ("greedy", "lazy"):
            lazy = scheduler_name == "lazy"
            if scenario.linearization == "receding":
                schedule, trace, final_ctx = _receding_greedy(
                    prior, suite, budgets, lazy, receding_seed
                )
                report_ctx = final_ctx
            else:
                schedule, trace = greedy_schedule(plan_ctx, budgets, lazy=lazy)
                report_ctx = plan_ctx
            entropy = conditional_entropy(report_ctx, schedule)
            mi = report_ctx.prior_entropy - entropy
            calls = trace.total_oracle_calls
            if trace_written_for is None:
                trace_rows = list(trace.picks())
                trace_written_for = scheduler_name
        elif scheduler_name == "random":
            schedule = random_schedule(budgets, suite.m, random_seed)
            entropy = conditional_entropy(plan_ctx, schedule)
            mi = plan_ctx.prior_entropy - entropy
            calls = 1
        else:  # exhaustive
            exhaustive_result = exhaustive_optimum(
                plan_ctx, budgets, cap=scenario.exhaustive_cap
            )
            entropy = exhaustive_result.opt_cost
            mi = plan_ctx.prior_entropy - entropy
            calls = exhaustive_result.num_enumerated
        wall_ms = (time.perf_counter() - started) * 1e3
        rows.append({"scheduler": scheduler_name, "entropy_nats": entropy,
                     "mutual_info_nats": mi, "oracle_calls": calls})
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
