"""Spans around sensorsched's public functions, and the CLI step hook.

The traced run replaces functions of sensorsched with recording wrappers,
at the name each calling module looks up: ``sensorsched.scheduler.
conditional_entropy`` for the greedy scheduler's oracle calls,
``sensorsched.cli.map_linearization`` for the CLI's MAP solves, and so
on. Nothing in ``src/`` changes. Every patch is undone when its ``with``
block ends, even on error.

Untraced runs carry one hook only, ``CliHook``: it marks where the CLI
has built its first context (the end of set-up) and where each receding
step begins and ends.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

perf = time.perf_counter

# label -> the (module, attribute) names it wraps. Class attributes are
# written "module:Class".
LAYER_TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "process_models.build": tuple(
        (module, name)
        for module in ("sensorsched.process_models", "sensorsched.cli")
        for name in ("build_tracking_prior", "build_gauss_markov_prior", "build_dense_prior", "densify")
    ),
    "sensing.jacobian": (("sensorsched.sensing:Sensor", "jacobian_at"),),
    "entropy_oracle.context": (
        ("sensorsched.entropy_oracle", "make_context"),
        ("sensorsched.cli", "make_context"),
    ),
    "entropy_oracle.oracle": tuple(
        (module, "conditional_entropy")
        for module in (
            "sensorsched.entropy_oracle",
            "sensorsched.scheduler",
            "sensorsched.exhaustive",
            "sensorsched.cli",
        )
    ),
    "entropy_oracle.map": (("sensorsched.cli", "map_linearization"),),
    "blocklinalg.logdet": (
        ("sensorsched.entropy_oracle", "logdet_block_tridiagonal_blocks"),
        ("sensorsched.blocklinalg", "logdet_block_tridiagonal_blocks"),
    ),
    "scheduler.greedy": (
        ("sensorsched.scheduler", "greedy_schedule"),
        ("sensorsched.cli", "greedy_schedule"),
        ("sensorsched.cli", "greedy_step_detailed"),
    ),
    "exhaustive.enumerate": (("sensorsched.cli", "exhaustive_optimum"),),
    "cli.main": (("sensorsched.cli", "main"),),
}

# Per-layer metrics of one round: name -> unit.
LAYER_UNITS = {
    "process_models.build_s": "s",
    "sensing.jacobian_calls": "count",
    "sensing.jacobian_s": "s",
    "entropy_oracle.context_calls": "count",
    "entropy_oracle.context_s": "s",
    "entropy_oracle.oracle_calls": "count",
    "entropy_oracle.oracle_self_s": "s",
    "entropy_oracle.oracle_us_per_call": "us",
    "entropy_oracle.map_calls": "count",
    "entropy_oracle.map_iterations": "count",
    "entropy_oracle.map_unconverged": "count",
    "entropy_oracle.map_s": "s",
    "blocklinalg.logdet_calls": "count",
    "blocklinalg.logdet_blocks": "count",
    "blocklinalg.logdet_s": "s",
    "blocklinalg.logdet_us_per_block": "us",
    "blocklinalg.logdet_errors": "count",
    "scheduler.gain_evals": "count",
    "scheduler.lazy_eval_ratio": "ratio",
    "scheduler.self_s": "s",
    "exhaustive.schedules": "count",
    "exhaustive.us_per_schedule": "us",
    "exhaustive.self_s": "s",
    "cli.self_s": "s",
}


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


@contextlib.contextmanager
def patched(replacements) -> Iterator[None]:
    """Set ``(owner, attribute, value)`` triples; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _info(label: str) -> Callable | None:
    """Counts a span carries beyond its time, read from arguments or result."""
    if label == "blocklinalg.logdet":
        return lambda args, kwargs, out: {"blocks": len(args[0])}
    if label == "entropy_oracle.map":
        return lambda args, kwargs, out: {
            "iterations": out.iterations,
            "unconverged": int(not out.converged),
        }
    if label == "scheduler.greedy":
        def evals(args, kwargs, out):
            count = out.oracle_calls if hasattr(out, "oracle_calls") else out[1].total_oracle_calls
            return {"lazy_evals" if kwargs.get("lazy") else "eager_evals": count}
        return evals
    if label == "exhaustive.enumerate":
        return lambda args, kwargs, out: {"schedules": out.num_enumerated}
    return None


class Tracer:
    """In-memory span recorder.

    Span i has a label, a parent span index (-1 at top level), start and
    end times from ``time.perf_counter``, an error flag, and optional
    counts. Spans nest by call order, so a span's parent is the innermost
    wrapped call still open when it began.
    """

    def __init__(self) -> None:
        self.label: list[str] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.error: list[bool] = []
        self.info: list[dict | None] = []
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, label: str, fn: Callable, info: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.label.append(label)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0.0)
            self.error.append(False)
            self.info.append(None)
            self._open.append(idx)
            self.start.append(perf())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.error[idx] = True
                raise
            finally:
                self.end[idx] = perf()
                self._open.pop()
            if info is not None:
                self.info[idx] = info(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target in LAYER_TARGETS for the duration of the block."""
        replacements = []
        for label, targets in LAYER_TARGETS.items():
            for spec, attr in targets:
                owner = _owner(spec)
                replacements.append((owner, attr, self.wrap(label, getattr(owner, attr), _info(label))))
        with patched(replacements):
            yield self

    def layer_metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer metrics of spans lo..hi-1 (one round)."""
        child = defaultdict(float)
        for i in range(lo, hi):
            if self.parent[i] >= lo:
                child[self.parent[i]] += self.end[i] - self.start[i]
        total, own, calls, errors, counts = (
            defaultdict(float), defaultdict(float), Counter(), Counter(), Counter()
        )
        for i in range(lo, hi):
            label, took = self.label[i], self.end[i] - self.start[i]
            total[label] += took
            own[label] += took - child[i]
            calls[label] += 1
            errors[label] += self.error[i]
            for key, value in (self.info[i] or {}).items():
                counts[key] += value

        def per(a: float, b: float, scale: float = 1.0) -> float:
            return scale * a / b if b else 0.0

        eager, lazy = counts["eager_evals"], counts["lazy_evals"]
        return {
            "process_models.build_s": total["process_models.build"],
            "sensing.jacobian_calls": calls["sensing.jacobian"],
            "sensing.jacobian_s": total["sensing.jacobian"],
            "entropy_oracle.context_calls": calls["entropy_oracle.context"],
            "entropy_oracle.context_s": total["entropy_oracle.context"],
            "entropy_oracle.oracle_calls": calls["entropy_oracle.oracle"],
            "entropy_oracle.oracle_self_s": own["entropy_oracle.oracle"],
            "entropy_oracle.oracle_us_per_call": per(
                total["entropy_oracle.oracle"], calls["entropy_oracle.oracle"], 1e6
            ),
            "entropy_oracle.map_calls": calls["entropy_oracle.map"],
            "entropy_oracle.map_iterations": counts["iterations"],
            "entropy_oracle.map_unconverged": counts["unconverged"],
            "entropy_oracle.map_s": total["entropy_oracle.map"],
            "blocklinalg.logdet_calls": calls["blocklinalg.logdet"],
            "blocklinalg.logdet_blocks": counts["blocks"],
            "blocklinalg.logdet_s": total["blocklinalg.logdet"],
            "blocklinalg.logdet_us_per_block": per(
                total["blocklinalg.logdet"], counts["blocks"], 1e6
            ),
            "blocklinalg.logdet_errors": errors["blocklinalg.logdet"],
            "scheduler.gain_evals": eager + lazy,
            "scheduler.lazy_eval_ratio": per(lazy, eager),
            "scheduler.self_s": own["scheduler.greedy"],
            "exhaustive.schedules": counts["schedules"],
            "exhaustive.us_per_schedule": per(
                total["exhaustive.enumerate"], counts["schedules"], 1e6
            ),
            "exhaustive.self_s": own["exhaustive.enumerate"],
            "cli.self_s": own["cli.main"],
        }

    def write(self, path: Path, header: dict) -> None:
        """One JSON header line, then one JSON array per span."""
        with open(path, "w") as f:
            f.write(json.dumps({**header, "fields": [
                "id", "parent", "label", "start_s", "end_s", "error", "counts"
            ]}) + "\n")
            for i in range(len(self)):
                f.write(json.dumps([
                    i, self.parent[i], self.label[i],
                    round(self.start[i], 9), round(self.end[i], 9),
                    self.error[i], self.info[i],
                ]) + "\n")


class SetupReached(Exception):
    """Raised in probe mode once the CLI has built its first context."""


class Step(NamedTuple):
    """One receding step: reference and wall seconds, and its MAP outcome."""

    seconds: float
    raw: float
    converged: bool
    iterations: int


class CliHook:
    """Wraps ``sensorsched.cli.make_context`` and ``map_linearization``.

    A receding step runs ``make_context``, one greedy step and
    ``map_linearization``; its latency runs from the start of the context
    build to the end of the MAP solve, and is scaled by ``clock`` (a
    calibration.Clock) against the calibration samples at the end of the
    step before and of this one. ``steps`` collects a Step per step. With
    ``probe`` set, the first context build ends the CLI call by raising
    SetupReached with the time it finished.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.probe = False
        self.steps: list[Step] = []
        self._step_start = 0.0

    @contextlib.contextmanager
    def installed(self) -> Iterator["CliHook"]:
        from sensorsched import cli

        build, solve = cli.make_context, cli.map_linearization

        def make_context(*args, **kwargs):
            started = perf()
            ctx = build(*args, **kwargs)
            if self.probe:
                raise SetupReached(perf())
            self._step_start = started
            return ctx

        def map_linearization(*args, **kwargs):
            estimate = solve(*args, **kwargs)
            took = perf() - self._step_start
            self.steps.append(Step(self.clock.lap(took), took, bool(estimate.converged),
                                   int(estimate.iterations)))
            return estimate

        with patched([(cli, "make_context", make_context),
                      (cli, "map_linearization", map_linearization)]):
            yield self
