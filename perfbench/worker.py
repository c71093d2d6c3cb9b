"""One workload in one process: measure, check, write the result as JSON.

Started by ``perfbench/run.py`` as ``python3 -m perfbench.worker`` from
the repository root, with single-threaded BLAS in its environment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / "perfbench" / "_runs"

# Set-up samples taken before each round; medians are over all of them.
SETUP_REPEATS = 5

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_program() -> None:
    """Import sensorsched from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import sensorsched

    if Path(sensorsched.__file__).resolve().parent != src / "sensorsched":
        raise ImportError(f"sensorsched was imported from {sensorsched.__file__}, not {src}")


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "threads_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_sha": git_sha(),
    }


def _done(rounds: list, spent: list[float], deadline: float, min_rounds: int) -> bool:
    """Stop once min_rounds are done and another round would pass the deadline."""
    return len(rounds) >= min_rounds and time.perf_counter() + statistics.median(spent) > deadline


def measure(wl, seconds: float) -> tuple[list, dict]:
    """Untraced run: set-up batches and rounds until ``seconds`` have passed."""
    wl.setup()  # warm-up, not counted
    deadline = time.perf_counter() + seconds
    rounds, setups, spent = [], [], []
    while not rounds or not _done(rounds, spent, deadline, wl.min_rounds):
        started = time.perf_counter()
        gc.collect()
        setups += [wl.setup() for _ in range(SETUP_REPEATS)]
        gc.collect()
        rounds.append(wl.round())
        spent.append(time.perf_counter() - started)
    median = statistics.median
    metrics = {
        "setup_s": (median(setups), "s"),
        "round_s": (median(r.wall for r in rounds), "s"),
        "greedy_s": (median(r.greedy for r in rounds), "s"),
        "lazy_s": (median(r.lazy for r in rounds), "s"),
        "mi_nats": (median(r.mi for r in rounds), "nats"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    samples = {"setup_s": len(setups), "rounds": len(rounds),
               "calibration_samples": len(wl.clock.samples),
               "calibration_ms_p50": 1e3 * median(wl.clock.samples)}
    steps = [s * 1e3 for r in rounds for s in r.steps]
    if steps:
        deciles = statistics.quantiles(steps, n=10, method="inclusive")
        samples.update(steps=len(steps), step_ms_p50=deciles[4], step_ms_p90=deciles[8])
    return rounds, {"metrics": metrics, "samples": samples}


def measure_traced(wl, seconds: float, spans_path: Path) -> tuple[list, dict]:
    """Traced run: pairs of an untraced and a traced round until ``seconds`` pass.

    Both rounds of a pair do the same work; with ``full_round_setup`` that
    includes the set-up, so set-up layers show in the per-layer metrics.
    """
    from .tracing import LAYER_UNITS, Tracer

    tracer = Tracer()

    def one_round():
        gc.collect()
        started = time.perf_counter()
        if wl.full_round_setup:
            wl.setup()
        result = wl.round()
        return result, time.perf_counter() - started

    wl.setup()  # warm-up, not counted
    deadline = time.perf_counter() + seconds
    rounds, plain, traced, layers, spent = [], [], [], [], []
    while not layers or not _done(layers, spent, deadline, 1):
        started = time.perf_counter()
        result, took = one_round()
        rounds.append(result)
        plain.append(took)
        lo = len(tracer)
        with tracer.installed():
            result, took = one_round()
        rounds.append(result)
        traced.append(took)
        layers.append(tracer.layer_metrics(lo, len(tracer)))
        spent.append(time.perf_counter() - started)
    tracer.write(spans_path, {"rounds": len(layers)})
    metrics = {
        name: (statistics.median(layer[name] for layer in layers), unit)
        for name, unit in LAYER_UNITS.items()
    }
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return rounds, {"metrics": metrics, "samples": {"traced_rounds": len(layers),
                                                     "spans": len(tracer),
                                                     "spans_file": str(spans_path.relative_to(ROOT))}}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload and return its report (see README.md)."""
    from . import checks, workloads

    RUNS.mkdir(parents=True, exist_ok=True)
    run_dir = RUNS / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    wl = workloads.make(name, seed, size, run_dir, traced=trace)
    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "size": size, "machine": machine()}
    try:
        with wl.hook.installed() if wl.hook else contextlib.nullcontext():
            if trace:
                spans = RUNS / f"spans-{name}-seed{seed}.jsonl"
                rounds, measured = measure_traced(wl, seconds, spans)
            else:
                rounds, measured = measure(wl, seconds)
    except checks.CheckError as exc:
        # the failing round is counted as the one operation attempted
        report.update(correct=False, error=str(exc), attempted=1, failed=0, metrics={}, samples={})
        return report
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report.update(
        correct=True,
        attempted=sum(r.attempted for r in rounds),
        failed=sum(r.failed for r in rounds),
        metrics={k: {"value": v, "unit": u} for k, (v, u) in measured["metrics"].items()},
        samples=measured["samples"],
    )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="where to write the report JSON")
    args = parser.parse_args(argv)
    import_program()
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
