"""sensorsched benchmark: one command, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload horizon --seed 1 --seconds 20 --trace 0

Each workload runs in its own child process with single-threaded BLAS.
The report gives the machine, operations attempted and failed, and every
metric by name and unit; the last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit status is
1 if a correctness check failed, 2 if the program could not be run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / "perfbench" / "_runs"
WORKLOADS = ("horizon", "dense", "certify", "receding")

# Environment of the child process only: single-threaded BLAS, the plain
# baseline on a small machine, and no .pyc files written into the tree.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    """Run one workload in a child process; None if it did not finish."""
    RUNS.mkdir(parents=True, exist_ok=True)
    out = RUNS / f"report-{workload}-seed{seed}-trace{trace}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                              stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {workload} did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.is_file():
        print(f"error: workload {workload} exited with status {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.read_text())


def print_report(report: dict) -> None:
    print(f"== {report['workload']} · seed {report['seed']} · {report['seconds']:g} s · "
          f"trace {'on' if report['trace'] else 'off'}")
    print("machine: " + json.dumps(report["machine"], sort_keys=True))
    print(f"operations: attempted {report['attempted']}, failed {report['failed']}")
    if not report["correct"]:
        print(f"CHECK FAILED: {report['error']}")
    for name, m in report["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    samples = report["samples"]
    if "steps" in samples:
        print(f"  receding step latency over {samples['steps']} steps: "
              f"step_ms_p50 {samples['step_ms_p50']:.6g} ms, "
              f"step_ms_p90 {samples['step_ms_p90']:.6g} ms")
    print("samples: " + json.dumps(samples, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "sensorsched" / "__init__.py").is_file():
        print(f"error: no sensorsched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        report = run_child(name, args.seed, args.seconds, args.trace)
        if report is None:
            return 2
        print_report(report)
        reports.append(report)

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
