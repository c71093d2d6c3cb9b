"""Tests of the benchmark itself: toy-size runs and planted wrong answers."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import worker

worker.import_program()

from sensorsched import cli, entropy_oracle, exhaustive, scheduler, sensing  # noqa: E402

from perfbench import calibration, checks, tracing, workloads  # noqa: E402

BENCHMARK = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert PER_LAYER == set(tracing.LAYER_UNITS) | {"trace.overhead_s"}
    assert "setup_s" in END_TO_END


def _originals():
    return (cli.make_context, cli.map_linearization, cli.main, scheduler.conditional_entropy,
            exhaustive.conditional_entropy, sensing.Sensor.jacobian_at)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_runs_at_toy_size(name, trace):
    before = _originals()
    report = worker.run_workload(name, seed=3, seconds=0.05, trace=trace, size="toy")
    assert _originals() == before, "a wrapper was left in place"
    assert report["correct"], report.get("error")
    assert report["attempted"] >= 1
    assert 0 <= report["failed"] <= report["attempted"]
    metrics = report["metrics"]
    assert set(metrics) == (PER_LAYER if trace else END_TO_END)
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())


def test_traced_counts_match_the_program():
    report = worker.run_workload("horizon", seed=3, seconds=0.05, trace=True, size="toy")
    m = {k: v["value"] for k, v in report["metrics"].items()}
    K = workloads.SIZES["toy"]["horizon"]
    # every oracle call runs one pivot recursion over K blocks; the prior's
    # own factorization adds one more
    assert m["blocklinalg.logdet_calls"] == m["entropy_oracle.oracle_calls"] + 1
    assert m["blocklinalg.logdet_blocks"] == K * m["blocklinalg.logdet_calls"]
    # the benchmark's own entropy evaluation is the only oracle call outside greedy
    assert m["scheduler.gain_evals"] == m["entropy_oracle.oracle_calls"] - 1
    assert 0 < m["scheduler.lazy_eval_ratio"] < 1


def test_clock_scales_by_the_samples_around_each_piece(monkeypatch):
    samples = iter([2.0, 3.0, 5.0, 7.0])  # kernel seconds, in the order taken
    monkeypatch.setattr(calibration, "kernel_s", lambda: next(samples))
    clock = calibration.Clock()  # takes 2.0
    assert clock.lap(1.0) == pytest.approx(calibration.REF_S / 2.5)  # between 2.0 and 3.0
    monkeypatch.setattr(calibration, "perf", iter([10.0, 12.0]).__next__)
    started = clock.start()  # takes 5.0
    assert clock.stop(started) == pytest.approx(2.0 * calibration.REF_S / 6.0)  # between 5.0 and 7.0
    assert clock.samples == [2.0, 3.0, 5.0, 7.0] and clock.spent == 17.0


def test_receding_inputs_do_not_depend_on_the_seed():
    one = worker.run_workload("receding", seed=1, seconds=0.05, trace=False, size="toy")
    two = worker.run_workload("receding", seed=2, seconds=0.05, trace=False, size="toy")
    assert one["failed"] / one["attempted"] == two["failed"] / two["attempted"]
    assert one["metrics"]["mi_nats"] == two["metrics"]["mi_nats"]


# --- each check rejects a planted wrong answer --------------------------------

@pytest.fixture(scope="module")
def planning():
    wl = workloads.make("horizon", 5, "toy", Path("unused"))
    wl.setup()
    eager, eager_trace = scheduler.greedy_schedule(wl.ctx, wl.spec["budgets"])
    lazy, lazy_trace = scheduler.greedy_schedule(wl.ctx, wl.spec["budgets"], lazy=True)
    return wl, eager, eager_trace, lazy, lazy_trace


def test_planning_checks_pass_on_program_output(planning):
    wl, eager, eager_trace, lazy, lazy_trace = planning
    wl.check(eager, eager_trace, lazy, lazy_trace, entropy_oracle.conditional_entropy(wl.ctx, eager))


def test_perturbed_entropy_is_rejected(planning):
    wl, eager, eager_trace, lazy, lazy_trace = planning
    h = entropy_oracle.conditional_entropy(wl.ctx, eager)
    with pytest.raises(checks.CheckError, match="dense formula"):
        wl.check(eager, eager_trace, lazy, lazy_trace, h + 1e-6 * max(1.0, abs(h)))


def test_dense_formula_agrees_with_the_oracle_elsewhere(planning):
    wl, *_ = planning
    other = scheduler.random_schedule(wl.spec["budgets"], wl.suite.m, 1)
    checks.check_close("random schedule", checks.dense_entropy(wl.prior, wl.suite, other.sets),
                       entropy_oracle.conditional_entropy(wl.ctx, other), 1e-9)


def test_lazy_schedule_differing_from_eager_is_rejected(planning):
    wl, eager, eager_trace, lazy, lazy_trace = planning
    other = scheduler.random_schedule(wl.spec["budgets"], wl.suite.m, 7)
    with pytest.raises(checks.CheckError, match="eager vs lazy"):
        wl.check(eager, eager_trace, other, lazy_trace, entropy_oracle.conditional_entropy(wl.ctx, eager))


def test_wrong_gains_are_rejected(planning):
    wl, eager, eager_trace, *_ = planning
    gains = [list(s.gains) for s in eager_trace.steps]
    with pytest.raises(checks.CheckError, match="increase"):
        checks.check_gains("eager", [[0.1, 0.2]])
    with pytest.raises(checks.CheckError, match="< 0"):
        checks.check_gains("eager", [[-1e-3]])
    h = checks.dense_entropy(wl.prior, wl.suite, eager.sets)
    prior_h = checks.dense_prior_entropy(wl.prior)
    flat = [g for step in gains for g in step]
    checks.check_gain_identity("eager", prior_h, flat, h)
    with pytest.raises(checks.CheckError, match="sum of gains"):
        checks.check_gain_identity("eager", prior_h, [*flat[:-1], flat[-1] + 1e-6], h)


@pytest.mark.parametrize("sets, match", [
    ([(0, 1, 2), ()], "budget"),
    ([(1, 1), ()], "twice"),
    ([(0, 4), ()], "outside"),
    ([(0,)], "steps"),
])
def test_infeasible_schedules_are_rejected(sets, match):
    with pytest.raises(checks.CheckError, match=match):
        checks.check_feasible("schedule", sets, (2, 2), 4)


def test_certify_checks_reject_planted_answers():
    checks.check_bound_ratio("greedy", 0.5)
    for ratio in (-1e-12, 0.5 + 1e-12, float("nan")):
        with pytest.raises(checks.CheckError, match="bound ratio"):
            checks.check_bound_ratio("greedy", ratio)
    with pytest.raises(checks.CheckError, match="exceeds"):
        checks.check_not_above("exhaustive vs greedy", -1.0, -1.5)
    assert checks.num_feasible_schedules(4, (2,) * 4) == 14641
    checks.check_enumeration_count(121, 4, (2, 2))
    with pytest.raises(checks.CheckError, match="expected 121"):
        checks.check_enumeration_count(120, 4, (2, 2))
    with pytest.raises(checks.CheckError, match="differs"):
        checks.check_identical("results.csv", b"a,1\n", b"a,2\n")


def test_certify_round_rejects_a_wrong_enumeration_count(tmp_path, monkeypatch):
    wl = workloads.make("certify", 4, "toy", tmp_path)
    real = cli.exhaustive_optimum

    def miscounted(*args, **kwargs):
        out = real(*args, **kwargs)
        return type(out)(out.opt_cost, out.max_cost, out.opt_schedule, out.num_enumerated - 1)

    monkeypatch.setattr(cli, "exhaustive_optimum", miscounted)
    with pytest.raises(checks.CheckError, match="enumerated"):
        wl.round()


def test_random_schedule_beating_opt_is_rejected(planning):
    wl, eager, *_ = planning
    h = checks.dense_entropy(wl.prior, wl.suite, eager.sets)
    checks.check_not_above("OPT vs random schedule", h + 1e-10, h, 1e-9)
    with pytest.raises(checks.CheckError, match="OPT vs random"):
        checks.check_not_above("OPT vs random schedule", h + 1e-8, h, 1e-9)


def test_receding_round_rejects_rows_that_disagree(tmp_path, monkeypatch):
    wl = workloads.make("receding", 1, "toy", tmp_path)
    real = checks.read_results

    def tampered(path):
        rows = real(path)
        rows["lazy"]["entropy_nats"] += "1"
        return rows

    with wl.hook.installed():
        wl.round()
        monkeypatch.setattr(checks, "read_results", tampered)
        with pytest.raises(checks.CheckError, match="disagree"):
            wl.round()


def test_trace_csv_out_of_order_is_rejected(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("k,pick_order,sensor,gain_nats\n0,1,2,0.5\n")
    with pytest.raises(checks.CheckError, match="out of order"):
        checks.read_trace(path, 2)


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(worker.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(worker.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "horizon", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
