"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sensorsched as ss
from conftest import (
    all_schedules,
    propagated_batch_covariance,
    random_feasible_schedule,
    random_prior,
    random_spd,
    random_spd_block_tridiag,
    random_stable_system,
    random_suite,
)
from sensorsched.cli import main, run_scenario

LOG_2PIE = math.log(2 * math.pi * math.e)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  [{detail}]")


def rel_err(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# shared instance families
# ---------------------------------------------------------------------------

CROSS_FORMULA_KINDS = ("tracking", "gauss_markov", "dense_cov", "dense_prec")


@pytest.fixture(scope="module")
def cross_formula_instances():
    """210 seeded instances spanning prior kinds, n<=3, K<=4, m<=5."""
    instances = []
    for i in range(210):
        rng = np.random.default_rng(10_000 + i)
        n = int(rng.integers(1, 4))
        K = int(rng.integers(1, 5))
        m = int(rng.integers(1, 6))
        kind = CROSS_FORMULA_KINDS[i % len(CROSS_FORMULA_KINDS)]
        prior = random_prior(rng, n, K, kind)
        suite = random_suite(rng, n, m)
        budgets = tuple(int(rng.integers(0, m + 1)) for _ in range(K))
        ctx = ss.make_context(prior, suite)
        count = math.prod(sum(math.comb(m, j) for j in range(s + 1)) for s in budgets)
        if count <= 4096:
            schedules = list(all_schedules(m, budgets))
        else:
            schedules = [random_feasible_schedule(rng, m, budgets) for _ in range(200)]
        instances.append({"ctx": ctx, "budgets": budgets, "schedules": schedules})
    return instances


@pytest.fixture(scope="module")
def enumerable_instances():
    """100 seeded instances small enough for exhaustive certification.

    The last 25 use m >= 10 (wide ground sets) so the lazy-evaluation
    criterion has the population it quantifies over.
    """
    instances = []
    for i in range(100):
        rng = np.random.default_rng(20_000 + i)
        if i < 75:
            n = int(rng.integers(1, 3))
            K = int(rng.integers(1, 4))
            m = int(rng.integers(2, 6))
            budgets = tuple(int(rng.integers(1, min(m, 3) + 1)) for _ in range(K))
        else:
            n = int(rng.integers(1, 3))
            K = int(rng.integers(1, 3))
            m = int(rng.choice([10, 12]))
            budgets = tuple(2 for _ in range(K))
        assert math.prod(math.comb(m, s) for s in budgets) <= 10**5
        kind = CROSS_FORMULA_KINDS[i % len(CROSS_FORMULA_KINDS)]
        prior = random_prior(rng, n, K, kind)
        suite = random_suite(rng, n, m)
        ctx = ss.make_context(prior, suite)

        eager_schedule, eager_trace = ss.greedy_schedule(ctx, budgets)
        lazy_schedule, lazy_trace = ss.greedy_schedule(ctx, budgets, lazy=True)
        cert = ss.certify_bound(
            ss.exhaustive_optimum(ctx, budgets), ss.conditional_entropy(ctx, eager_schedule)
        )
        instances.append(
            {
                "m": m,
                "budgets": budgets,
                "eager_schedule": eager_schedule,
                "eager_calls": eager_trace.total_oracle_calls,
                "lazy_schedule": lazy_schedule,
                "lazy_calls": lazy_trace.total_oracle_calls,
                "certificate": cert,
            }
        )
    return instances


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_cross_formula_equivalence(cross_formula_instances):
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    for inst in cross_formula_instances:
        ctx = inst["ctx"]
        for sched in inst["schedules"]:
            a = ss.conditional_entropy_covariance_form(ctx, sched)
            b = ss.conditional_entropy_precision_form(ctx, sched)
            err = rel_err(a, b)
            worst = max(worst, err)
            checked += 1
            assert err <= 1e-8, (sched.sets, a, b)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s (budget 60s)"
    report(
        1,
        f"{len(cross_formula_instances)} instances, {checked} schedule evaluations, "
        f"worst relative gap {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_approximation_bound(enumerable_instances):
    started = time.perf_counter()
    worst_ratio = 0.0
    degenerate = 0
    for inst in enumerable_instances:
        cert = inst["certificate"]
        assert cert.holds, (inst["budgets"], cert)
        if cert.ratio is None:
            degenerate += 1
        else:
            assert cert.ratio <= 0.5 + 1e-9
            worst_ratio = max(worst_ratio, cert.ratio)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(
        2,
        f"100 instances certified, empirical worst ratio {worst_ratio:.4f}, "
        f"{degenerate} degenerate (certified equal), {elapsed:.1f}s",
    )


def test_criterion_3_supermodularity_and_monotonicity():
    started = time.perf_counter()
    shapes = [(2, 4), (4, 2), (2, 3), (3, 2), (4, 1), (1, 6)]
    triples = 0
    pairs = 0
    for idx, (m, K) in enumerate(shapes):
        rng = np.random.default_rng(30_000 + idx)
        n = int(rng.integers(1, 3))
        kind = CROSS_FORMULA_KINDS[idx % len(CROSS_FORMULA_KINDS)]
        prior = random_prior(rng, n, K, kind)
        suite = random_suite(rng, n, m)
        ctx = ss.make_context(prior, suite)
        budgets = tuple(m for _ in range(K))

        cost = {}
        for sched in all_schedules(m, budgets):
            cost[sched.sets] = ss.conditional_entropy(ctx, sched)

        # every nested pair A <= B arises from a per-element 3-way split:
        # in both, in B only, in neither
        elements = [(k, i) for k in range(K) for i in range(m)]
        for assignment in itertools.product(range(3), repeat=len(elements)):
            A = [[] for _ in range(K)]
            B = [[] for _ in range(K)]
            for (k, i), a in zip(elements, assignment):
                if a >= 1:
                    B[k].append(i)
                if a == 2:
                    A[k].append(i)
            A_key = tuple(tuple(s) for s in A)
            B_key = tuple(tuple(s) for s in B)
            pairs += 1
            assert cost[A_key] >= cost[B_key] - 1e-9, (A_key, B_key)
            for k, i in elements:
                if i in B[k]:
                    continue
                A_c = tuple(
                    tuple(sorted(s + [i])) if kk == k else tuple(s)
                    for kk, s in enumerate(A)
                )
                B_c = tuple(
                    tuple(sorted(s + [i])) if kk == k else tuple(s)
                    for kk, s in enumerate(B)
                )
                gain_A = cost[A_key] - cost[A_c]
                gain_B = cost[B_key] - cost[B_c]
                triples += 1
                assert gain_A >= gain_B - 1e-9, (A_key, B_key, (k, i))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        3,
        f"{len(shapes)} instances (mK <= 8), {pairs} nested pairs, "
        f"{triples} addition triples, zero violations, {elapsed:.1f}s",
    )


def test_criterion_4_sparse_logdet_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(40_000)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 5))
        K = int(rng.integers(1, 9))
        M, dense = random_spd_block_tridiag(rng, n, K)
        oracle = np.linalg.slogdet(dense)[1]
        got = ss.logdet_block_tridiagonal_blocks(M.diag_blocks, M.offdiag_blocks)
        err = abs(got - oracle) / max(1.0, abs(oracle))
        worst = max(worst, err)
        assert err <= 1e-9
    # constructed indefinite matrices must raise
    indefinite = [
        ss.BlockTridiagonalMatrix(diag_blocks=([[-1.0]],), offdiag_blocks=()),
        ss.BlockTridiagonalMatrix(
            diag_blocks=([[1.0]], [[1.0]]), offdiag_blocks=([[2.0]],)
        ),
        ss.BlockTridiagonalMatrix(
            diag_blocks=(np.eye(2), np.eye(2), -np.eye(2)),
            offdiag_blocks=(np.zeros((2, 2)), np.zeros((2, 2))),
        ),
    ]
    for M in indefinite:
        assert np.linalg.eigvalsh(M.assemble())[0] < 0
        with pytest.raises(ss.NotPositiveDefiniteError):
            ss.logdet_block_tridiagonal_blocks(M.diag_blocks, M.offdiag_blocks)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(4, f"500 SPD instances, worst relative error {worst:.3e}, {elapsed:.1f}s")


def test_criterion_5_posterior_covariance_consistency(cross_formula_instances):
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    for idx, inst in enumerate(cross_formula_instances):
        ctx = inst["ctx"]
        rng = np.random.default_rng(50_000 + idx)
        full = ss.Schedule(
            sets=tuple(tuple(range(ctx.suite.m)) for _ in range(ctx.K)),
            budgets=tuple(ctx.suite.m for _ in range(ctx.K)),
        )
        probes = [ss.Schedule.empty([ctx.suite.m] * ctx.K), full] + [
            random_feasible_schedule(rng, ctx.suite.m, [ctx.suite.m] * ctx.K)
            for _ in range(3)
        ]
        for sched in probes:
            cov = ss.posterior_covariance(ctx, sched)
            via_cov = 0.5 * np.linalg.slogdet(cov)[1] + 0.5 * ctx.prior.dim * LOG_2PIE
            err = abs(via_cov - ss.conditional_entropy_precision_form(ctx, sched))
            worst = max(worst, err)
            checked += 1
            assert err <= 1e-9
    elapsed = time.perf_counter() - started
    report(
        5,
        f"{checked} schedule probes over {len(cross_formula_instances)} instances, "
        f"worst absolute gap {worst:.3e}, {elapsed:.1f}s",
    )


def _scaling_scenario(K, dense):
    rng = np.random.default_rng(777)
    n, m = 4, 8
    A = random_stable_system(rng, n, radius=0.7)
    Q = random_spd(rng, n, scale=0.3)
    Sigma0 = random_spd(rng, n, scale=0.3)
    prior = ss.build_gauss_markov_prior(A, Q, Sigma0, mu0=rng.normal(0, 0.5, n), K=K)
    if dense:
        prior = ss.densify(prior)
    suite = random_suite(rng, n, m)
    return ss.make_context(prior, suite)


def _oracle_scaling(rounds=15, num_schedules=6):
    """Median per-call ms of the full oracle at K=100 and K=200, and their ratios.

    Each regime evaluates ``conditional_entropy`` on a fixed set of
    schedules per horizon, after one warm-up pass. Every round times each
    schedule once at K=100, then once at K=200, so a drift in machine speed
    hits both horizons alike. A round's figure per horizon is the median
    over its calls: the first call after switching horizon pays for
    re-allocating arrays of the other size, and one such call should not
    set the round. The ratio is the median over rounds of K=200 over K=100.
    """
    out = {}
    for regime, dense in (("sparse", False), ("dense", True)):
        ctxs = {K: _scaling_scenario(K, dense) for K in (100, 200)}
        rng = np.random.default_rng(606)
        seeds = [int(rng.integers(2**32)) for _ in range(num_schedules)]
        schedules = {
            K: [random_feasible_schedule(np.random.default_rng(s), 8, [2] * K) for s in seeds]
            for K in ctxs
        }
        for K, ctx in ctxs.items():  # warm-up
            for schedule in schedules[K]:
                ss.conditional_entropy(ctx, schedule)
        per_call = {K: [] for K in ctxs}
        for _ in range(rounds):
            for K, ctx in ctxs.items():
                took = []
                for schedule in schedules[K]:
                    started = time.perf_counter()
                    ss.conditional_entropy(ctx, schedule)
                    took.append(time.perf_counter() - started)
                per_call[K].append(float(np.median(took)) * 1e3)
        ratios = [b / a for a, b in zip(per_call[100], per_call[200])]
        out[regime] = {
            "ratio": float(np.median(ratios)),
            "ms_100": float(np.median(per_call[100])),
            "ms_200": float(np.median(per_call[200])),
        }
    return out


def test_criterion_6_linear_in_k_scaling():
    # measured in a child process whose BLAS is single-threaded, so that
    # BLAS threads neither dilute the dense cubic term nor compete with
    # other work on the machine; the setting is local to that process
    started = time.perf_counter()
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    package_root = str(Path(ss.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c",
         "import json, test_acceptance; print(json.dumps(test_acceptance._oracle_scaling()))"],
        cwd=Path(__file__).resolve().parent, env=env, capture_output=True, text=True,
        timeout=600,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    elapsed = time.perf_counter() - started

    sparse, dense = result["sparse"], result["dense"]
    assert 1.5 <= sparse["ratio"] <= 3.0, (
        f"sparse per-call ratio {sparse['ratio']:.2f} outside [1.5, 3.0] "
        f"({sparse['ms_100']:.3f} -> {sparse['ms_200']:.3f} ms/call)"
    )
    assert dense["ratio"] >= 4.0, (
        f"dense per-call ratio {dense['ratio']:.2f} below 4 "
        f"({dense['ms_100']:.3f} -> {dense['ms_200']:.3f} ms/call)"
    )
    assert elapsed < 600.0
    report(
        6,
        f"sparse ratio {sparse['ratio']:.2f} in [1.5, 3.0]; dense ratio "
        f"{dense['ratio']:.2f} >= 4; per-call sparse {sparse['ms_100']:.2f}/"
        f"{sparse['ms_200']:.2f} ms, dense {dense['ms_100']:.2f}/{dense['ms_200']:.2f} ms; "
        f"{elapsed:.0f}s",
    )


def test_sparse_covariance_greedy_counts_are_linear_in_k(monkeypatch):
    # beside criterion 6's clocks, counts for a prior stored as a sparse
    # covariance (criterion 6's suite generator on a tracking prior):
    # greedy reads every gain from step k's conditional block, so it makes no
    # oracle call and factors no band, and its gain evaluations grow
    # exactly with K; a step given a prefix factors that prefix once, in
    # one band of k blocks
    from sensorsched import blocklinalg, scheduler

    factored = []
    band_factor = blocklinalg._band_factor

    def counted(diag, coupling):
        factored.append(len(diag))
        return band_factor(diag, coupling)

    def no_oracle(_ctx, _schedule):
        raise AssertionError("a sparse covariance gain called the oracle")

    contexts = {K: ss.make_context(ss.build_tracking_prior(4, K, 1.0, 0.4),
                                   random_suite(np.random.default_rng(777), 4, 8))
                for K in (50, 100)}
    monkeypatch.setattr(blocklinalg, "_band_factor", counted)
    monkeypatch.setattr(scheduler, "_band_factor", counted)
    monkeypatch.setattr(scheduler, "conditional_entropy", no_oracle)
    evaluations = {}
    for K, ctx in contexts.items():
        for lazy in (False, True):
            schedule, trace = ss.greedy_schedule(ctx, [2] * K, lazy=lazy)
            evaluations[K, lazy] = trace.total_oracle_calls
        assert factored == []
        k = K // 2
        step = ss.greedy_step_detailed(ctx, schedule, k, 2)
        assert factored == [k]
        assert step.chosen == trace.steps[k].chosen
        factored.clear()
    assert evaluations[100, False] == 2 * evaluations[50, False] == 2 * 50 * (8 + 7)
    assert evaluations[100, True] == 2 * evaluations[50, True]


def _receding_solves(monkeypatch, tmp_path, K, **config):
    """Every MAP solve of a CLI run on the benchmark's receding workload at
    horizon K (``perfbench.workloads.receding_config``, read only), with
    ``config`` overriding its fields; greedy's K solves, then lazy's."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.workloads import receding_config
    from sensorsched import cli, entropy_oracle

    solves = []
    solve = entropy_oracle.map_linearization

    def counted(*args, **kwargs):
        solves.append(solve(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(cli, "map_linearization", counted)
    path = tmp_path / "receding.json"
    path.write_text(json.dumps(dict(receding_config(K), **config)))
    run_scenario(path, tmp_path / "out")
    assert len(solves) == 2 * K  # greedy and lazy, one solve per step
    return solves


@pytest.mark.parametrize("K", [30, 60])
def test_receding_map_iterations_per_solve_are_bounded(monkeypatch, tmp_path, K):
    # beside criterion 6's clocks, a count: every receding MAP solve of the
    # benchmark's receding workload converges in a few damped Newton
    # iterations, at either horizon
    solves = _receding_solves(monkeypatch, tmp_path, K)
    iterations = [solve.iterations for solve in solves]
    assert all(solve.converged for solve in solves)
    assert max(iterations) <= 12 and sum(iterations) / len(iterations) <= 6, iterations


def test_receding_map_converges_across_config_seeds(monkeypatch, tmp_path):
    # the same workload under twelve measurement seeds: the only solves left
    # unconverged are seed 10's at steps 13 and 14 of each scheduler, whose
    # objective falls toward a bearing's anchor and has no minimizer there
    unconverged = {}
    for seed in range(1, 13):
        (tmp_path / str(seed)).mkdir()
        solves = _receding_solves(monkeypatch, tmp_path / str(seed), 30, seed=seed)
        failed = [j for j, solve in enumerate(solves) if not solve.converged]
        if failed:
            unconverged[seed] = failed
    assert unconverged == {10: [13, 14, 43, 44]}


def test_criterion_7_lazy_greedy(enumerable_instances):
    wide = [inst for inst in enumerable_instances if inst["m"] >= 10]
    assert len(wide) >= 20
    strictly_lower = 0
    for inst in enumerable_instances:
        assert inst["lazy_schedule"].sets == inst["eager_schedule"].sets
        assert inst["lazy_calls"] <= inst["eager_calls"]
    for inst in wide:
        if inst["lazy_calls"] < inst["eager_calls"]:
            strictly_lower += 1
    fraction = strictly_lower / len(wide)
    assert fraction >= 0.9, f"lazy strictly cheaper on only {fraction:.0%} of wide instances"
    report(
        7,
        f"identical schedules on 100 instances; calls never higher; strictly "
        f"lower on {strictly_lower}/{len(wide)} wide (m >= 10) instances",
    )


def test_criterion_8_gauss_markov_construction():
    rng = np.random.default_rng(80_000)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        K = int(rng.integers(1, 6))
        A = random_stable_system(rng, n)
        Q = random_spd(rng, n, scale=0.5)
        Sigma0 = random_spd(rng, n, scale=0.5)
        prior = ss.build_gauss_markov_prior(A, Q, Sigma0, K=K)
        oracle = propagated_batch_covariance(A, Q, Sigma0, K)
        got = np.linalg.inv(prior.assembled())
        err = np.max(np.abs(got - oracle)) / max(1.0, np.max(np.abs(oracle)))
        worst = max(worst, err)
        assert err <= 1e-9
    report(8, f"100 (A, Q, Sigma0) triples, worst relative error {worst:.3e}")


CRITERION_9_CONFIG = {
    "name": "determinism-check",
    "seed": 20260810,
    "prior": {
        "kind": "gauss_markov",
        "n": 2,
        "K": 3,
        "A": [[0.7, 0.1], [0.0, 0.6]],
        "Q": [[0.4, 0.0], [0.0, 0.3]],
        "Sigma0": [[1.0, 0.2], [0.2, 0.8]],
        "mu0": [0.5, -0.5],
    },
    "sensors": [
        {"kind": "range", "anchor": [2.0, 2.0], "noise_var": 0.5},
        {"kind": "linear_coordinate", "axis": 0, "noise_var": 1.0},
        {"kind": "bearing", "anchor": [-2.0, 1.0], "noise_var": 0.2},
        {"kind": "quadratic", "weight": [[1.0, 0.0], [0.0, 2.0]], "noise_var": 1.5},
    ],
    "budgets": 2,
    "schedulers": ["greedy", "lazy", "random", "exhaustive"],
}


def test_criterion_9_cli_determinism(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(CRITERION_9_CONFIG))

    a = run_scenario(cfg_path, tmp_path / "run_a")
    b = run_scenario(cfg_path, tmp_path / "run_b")
    assert a["results"].read_bytes() == b["results"].read_bytes()
    assert a["trace"].read_bytes() == b["trace"].read_bytes()
    # and through the manifest round trip
    c = run_scenario(a["manifest"], tmp_path / "run_c")
    assert a["results"].read_bytes() == c["results"].read_bytes()
    report(9, "results.csv and trace.csv byte-identical across reruns + manifest round trip")


# The criterion-9 config with receding linearization and without the
# exhaustive scheduler (its OPT is scored under the prior-mean context,
# the receding rows are not, so the CLI refuses the pair), as written by
# the code that stacks each step's readings in ascending sensor order,
# warm starts each MAP solve and solves it by damped Newton, which ends
# each solve with a gradient norm below 1e-15 (Gauss-Newton's: up to
# 1.3e-9).
# Any change to the receding path (the simulated readings, the MAP
# iteration, the contexts built at its estimates) that moves a printed
# digit shows here.
RECEDING_RESULTS = (
    "scheduler,entropy_nats,mutual_info_nats,oracle_calls\r\n"
    "greedy,4.39635969617,1.85978954401,23\r\n"
    "lazy,4.39635969617,1.85978954401,17\r\n"
    "random,4.73010380141,1.52604543876,1\r\n"
)
RECEDING_TRACE = (
    "k,pick_order,sensor,gain_nats\r\n"
    "0,0,0,0.559015187263\r\n"
    "0,1,1,0.263046547948\r\n"
    "1,0,0,0.336257018395\r\n"
    "1,1,1,0.19073728916\r\n"
    "2,0,0,0.31467880912\r\n"
    "2,1,1,0.187130200746\r\n"
)


def test_criterion_9_receding_outputs_are_pinned(tmp_path):
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(dict(CRITERION_9_CONFIG, linearization="receding",
                                        schedulers=["greedy", "lazy", "random"])))
    paths = run_scenario(cfg_path, tmp_path / "run")
    assert paths["results"].read_bytes() == RECEDING_RESULTS.encode()
    assert paths["trace"].read_bytes() == RECEDING_TRACE.encode()
    report(9, "receding results.csv and trace.csv equal their pinned bytes")


# demos/configs/scaling_bench.json under `run`: a Gauss-Markov prior stored
# as a sparse precision, K = 25, so every greedy gain is one precision-form
# oracle call over the steps' gathered picks, as written by the code that
# padded each step's picks into a tuple of its own. Any change to the
# gather, its pick-order sum or the banded log-det that moves a printed
# digit shows here.
SCALING_BENCH_RESULTS = (
    "scheduler,entropy_nats,mutual_info_nats,oracle_calls\r\n"
    "greedy,24.0973330291,17.9542463273,175\r\n"
)
SCALING_BENCH_TRACE = (
    "k,pick_order,sensor,gain_nats\r\n"
    "0,0,2,0.733168534397\r\n"
    "0,1,0,0.463442649153\r\n"
    "1,0,2,0.461321525668\r\n"
    "1,1,0,0.303941652696\r\n"
    "2,0,2,0.439906843088\r\n"
    "2,1,0,0.277699664205\r\n"
    "3,0,2,0.437854009027\r\n"
    "3,1,0,0.270350142595\r\n"
    "4,0,2,0.438057268698\r\n"
    "4,1,0,0.26669870963\r\n"
    "5,0,2,0.438528101006\r\n"
    "5,1,0,0.264013775309\r\n"
    "6,0,2,0.43899569515\r\n"
    "6,1,0,0.261744000185\r\n"
    "7,0,2,0.439420008304\r\n"
    "7,1,0,0.259753642973\r\n"
    "8,0,2,0.439798212675\r\n"
    "8,1,0,0.257991702027\r\n"
    "9,0,2,0.440134152943\r\n"
    "9,1,0,0.256427202723\r\n"
    "10,0,2,0.44043255571\r\n"
    "10,1,0,0.255035908313\r\n"
    "11,0,2,0.440697843833\r\n"
    "11,1,0,0.253797262194\r\n"
    "12,0,2,0.440933933887\r\n"
    "12,1,0,0.252693444517\r\n"
    "13,0,2,0.441144250747\r\n"
    "13,1,0,0.251708906082\r\n"
    "14,0,2,0.441331784125\r\n"
    "14,1,0,0.250830039547\r\n"
    "15,0,2,0.441499146898\r\n"
    "15,1,0,0.250044912497\r\n"
    "16,0,2,0.441648626943\r\n"
    "16,1,0,0.249343042025\r\n"
    "17,0,2,0.441782231619\r\n"
    "17,1,0,0.248715202405\r\n"
    "18,0,2,0.441901725665\r\n"
    "18,1,0,0.24815326052\r\n"
    "19,0,2,0.442008663454\r\n"
    "19,1,0,0.247650034784\r\n"
    "20,0,2,0.442104416513\r\n"
    "20,1,0,0.247199174007\r\n"
    "21,0,2,0.442190197054\r\n"
    "21,1,0,0.246795053178\r\n"
    "22,0,2,0.442267078145\r\n"
    "22,1,0,0.246432683623\r\n"
    "23,0,2,0.442336011058\r\n"
    "23,1,0,0.246107635373\r\n"
    "24,0,2,0.442397840219\r\n"
    "24,1,0,0.245815969942\r\n"
)


def test_sparse_precision_planning_outputs_are_pinned(tmp_path):
    demo = Path(__file__).resolve().parents[1] / "demos" / "configs" / "scaling_bench.json"
    paths = run_scenario(demo, tmp_path / "run")
    assert paths["results"].read_bytes() == SCALING_BENCH_RESULTS.encode()
    assert paths["trace"].read_bytes() == SCALING_BENCH_TRACE.encode()
    report(9, "sparse-precision planning results.csv and trace.csv equal their pinned bytes")


# demos/configs/small_tracking.json with receding linearization and without
# the exhaustive scheduler: a tracking prior stored as a sparse covariance,
# whose MAP solves take the dense precision path that the benchmark's
# receding workload times.
TRACKING_RECEDING_RESULTS = (
    "scheduler,entropy_nats,mutual_info_nats,oracle_calls\r\n"
    "greedy,5.59054211809,2.53742660032,23\r\n"
    "lazy,5.59054211809,2.53742660032,20\r\n"
    "random,6.558148619,1.56982009941,1\r\n"
)
TRACKING_RECEDING_TRACE = (
    "k,pick_order,sensor,gain_nats\r\n"
    "0,0,0,0.626381484248\r\n"
    "0,1,2,0.269498250366\r\n"
    "1,0,0,0.582782052256\r\n"
    "1,1,1,0.246200091659\r\n"
    "2,0,0,0.579424764446\r\n"
    "2,1,1,0.261551118487\r\n"
)


def test_sparse_covariance_receding_outputs_are_pinned(tmp_path):
    demo = Path(__file__).resolve().parents[1] / "demos" / "configs" / "small_tracking.json"
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(dict(json.loads(demo.read_text()), linearization="receding",
                                        schedulers=["greedy", "lazy", "random"])))
    paths = run_scenario(cfg_path, tmp_path / "run")
    assert paths["results"].read_bytes() == TRACKING_RECEDING_RESULTS.encode()
    assert paths["trace"].read_bytes() == TRACKING_RECEDING_TRACE.encode()
    report(9, "sparse-covariance receding results.csv and trace.csv equal their pinned bytes")


# demos/configs/small_tracking.json with "dense": true: a densified tracking
# prior, so every entropy goes through the dense covariance form. `run`
# keeps the config's scheduler order; `certify` puts greedy and exhaustive
# first.
DENSE_TRACKING_TRACE = (
    "k,pick_order,sensor,gain_nats\r\n"
    "0,0,0,0.626381484248\r\n"
    "0,1,2,0.269498250366\r\n"
    "1,0,0,0.582153773967\r\n"
    "1,1,2,0.25771962105\r\n"
    "2,0,0,0.577489180763\r\n"
    "2,1,2,0.257047697299\r\n"
)
DENSE_TRACKING_ROWS = {
    "greedy": "greedy,5.55767871072,2.57029000769,21,0\r\n",
    "lazy": "lazy,5.55767871072,2.57029000769,18,0\r\n",
    "random": "random,6.558148619,1.56982009941,1,0.389243978417\r\n",
    "exhaustive": "exhaustive,5.55767871072,2.57029000769,1331,0\r\n",
}


@pytest.mark.parametrize("verb, order", [
    ("run", ("greedy", "lazy", "random", "exhaustive")),
    ("certify", ("greedy", "exhaustive", "lazy", "random")),
])
def test_dense_covariance_outputs_are_pinned(tmp_path, capsys, verb, order):
    demo = Path(__file__).resolve().parents[1] / "demos" / "configs" / "small_tracking.json"
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(dict(json.loads(demo.read_text()), dense=True)))
    assert main([verb, "--config", str(cfg_path), "--output-dir", str(tmp_path / "run")]) == 0
    capsys.readouterr()
    results = "scheduler,entropy_nats,mutual_info_nats,oracle_calls,bound_ratio\r\n" + "".join(
        DENSE_TRACKING_ROWS[name] for name in order)
    assert (tmp_path / "run" / "results.csv").read_bytes() == results.encode()
    assert (tmp_path / "run" / "trace.csv").read_bytes() == DENSE_TRACKING_TRACE.encode()
    report(9, f"dense covariance {verb}: results.csv and trace.csv equal their pinned bytes")
