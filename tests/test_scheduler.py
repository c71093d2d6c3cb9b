"""Greedy scheduling, lazy acceleration, and the random baseline."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sensorsched as ss
from conftest import (
    PRIOR_KINDS,
    random_feasible_schedule,
    random_instance,
    random_spd,
    random_spd_block_tridiag,
    random_suite,
)


def single_pick(budgets, k, i):
    """The schedule that selects only sensor i, at step k."""
    sets = tuple((i,) if j == k else () for j in range(len(budgets)))
    return ss.Schedule(sets=sets, budgets=tuple(budgets))


def identical_sensor_suite(n, m, noise_var=1.0):
    return ss.SensorSuite(
        state_dim=n,
        sensors=tuple(
            ss.builtin_sensor("linear_coordinate", axis=0, noise_var=noise_var)
            for _ in range(m)
        ),
    )


class TestGreedySchedule:
    def test_single_candidate_selected_everywhere(self):
        prior, _ = random_instance(5, n=1, K=3, kind="tracking")
        suite = identical_sensor_suite(1, 1)
        ctx = ss.make_context(prior, suite)
        schedule, trace = ss.greedy_schedule(ctx, [1, 1, 1])
        assert schedule.sets == ((0,), (0,), (0,))
        assert all(g > 0 for step in trace.steps for g in step.gains)

    def test_low_noise_twin_always_wins(self):
        prior, _ = random_instance(6, n=1, K=3, kind="tracking")
        suite = ss.SensorSuite(
            state_dim=1,
            sensors=(
                ss.builtin_sensor("linear_coordinate", axis=0, noise_var=100.0),
                ss.builtin_sensor("linear_coordinate", axis=0, noise_var=0.01),
            ),
        )
        ctx = ss.make_context(prior, suite)
        schedule, _ = ss.greedy_schedule(ctx, [1, 1, 1])
        assert schedule.sets == ((1,), (1,), (1,))
        # exhaustive confirmation that the low-noise singleton is optimal
        # at every step
        for k in range(3):
            sched0 = single_pick([1, 1, 1], k, 0)
            sched1 = single_pick([1, 1, 1], k, 1)
            assert ss.conditional_entropy(ctx, sched1) < ss.conditional_entropy(
                ctx, sched0
            )

    def test_feasibility_and_gain_order(self):
        for seed in range(6):
            prior, suite = random_instance(600 + seed)
            ctx = ss.make_context(prior, suite)
            rng = np.random.default_rng(seed)
            budgets = [int(rng.integers(0, suite.m + 1)) for _ in range(prior.K)]
            schedule, trace = ss.greedy_schedule(ctx, budgets)
            for k, chosen in enumerate(schedule.sets):
                assert len(chosen) <= budgets[k]
                assert all(0 <= i < suite.m for i in chosen)
            for step in trace.steps:
                gains = list(step.gains)
                assert all(
                    gains[t] >= gains[t + 1] - 1e-9 for t in range(len(gains) - 1)
                )
                assert step.oracle_calls <= budgets[step.step] * suite.m

    def test_cost_never_above_empty_schedule(self):
        prior, suite = random_instance(61)
        ctx = ss.make_context(prior, suite)
        schedule, _ = ss.greedy_schedule(ctx, [suite.m] * prior.K)
        assert ss.conditional_entropy(ctx, schedule) <= ctx.prior_entropy + 1e-9

    def test_half_range_bound_on_seeded_instance(self):
        prior, suite = random_instance(62, n=1, K=2, m=4, kind="tracking")
        ctx = ss.make_context(prior, suite)
        schedule, _ = ss.greedy_schedule(ctx, [2, 2])
        result = ss.exhaustive_optimum(ctx, [2, 2])
        cert = ss.certify_bound(result, ss.conditional_entropy(ctx, schedule))
        assert cert.holds
        assert cert.ratio is None or cert.ratio <= 0.5 + 1e-9

    def test_budget_length_mismatch_raises(self):
        prior, suite = random_instance(63, K=3)
        ctx = ss.make_context(prior, suite)
        with pytest.raises(ss.DimensionMismatchError):
            ss.greedy_schedule(ctx, [1, 1])


# every entry point that takes a budget, called with budget b at step 1 of a
# three-sensor instance
BUDGET_CALLS = {
    "greedy_step_detailed": lambda ctx, prefix, b: ss.greedy_step_detailed(ctx, prefix, 1, b),
    "lazy_greedy_step_detailed": lambda ctx, prefix, b: ss.greedy_step_detailed(
        ctx, prefix, 1, b, lazy=True
    ),
    "greedy_schedule": lambda ctx, prefix, b: ss.greedy_schedule(ctx, [1, b]),
    "random_schedule": lambda ctx, prefix, b: ss.random_schedule([1, b], m=3, seed=0),
    "exhaustive_optimum": lambda ctx, prefix, b: ss.exhaustive_optimum(ctx, [1, b]),
}


@pytest.mark.parametrize("name", list(BUDGET_CALLS))
def test_negative_budget_raises_naming_step_before_any_oracle_call(monkeypatch, name):
    prior, suite = random_instance(65, K=2, m=3)
    ctx = ss.make_context(prior, suite)
    prefix = ss.Schedule(sets=((0,), ()), budgets=(1, 1))

    def no_oracle(_ctx, _schedule):
        raise AssertionError("oracle called before the budget was checked")

    monkeypatch.setattr("sensorsched.scheduler.conditional_entropy", no_oracle)
    monkeypatch.setattr("sensorsched.exhaustive.conditional_entropy", no_oracle)
    with pytest.raises(ss.DimensionMismatchError, match="budget -1 at step 1"):
        BUDGET_CALLS[name](ctx, prefix, -1)


@pytest.mark.parametrize("name", list(BUDGET_CALLS))
def test_budget_above_m_raises_naming_step(name):
    prior, suite = random_instance(65, K=2, m=3)
    ctx = ss.make_context(prior, suite)
    prefix = ss.Schedule(sets=((0,), ()), budgets=(1, 1))
    with pytest.raises(ss.DimensionMismatchError, match="budget 4 at step 1 exceeds the 3 sensors"):
        BUDGET_CALLS[name](ctx, prefix, 4)


@pytest.mark.parametrize("budget", [1.9, True, "1"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("name", list(BUDGET_CALLS))
def test_non_integer_budget_raises_naming_step(name, budget):
    # greedy_step_detailed with a budget of 1.9 used to pick two sensors
    prior, suite = random_instance(65, K=2, m=3)
    ctx = ss.make_context(prior, suite)
    prefix = ss.Schedule(sets=((0,), ()), budgets=(1, 1))
    with pytest.raises(ss.DimensionMismatchError, match=f"step 1 has budget {budget!r}"):
        BUDGET_CALLS[name](ctx, prefix, budget)


class TestGreedyStep:
    def test_zero_budget_returns_empty(self):
        prior, suite = random_instance(71)
        ctx = ss.make_context(prior, suite)
        out = ss.greedy_step_detailed(ctx, ss.Schedule.empty([0] * prior.K), 0, 0).chosen
        assert out == ()

    @pytest.mark.parametrize("kind", ["gauss_markov", "dense_cov"])
    def test_prefix_index_beyond_the_suite_raises(self, kind):
        prior, suite = random_instance(71, n=2, K=3, m=2, kind=kind)
        ctx = ss.make_context(prior, suite)
        prefix = ss.Schedule(sets=((0,), (2,), ()), budgets=(1, 1, 1))
        with pytest.raises(ss.DimensionMismatchError, match="step 1 selects a sensor index >= m=2"):
            ss.greedy_step_detailed(ctx, prefix, 2, 1)

    def test_identical_sensors_tie_break_by_index(self):
        prior, _ = random_instance(72, n=1, K=2, kind="gauss_markov")
        suite = identical_sensor_suite(1, 4)
        ctx = ss.make_context(prior, suite)
        out = ss.greedy_step_detailed(ctx, ss.Schedule.empty([3, 3]), 0, 3).chosen
        assert out == (0, 1, 2)

    def test_first_pick_matches_singleton_table(self):
        prior, suite = random_instance(73, m=4)
        ctx = ss.make_context(prior, suite)
        budgets = [1] * prior.K
        out = ss.greedy_step_detailed(ctx, ss.Schedule.empty(budgets), 0, 1).chosen
        table = {
            i: ss.conditional_entropy(ctx, single_pick(budgets, 0, i))
            for i in range(suite.m)
        }
        best = min(table, key=lambda i: (table[i], i))
        assert out == (best,)

    def test_zero_gain_stops_the_step(self):
        # a sensor whose jacobian is exactly zero has a true zero gain
        prior, _ = random_instance(74, n=1, K=1, kind="tracking")
        null = ss.Sensor(
            output_dim=1,
            measure=lambda x: np.zeros(1),
            jacobian=lambda x: np.zeros((1, x.size)),
            noise_cov=np.eye(1),
        )
        informative = ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0)
        suite = ss.SensorSuite(state_dim=1, sensors=(informative, null))
        ctx = ss.make_context(prior, suite)

        stopped = ss.greedy_step_detailed(ctx, ss.Schedule.empty([2]), 0, 2)
        assert stopped.chosen == (0,)

    def test_inconsistent_oracle_raises_diagnostic(self, monkeypatch):
        # a sparse prior: its gains are differences of oracle calls
        prior, suite = random_instance(75, K=3, m=2, kind="gauss_markov")
        ctx = ss.make_context(prior, suite)

        def rigged(_ctx, schedule):
            return float(schedule.total_selected)  # entropy grows with additions

        monkeypatch.setattr("sensorsched.scheduler.conditional_entropy", rigged)
        with pytest.raises(ss.OracleInconsistencyError):
            ss.greedy_schedule(ctx, [1] * prior.K)

    @pytest.mark.parametrize("kind", ["dense_cov", "dense_prec"])
    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_dense_nan_row_raises_naming_step_and_sensor(self, kind, lazy):
        # a dense prior's gains come from covariance downdates, not the
        # oracle; a NaN whitened row must still be caught at its candidate
        prior, suite = random_instance(75, n=2, K=3, m=3, kind=kind)
        ctx = ss.make_context(prior, suite)
        # the rows are derived from the sensors, so the plant goes into the
        # padded stack and the view of it that the gain sources read
        rows = ctx._rows.copy()
        rows[1, 2, 0, 0] = math.nan
        planted = dataclasses.replace(ctx)
        object.__setattr__(planted, "_rows", rows)
        object.__setattr__(planted, "whitened_jacobians", rows[:, :-1])
        named = "^step 1, sensor 2: marginal gain nan is not finite$"
        with pytest.raises(ss.OracleInconsistencyError, match=named):
            ss.greedy_schedule(planted, [1] * prior.K, lazy=lazy)
        with pytest.raises(ss.OracleInconsistencyError, match=named):
            ss.greedy_step_detailed(planted, ss.Schedule.empty([1] * prior.K), 1, 1, lazy=lazy)

    def test_dense_failing_factorization_raises_naming_step_and_sensor(self):
        # an indefinite covariance, planted past the prior's own SPD check:
        # I + W S W^T is 1 - 1/4 for sensor 0 and 1 - 4 for sensor 1
        prior = ss.build_dense_prior(1, 2, np.eye(2), "covariance")
        object.__setattr__(prior, "matrix", -np.eye(2))
        suite = ss.SensorSuite(state_dim=1, sensors=(
            ss.builtin_sensor("linear_coordinate", axis=0, noise_var=4.0),
            ss.builtin_sensor("linear_coordinate", axis=0, noise_var=0.25, name="sharp"),
        ))
        ctx = ss.make_context(prior, suite)
        with pytest.raises(ss.NotPositiveDefiniteError) as info:
            ss.greedy_schedule(ctx, [1, 1])
        assert str(info.value) == ("step 0, sensor 1 ('sharp'): "
                                   "I + W S W^T is not positive definite")
        assert info.value.block_index == 0
        np.testing.assert_array_equal(info.value.pivot, [[-3.0]])

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_sparse_covariance_failing_factorization_raises_naming_step_and_sensor(self, lazy):
        # a tracking prior whose step-1 block is -1, planted past the prior's
        # check; step 0 picks nothing, so step 1's block is the prior's and
        # I + W S W^T is 1 - 1/4 for sensor 0 and 1 - 4 for sensor 1, in a
        # run and in a single step alike
        prior = ss.build_tracking_prior(1, 3, 1.0, 0.4)
        object.__setattr__(prior.matrix, "diag_blocks", np.array([[[1.0]], [[-1.0]], [[1.0]]]))
        suite = ss.SensorSuite(state_dim=1, sensors=(
            ss.builtin_sensor("linear_coordinate", axis=0, noise_var=4.0),
            ss.builtin_sensor("linear_coordinate", axis=0, noise_var=0.25, name="sharp"),
        ))
        ctx = ss.make_context(prior, suite)
        for run in (lambda: ss.greedy_schedule(ctx, [0, 1, 1], lazy=lazy),
                    lambda: ss.greedy_step_detailed(ctx, ss.Schedule.empty([1] * 3), 1, 1,
                                                    lazy=lazy)):
            with pytest.raises(ss.NotPositiveDefiniteError) as info:
                run()
            assert str(info.value) == ("step 1, sensor 1 ('sharp'): "
                                       "I + W S W^T is not positive definite")
            assert info.value.block_index == 1
            np.testing.assert_array_equal(info.value.pivot, [[-3.0]])

    @pytest.mark.parametrize("kind", ["dense_cov", "tracking"])
    def test_indefinite_covariance_prefix_raises_naming_its_step(self, kind):
        # the prefix's picks condition an indefinite covariance, planted
        # past the prior's check: I + W S W^T at step 0 is 1 - 4. The dense
        # source downdates step by step, the banded one factors the prefix
        # in one band; both name the step and its picks alike
        prior, _ = random_instance(77, n=1, K=3, kind=kind)
        if kind == "dense_cov":
            object.__setattr__(prior, "matrix", -np.eye(3))
        else:
            object.__setattr__(prior.matrix, "diag_blocks", -np.ones((3, 1, 1)))
        suite = ss.SensorSuite(state_dim=1, sensors=(
            ss.builtin_sensor("linear_coordinate", axis=0, noise_var=4.0),
            ss.builtin_sensor("linear_coordinate", axis=0, noise_var=0.25),
        ))
        ctx = ss.make_context(prior, suite)
        prefix = ss.Schedule(sets=((1,), (), ()), budgets=(1, 1, 1))
        with pytest.raises(ss.NotPositiveDefiniteError) as info:
            ss.greedy_step_detailed(ctx, prefix, 2, 1)
        assert str(info.value) == "step 0, sensors [1]: I + W S W^T is not positive definite"

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_nan_gain_raises_naming_step_and_sensor(self, monkeypatch, lazy):
        # a sparse precision prior: its gains are differences of oracle calls
        prior, suite = random_instance(76, K=3, m=2, kind="gauss_markov")
        ctx = ss.make_context(prior, suite)
        monkeypatch.setattr(
            "sensorsched.scheduler.conditional_entropy", lambda _ctx, _schedule: math.nan
        )
        with pytest.raises(ss.OracleInconsistencyError, match="step 0, sensor 0"):
            ss.greedy_schedule(ctx, [1] * prior.K, lazy=lazy)

    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_sparse_covariance_nan_block_raises_naming_step_and_sensor(self, lazy):
        # a tracking prior's gains come from step k's block alone; a NaN in
        # the prior's block 1, planted past the prior's check, is copied into
        # step 1's block when step 0 ends and must be caught at step 1's
        # first candidate
        prior, suite = random_instance(76, n=2, K=3, m=2, kind="tracking")
        ctx = ss.make_context(prior, suite)
        diag = prior.matrix.diag_blocks.copy()
        diag[1, 0, 0] = math.nan
        object.__setattr__(prior.matrix, "diag_blocks", diag)
        with pytest.raises(ss.OracleInconsistencyError,
                           match="^step 1, sensor 0: marginal gain nan is not finite$"):
            ss.greedy_schedule(ctx, [1] * prior.K, lazy=lazy)


@pytest.mark.parametrize("seed", [4, 7, 9])
def test_sparse_and_densified_greedy_pick_alike(monkeypatch, seed):
    # perfbench's certify instance at this seed: two range sensors tie at
    # step 0 in exact arithmetic, and the sparse and dense gain sources
    # round them apart by an ulp; the 1e-12-nat grid ties them again
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from perfbench.workloads import certify_config

    config = certify_config(seed, 3)
    prior = ss.build_tracking_prior(**{k: v for k, v in config["prior"].items() if k != "kind"})
    suite = ss.SensorSuite(state_dim=2, sensors=tuple(
        ss.builtin_sensor(spec["kind"], **{k: v for k, v in spec.items() if k != "kind"})
        for spec in config["sensors"]
    ))
    for lazy in (False, True):
        sparse = ss.greedy_schedule(ss.make_context(prior, suite), [2] * 3, lazy=lazy)[0]
        dense = ss.greedy_schedule(ss.make_context(ss.densify(prior), suite), [2] * 3, lazy=lazy)[0]
        assert sparse.sets == dense.sets


class TestLazyGreedy:
    def test_identical_output_to_eager(self):
        for seed in range(10):
            prior, suite = random_instance(800 + seed)
            ctx = ss.make_context(prior, suite)
            rng = np.random.default_rng(seed)
            budgets = [int(rng.integers(0, suite.m + 1)) for _ in range(prior.K)]
            eager, eager_trace = ss.greedy_schedule(ctx, budgets)
            lazy, lazy_trace = ss.greedy_schedule(ctx, budgets, lazy=True)
            assert eager.sets == lazy.sets
            assert lazy_trace.total_oracle_calls <= eager_trace.total_oracle_calls

    def test_identical_sensors_never_beat_eager_count(self):
        prior, _ = random_instance(81, n=1, K=1, kind="tracking")
        suite = identical_sensor_suite(1, 6)
        ctx = ss.make_context(prior, suite)
        eager, eager_trace = ss.greedy_schedule(ctx, [3])
        lazy, lazy_trace = ss.greedy_schedule(ctx, [3], lazy=True)
        assert eager.sets == lazy.sets
        assert lazy_trace.total_oracle_calls <= eager_trace.total_oracle_calls

    def test_strictly_fewer_calls_on_wide_instance(self):
        prior, suite = random_instance(82, n=2, K=2, m=20)
        ctx = ss.make_context(prior, suite)
        eager, eager_trace = ss.greedy_schedule(ctx, [3, 3])
        lazy, lazy_trace = ss.greedy_schedule(ctx, [3, 3], lazy=True)
        assert eager.sets == lazy.sets
        assert lazy_trace.total_oracle_calls < eager_trace.total_oracle_calls

    def test_step_function_equivalence(self):
        prior, suite = random_instance(83, m=5)
        ctx = ss.make_context(prior, suite)
        prefix = ss.Schedule.empty([2] * prior.K)
        for k in range(prior.K):
            eager = ss.greedy_step_detailed(ctx, prefix, k, 2)
            lazy = ss.greedy_step_detailed(ctx, prefix, k, 2, lazy=True)
            assert eager.chosen == lazy.chosen


@st.composite
def greedy_instances(draw):
    """A small random instance and per-step budgets."""
    prior, suite = random_instance(draw(st.integers(0, 2**20)))
    budgets = draw(st.lists(st.integers(0, suite.m), min_size=prior.K, max_size=prior.K))
    return ss.make_context(prior, suite), budgets


@settings(max_examples=60)
@given(greedy_instances())
def test_lazy_equals_eager(instance):
    ctx, budgets = instance
    runs = {lazy: ss.greedy_schedule(ctx, budgets, lazy=lazy) for lazy in (False, True)}
    (eager, eager_trace), (lazy, lazy_trace) = runs[False], runs[True]
    assert eager.sets == lazy.sets
    m = ctx.suite.m
    for e, l in zip(eager_trace.steps, lazy_trace.steps):
        assert (e.chosen, e.gains) == (l.chosen, l.gains)
        assert l.oracle_calls <= e.oracle_calls
        # one scan per pick, plus the scan that stopped at a zero gain
        scans = min(len(e.chosen) + 1, budgets[e.step])
        assert e.oracle_calls == sum(m - t for t in range(scans))
    for policy, (schedule, trace) in runs.items():
        for step in trace.steps:
            detail = ss.greedy_step_detailed(
                ctx, schedule, step.step, budgets[step.step], lazy=policy
            )
            assert (detail.chosen, detail.gains) == (step.chosen, step.gains)


@st.composite
def downdate_instances(draw):
    """A small instance whose gains come from covariance downdates, its
    budgets, and a random prefix and step. The prior is dense, a tracking
    covariance, or a random block-tridiagonal covariance. The built-in
    sensors have one output each, so their gains take the scalar path; at
    n >= 2 some suites also hold a linear sensor of two outputs, which
    sends every gain of the suite through the stacked 2 x 2 factorization."""
    kind = draw(st.sampled_from(["dense_cov", "dense_prec", "tracking", "banded"]))
    seed = draw(st.integers(0, 2**20))
    if kind == "banded":
        rng = np.random.default_rng(seed)
        n, K, m = int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 6))
        covariance = random_spd_block_tridiag(rng, n, K)[0]
        prior = ss.GaussianPrior(n, K, rng.normal(0.0, 0.7, n * K), covariance,
                                 "covariance_sparse")
        suite = random_suite(rng, n, m)
    else:
        prior, suite = random_instance(seed, kind=kind)
    if prior.n >= 2 and draw(st.booleans()):
        rng = np.random.default_rng(seed + 1)
        H = rng.standard_normal((2, prior.n))
        pair = ss.Sensor(2, lambda x, H=H: H @ x, lambda x, H=H: H, random_spd(rng, 2, 0.3),
                         name="pair")
        sensors = list(suite.sensors)
        sensors.insert(draw(st.integers(0, suite.m)), pair)
        suite = ss.SensorSuite(state_dim=prior.n, sensors=tuple(sensors))
    budgets = draw(st.lists(st.integers(0, suite.m), min_size=prior.K, max_size=prior.K))
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    prefix = random_feasible_schedule(rng, suite.m, [suite.m] * prior.K)
    return ss.make_context(prior, suite), budgets, prefix, draw(st.integers(0, prior.K - 1))


def assert_picks_match_the_oracle(ctx, sets, step):
    """Each of ``step``'s picks, given ``sets`` before it, is the reference
    oracle's argmax (ties to the lowest index), and its gain the oracle's
    entropy drop."""
    k, m = step.step, ctx.suite.m
    budgets = (m,) * ctx.K
    sets = [tuple(chosen) if j < k else () for j, chosen in enumerate(sets)]

    def entropy(chosen):
        trial = list(sets)
        trial[k] = tuple(sorted(chosen))
        return ss.conditional_entropy(ctx, ss.Schedule(sets=tuple(trial), budgets=budgets))

    chosen: list[int] = []
    base = entropy(chosen)
    for i, gain in zip(step.chosen, step.gains):
        after = {j: entropy(chosen + [j]) for j in range(m) if j not in chosen}
        drops = {j: base - h for j, h in after.items()}
        assert gain == pytest.approx(drops[i], rel=0, abs=1e-9)
        best = max(drops.values())
        assert i == min(j for j, drop in drops.items() if drop >= best - 1e-9)
        chosen.append(i)
        base = after[i]


@settings(max_examples=100)
@given(downdate_instances())
def test_downdate_gains_match_the_reference_oracle(instance):
    ctx, budgets, prefix, k = instance
    for lazy in (False, True):
        schedule, trace = ss.greedy_schedule(ctx, budgets, lazy=lazy)
        for step in trace.steps:
            assert_picks_match_the_oracle(ctx, schedule.sets, step)
        step = ss.greedy_step_detailed(ctx, prefix, k, budgets[k], lazy=lazy)
        assert_picks_match_the_oracle(ctx, prefix.sets, step)


DOWNDATE_PINS = json.loads((Path(__file__).parent / "data" / "downdate_gain_pins.json").read_text())


def downdate_pin_instance(name):
    """The context and per-step budgets of one ``downdate_gain_pins.json``
    instance: a dense covariance or dense precision prior, criterion 6's
    tracking prior and suite at K = 50, the same at n = 1, or a random
    block-tridiagonal covariance; every sensor is a built-in one of one
    output."""
    if name in ("tracking", "tracking_n1"):
        n = 4 if name == "tracking" else 1
        ctx = ss.make_context(ss.build_tracking_prior(n, 50, 1.0, 0.4),
                              random_suite(np.random.default_rng(777), n, 8))
        return ctx, [2] * ctx.K
    if name == "banded":
        rng = np.random.default_rng(31)
        covariance = random_spd_block_tridiag(rng, 3, 8)[0]
        prior = ss.GaussianPrior(3, 8, rng.normal(0.0, 0.7, 24), covariance,
                                 "covariance_sparse")
        suite = random_suite(rng, 3, 6)
    else:
        prior, suite = random_instance(31, n=3, K=8, m=6, kind=name)
    return ss.make_context(prior, suite), [3] * prior.K


def downdate_pin_record(ctx, budgets):
    """Picks, gain evaluations and ``float.hex`` gains of an eager and a lazy
    run, and of one step after the run's own picks before it."""
    def record(steps):
        return {"picks": [list(s.chosen) for s in steps],
                "calls": [s.oracle_calls for s in steps],
                "gains": [[g.hex() for g in s.gains] for s in steps]}

    k, out = ctx.K // 2, {}
    for policy, lazy in (("eager", False), ("lazy", True)):
        schedule, trace = ss.greedy_schedule(ctx, budgets, lazy=lazy)
        step = ss.greedy_step_detailed(ctx, schedule, k, budgets[k], lazy=lazy)
        out[policy] = {"run": record(trace.steps), "step": dict(record([step]), k=k)}
    return out


@pytest.mark.parametrize("name", ["dense_cov", "dense_prec", "tracking", "tracking_n1", "banded"])
def test_downdate_gains_match_their_pins_bit_for_bit(name):
    # the reference-oracle property's 1e-9 tolerance does not see the bits
    # of a gain; these were written by the tree that factored every refresh
    # as a stack of d x d Cholesky factors, d = 1 included
    assert downdate_pin_record(*downdate_pin_instance(name)) == DOWNDATE_PINS["instances"][name]


def test_sparse_covariance_steps_match_the_run_at_every_k():
    # a long horizon on a prior stored as a sparse covariance (criterion 6's
    # suite generator on a tracking prior): a run conditions step k's block
    # step by step, a single step factors its prefix in one band; both must
    # give the same picks and gains at every k
    ctx = ss.make_context(ss.build_tracking_prior(4, 200, 1.0, 0.4),
                          random_suite(np.random.default_rng(777), 4, 8))
    schedule, trace = ss.greedy_schedule(ctx, [2] * ctx.K)
    for k, run in enumerate(trace.steps):
        step = ss.greedy_step_detailed(ctx, schedule, k, 2)
        assert step.chosen == run.chosen, k
        np.testing.assert_allclose(step.gains, run.gains, rtol=1e-12, atol=0, err_msg=str(k))


def test_every_scored_schedule_carries_the_pick_index_of_its_sets(monkeypatch):
    # a sparse precision instance of the benchmark's horizon size (n = 4,
    # K = 25, m = 8): every schedule the oracle gain source scores, in runs
    # and in single steps after a prefix, carries the index its sets build,
    # step k's column written in ascending order whatever the pick order
    from sensorsched import scheduler
    from sensorsched.sensing import _pick_index

    prior, suite = random_instance(28, n=4, K=25, m=8, kind="gauss_markov")
    ctx = ss.make_context(prior, suite)
    oracle, scored, counted = scheduler.conditional_entropy, [], 0

    def checked(ctx, schedule):
        assert np.array_equal(schedule._picks, _pick_index(schedule.sets))
        assert schedule._picks.shape == _pick_index(schedule.sets).shape
        assert not schedule._picks.flags.writeable
        scored.append(schedule)
        return oracle(ctx, schedule)

    monkeypatch.setattr(scheduler, "conditional_entropy", checked)
    for lazy in (False, True):
        schedule, trace = ss.greedy_schedule(ctx, [3] * ctx.K, lazy=lazy)
        counted += trace.total_oracle_calls
        # a later pick below an earlier one: its column needs sorting
        assert any(list(step.chosen) != sorted(step.chosen) for step in trace.steps)
        for k in (0, 1, 12, 24):
            step = ss.greedy_step_detailed(ctx, schedule, k, 3, lazy=lazy)
            assert step.chosen == trace.steps[k].chosen
            counted += step.oracle_calls
    # one oracle call per gain evaluation, and one for a non-empty prefix
    assert len(scored) == counted


@pytest.mark.parametrize("kind", PRIOR_KINDS)
def test_a_prefix_of_just_k_steps_scores_step_k_as_the_padded_prefix(kind):
    # ``fixed_prefix`` need only cover steps 0..k-1: a prefix of exactly k
    # steps gives step k the trace that the same picks padded with empty
    # steps to the horizon give, whichever gain source the prior picks
    prior, suite = random_instance(30, n=2, K=5, m=4, kind=kind)
    ctx = ss.make_context(prior, suite)
    sets = ((0, 2), (1,), (), (1, 3), (2,))
    for k in range(ctx.K):
        short = ss.Schedule(sets=sets[:k], budgets=(2,) * k)
        padded = ss.Schedule(sets=sets[:k] + ((),) * (ctx.K - k), budgets=(2,) * ctx.K)
        for lazy in (False, True):
            step = ss.greedy_step_detailed(ctx, short, k, 2, lazy=lazy)
            assert step == ss.greedy_step_detailed(ctx, padded, k, 2, lazy=lazy), k
            assert len(step.chosen) == 2 and step.oracle_calls > 0


class TestRandomSchedule:
    def test_deterministic_by_seed(self):
        a = ss.random_schedule([2, 1, 3], m=5, seed=123)
        b = ss.random_schedule([2, 1, 3], m=5, seed=123)
        assert a.sets == b.sets
        c = ss.random_schedule([2, 1, 3], m=5, seed=124)
        # ((0, 3), (0,), (0, 1, 2)) against ((3, 4), (3,), (0, 1, 3))
        assert a.sets != c.sets

    def test_full_budget_selects_everything(self):
        sched = ss.random_schedule([3, 3], m=3, seed=1)
        assert sched.sets == ((0, 1, 2), (0, 1, 2))

    def test_mean_random_entropy_dominates_greedy(self):
        prior, suite = random_instance(84, n=1, K=2, m=4, kind="tracking")
        ctx = ss.make_context(prior, suite)
        schedule, _ = ss.greedy_schedule(ctx, [2, 2])
        greedy_cost = ss.conditional_entropy(ctx, schedule)
        costs = [
            ss.conditional_entropy(ctx, ss.random_schedule([2, 2], 4, seed))
            for seed in range(1000)
        ]
        assert np.mean(costs) >= greedy_cost - 1e-9

    def test_budget_above_m_raises(self):
        with pytest.raises(ss.DimensionMismatchError):
            ss.random_schedule([4], m=3, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
    def test_seed_that_is_not_a_non_negative_integer_raises(self, seed):
        with pytest.raises(ss.InvalidParamsError, match="seed: must be a non-negative integer"):
            ss.random_schedule([1], m=3, seed=seed)


class TestTrace:
    def test_picks_iteration_matches_steps(self):
        prior, suite = random_instance(85, m=3)
        ctx = ss.make_context(prior, suite)
        schedule, trace = ss.greedy_schedule(ctx, [2] * prior.K)
        picks = list(trace.picks())
        assert len(picks) == schedule.total_selected
        for k, order, sensor, gain in picks:
            assert sensor in schedule.sets[k]
            assert gain >= 0.0
        assert trace.total_oracle_calls == sum(s.oracle_calls for s in trace.steps)
