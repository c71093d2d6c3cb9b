"""Sensors, schedules, and stacked block matrices."""

import re

import numpy as np
import pytest
import scipy.linalg

import sensorsched as ss
from conftest import random_suite


def selection_matrix(suite, chosen):
    """Explicit 0/1 selection matrix for one step (oracle use only)."""
    dims = [s.output_dim for s in suite.sensors]
    total = sum(dims)
    rows = sum(dims[i] for i in chosen)
    S = np.zeros((rows, total))
    at = 0
    for i in chosen:
        start = sum(dims[:i])
        for r in range(dims[i]):
            S[at + r, start + r] = 1.0
        at += dims[i]
    return S


class TestBuiltinSensors:
    def test_linear_coordinate(self):
        sensor = ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0)
        x = np.array([5.0, 7.0])
        np.testing.assert_allclose(sensor.measure_at(x), [5.0])
        np.testing.assert_allclose(sensor.jacobian_at(x), [[1.0, 0.0]])

    def test_range(self):
        sensor = ss.builtin_sensor("range", anchor=[0.0, 0.0], noise_var=1.0)
        x = np.array([3.0, 4.0])
        np.testing.assert_allclose(sensor.measure_at(x), [5.0])
        np.testing.assert_allclose(sensor.jacobian_at(x), [[0.6, 0.8]])

    def test_range_at_anchor_raises(self):
        sensor = ss.builtin_sensor("range", anchor=[1.0, 2.0], noise_var=1.0)
        with pytest.raises(ss.InvalidParamsError):
            sensor.jacobian_at(np.array([1.0, 2.0]))

    def test_bearing_at_anchor_raises(self):
        sensor = ss.builtin_sensor("bearing", anchor=[0.5, -0.5], noise_var=1.0)
        with pytest.raises(ss.InvalidParamsError):
            sensor.measure_at(np.array([0.5, -0.5]))

    def test_quadratic(self):
        sensor = ss.builtin_sensor("quadratic", weight=np.eye(2), noise_var=1.0)
        x = np.array([1.0, 2.0])
        np.testing.assert_allclose(sensor.measure_at(x), [2.5])
        np.testing.assert_allclose(sensor.jacobian_at(x), [[1.0, 2.0]])

    def test_unknown_kind_raises(self):
        with pytest.raises(ss.InvalidParamsError):
            ss.builtin_sensor("sonar", noise_var=1.0)

    def test_noise_must_be_spd(self):
        with pytest.raises(ss.InvalidParamsError):
            ss.builtin_sensor("range", anchor=[0.0], noise_var=-2.0)
        with pytest.raises(ss.NotPositiveDefiniteError):
            ss.builtin_sensor("range", anchor=[0.0], noise_cov=[[-1.0]])

    @pytest.mark.parametrize("override, error", [
        ([[-1.0]], ss.NotPositiveDefiniteError),
        ([[np.nan]], ss.InvalidParamsError),
    ], ids=["not-spd", "nan"])
    def test_bad_noise_override_raises_at_construction_naming_its_step(self, override, error):
        base = ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0)
        with pytest.raises(error, match="step 1"):
            ss.Sensor(1, base.measure, base.jacobian, base.noise_cov,
                      noise_overrides={1: override})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_noise_cov_raises(self, value):
        with pytest.raises(ss.InvalidParamsError, match="not finite"):
            ss.builtin_sensor("range", anchor=[0.0], noise_cov=[[value]])

    def test_noise_factor_per_step(self):
        base = ss.builtin_sensor("linear_coordinate", axis=0, noise_var=4.0)
        sensor = ss.Sensor(1, base.measure, base.jacobian, base.noise_cov,
                           noise_overrides={2: [[9.0]]})
        assert [sensor.noise_factor_at(k)[0, 0] for k in range(3)] == [2.0, 2.0, 3.0]

    @pytest.mark.parametrize("key", [1.5, -1, "1", True], ids=["float", "negative", "str", "bool"])
    def test_override_key_that_is_not_a_step_raises_naming_it(self, key):
        base = ss.builtin_sensor("linear_coordinate", axis=0, noise_var=4.0)
        with pytest.raises(ss.InvalidParamsError, match=rf"'lc'.*key {re.escape(repr(key))} "):
            ss.Sensor(1, base.measure, base.jacobian, base.noise_cov, name="lc",
                      noise_overrides={key: [[9.0]]})

    def test_override_beyond_the_horizon_raises_in_make_context(self):
        base = ss.builtin_sensor("linear_coordinate", axis=0, noise_var=4.0)
        sensor = ss.Sensor(1, base.measure, base.jacobian, base.noise_cov, name="lc",
                           noise_overrides={np.int64(2): [[9.0]], 3: [[9.0]]})
        suite = ss.SensorSuite(state_dim=1, sensors=(base, sensor))
        prior = ss.build_tracking_prior(1, 3, marginal_var=1.0, neighbor_corr=0.2)
        with pytest.raises(ss.DimensionMismatchError, match=r"sensor 1 \('lc'\).*step 3"):
            ss.make_context(prior, suite)
        within = ss.build_tracking_prior(1, 4, marginal_var=1.0, neighbor_corr=0.2)
        increments = ss.make_context(within, suite).info_increments
        assert [inc[1][0, 0] for inc in increments] == [0.25, 0.25, 1 / 9, 1 / 9]

    def test_jacobians_match_finite_differences(self):
        # central differences at 100 random points per sensor kind
        rng = np.random.default_rng(71)
        n = 2
        sensors = [
            ss.builtin_sensor("linear_coordinate", axis=1, noise_var=1.0),
            ss.builtin_sensor("range", anchor=[5.0, 5.0], noise_var=1.0),
            ss.builtin_sensor("bearing", anchor=[5.0, 5.0], noise_var=1.0),
            ss.builtin_sensor("quadratic", weight=[[2.0, 0.5], [0.5, 1.0]], noise_var=1.0),
        ]
        for sensor in sensors:
            for _ in range(100):
                x = rng.normal(0.0, 1.0, n)
                analytic = sensor.jacobian_at(x)
                numeric = ss.finite_difference_jacobian(sensor.measure, x, step=1e-6)
                np.testing.assert_allclose(analytic, numeric, atol=1e-5)


class TestSchedule:
    def test_rejects_over_budget(self):
        with pytest.raises(ss.DimensionMismatchError):
            ss.Schedule(sets=((0, 1),), budgets=(1,))

    def test_rejects_duplicates(self):
        with pytest.raises(ss.DimensionMismatchError):
            ss.Schedule(sets=((0, 0),), budgets=(3,))

    def test_sorts_indices(self):
        sched = ss.Schedule(sets=((2, 0, 1), ()), budgets=(3, 1))
        assert sched.sets == ((0, 1, 2), ())
        assert sched.total_selected == 3

    def test_empty_constructor(self):
        sched = ss.Schedule.empty([2, 2, 2])
        assert sched.sets == ((), (), ())
        assert sched.num_steps == 3

    def test_with_set(self):
        sched = ss.Schedule.empty([2, 2]).with_set(1, (1, 0))
        assert sched.sets == ((), (0, 1))


class TestStackedJacobian:
    def test_single_linear_sensor_identity(self):
        suite = ss.SensorSuite(
            state_dim=1,
            sensors=(ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0),),
        )
        sched = ss.Schedule(sets=((0,), (0,)), budgets=(1, 1))
        out = ss.stacked_jacobian(suite, sched, np.zeros(2))
        np.testing.assert_allclose(out.assemble(), np.eye(2))

    def test_empty_selection_gives_zero_row_blocks(self):
        suite = ss.SensorSuite(
            state_dim=2,
            sensors=(ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0),),
        )
        sched = ss.Schedule.empty([1, 1])
        out = ss.stacked_jacobian(suite, sched, np.zeros(4))
        assert out.row_dims == (0, 0)
        assert out.col_dims == (2, 2)

    def test_range_sensor_row(self):
        suite = ss.SensorSuite(
            state_dim=2,
            sensors=(ss.builtin_sensor("range", anchor=[0.0, 0.0], noise_var=1.0),),
        )
        sched = ss.Schedule(sets=((0,),), budgets=(1,))
        out = ss.stacked_jacobian(suite, sched, np.array([3.0, 4.0]))
        np.testing.assert_allclose(out.blocks[0], [[0.6, 0.8]])

    def test_wrong_linearization_length_raises(self):
        suite = ss.SensorSuite(
            state_dim=2,
            sensors=(ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0),),
        )
        with pytest.raises(ss.DimensionMismatchError):
            ss.stacked_jacobian(suite, ss.Schedule.empty([1]), np.zeros(3))

    def test_matches_selection_matrix_oracle(self):
        rng = np.random.default_rng(37)
        suite = random_suite(rng, n=2, m=4)
        sched = ss.Schedule(sets=((1, 3), (), (0,)), budgets=(2, 2, 2))
        lin = rng.normal(0.0, 0.5, 6)
        got = ss.stacked_jacobian(suite, sched, lin).assemble()

        # oracle: materialize per-step S_k and the full-suite jacobian stack
        states = lin.reshape(3, 2)
        blocks = []
        for k, chosen in enumerate(sched.sets):
            full = np.vstack([s.jacobian_at(states[k]) for s in suite.sensors])
            blocks.append(selection_matrix(suite, chosen) @ full)
        oracle = scipy.linalg.block_diag(*blocks)
        np.testing.assert_allclose(got, oracle)


class TestStackedNoiseCov:
    def test_two_sensor_variances(self):
        suite = ss.SensorSuite(
            state_dim=1,
            sensors=(
                ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0),
                ss.builtin_sensor("linear_coordinate", axis=0, noise_var=4.0),
            ),
        )
        sched = ss.Schedule(sets=((0, 1),), budgets=(2,))
        np.testing.assert_allclose(
            ss.stacked_noise_cov(suite, sched).assemble(), np.diag([1.0, 4.0])
        )

    def test_empty_schedule_is_zero_by_zero(self):
        suite = ss.SensorSuite(
            state_dim=1,
            sensors=(ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0),),
        )
        out = ss.stacked_noise_cov(suite, ss.Schedule.empty([1, 1]))
        assert out.shape == (0, 0)

    def test_matches_selection_matrix_oracle(self):
        rng = np.random.default_rng(41)
        suite = random_suite(rng, n=2, m=5)
        sched = ss.Schedule(sets=((0, 2), (4,), ()), budgets=(2, 2, 2))
        got = ss.stacked_noise_cov(suite, sched).assemble()

        full_noise = scipy.linalg.block_diag(*[s.noise_cov for s in suite.sensors])
        blocks = [
            selection_matrix(suite, chosen) @ full_noise @ selection_matrix(suite, chosen).T
            for chosen in sched.sets
        ]
        oracle = scipy.linalg.block_diag(*blocks)
        assert oracle.shape == got.shape
        np.testing.assert_allclose(got, oracle)

    def test_inverse_equals_stacked_inverses(self):
        # block-diagonal inverse identity used by the information form
        rng = np.random.default_rng(43)
        suite = random_suite(rng, n=2, m=3)
        sched = ss.Schedule(sets=((0, 1, 2),), budgets=(3,))
        stacked = ss.stacked_noise_cov(suite, sched).assemble()
        inv_blocks = scipy.linalg.block_diag(
            *[np.linalg.inv(s.noise_cov) for s in suite.sensors]
        )
        np.testing.assert_allclose(np.linalg.inv(stacked), inv_blocks, rtol=1e-10)

    def test_per_step_noise_override(self):
        base = ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0)
        sensor = ss.Sensor(
            output_dim=1,
            measure=base.measure,
            jacobian=base.jacobian,
            noise_cov=base.noise_cov,
            noise_overrides={1: np.array([[9.0]])},
        )
        suite = ss.SensorSuite(state_dim=1, sensors=(sensor,))
        sched = ss.Schedule(sets=((0,), (0,)), budgets=(1, 1))
        np.testing.assert_allclose(
            ss.stacked_noise_cov(suite, sched).assemble(), np.diag([1.0, 9.0])
        )
