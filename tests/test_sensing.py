"""Sensors and schedules."""

import re

import numpy as np
import pytest

import sensorsched as ss


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

    @pytest.mark.parametrize("anchor", [[3.0], [0.0, 0.0, 0.0]], ids=["short", "long"])
    def test_range_anchor_of_the_wrong_length_raises(self, anchor):
        # a length-1 anchor used to broadcast against a 2-D state
        sensor = ss.builtin_sensor("range", anchor=anchor, noise_var=1.0)
        for evaluate in (sensor.measure_at, sensor.jacobian_at):
            with pytest.raises(ss.InvalidParamsError, match="anchor has .* state dim 2"):
                evaluate(np.zeros(2))

    @pytest.mark.parametrize("axis", [1.7, 1.0, True, "1", None, -1],
                             ids=["float", "integral-float", "bool", "str", "none", "negative"])
    def test_linear_coordinate_axis_must_be_a_non_negative_integer(self, axis):
        with pytest.raises(ss.InvalidParamsError, match="axis"):
            ss.builtin_sensor("linear_coordinate", axis=axis, noise_var=1.0)

    def test_linear_coordinate_accepts_numpy_integer_axis(self):
        sensor = ss.builtin_sensor("linear_coordinate", axis=np.int64(1), noise_var=1.0)
        np.testing.assert_allclose(sensor.measure_at(np.array([5.0, 7.0])), [7.0])

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

    def test_per_step_noise_override(self):
        base = ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0)
        sensor = ss.Sensor(
            output_dim=1,
            measure=base.measure,
            jacobian=base.jacobian,
            noise_cov=base.noise_cov,
            noise_overrides={1: np.array([[9.0]])},
        )
        assert [sensor.noise_cov_at(k)[0, 0] for k in range(3)] == [1.0, 9.0, 1.0]

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

    @pytest.mark.parametrize("sets, budgets, message", [
        (((1.9,),), (1.5,), "step 0 has budget 1.5"),
        (((1.9,),), (2,), "step 0 has sensor index 1.9"),
        (((), ("1",)), (1, 1), "step 1 has sensor index '1'"),
        (((True,),), (1,), "step 0 has sensor index True"),
        (((0,),), (True,), "step 0 has budget True"),
        (((0,),), ("2",), "step 0 has budget '2'"),
    ], ids=["float-budget", "float-index", "str-index", "bool-index", "bool-budget", "str-budget"])
    def test_rejects_non_integers_naming_the_step(self, sets, budgets, message):
        with pytest.raises(ss.DimensionMismatchError, match=re.escape(message)):
            ss.Schedule(sets=sets, budgets=budgets)

    def test_accepts_numpy_integers(self):
        sched = ss.Schedule(sets=((np.int64(2), np.int32(0)),), budgets=(np.int64(2),))
        assert sched.sets == ((0, 2),) and sched.budgets == (2,)
        assert all(type(i) is int for i in sched.sets[0] + sched.budgets)
