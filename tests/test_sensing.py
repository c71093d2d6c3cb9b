"""Sensors and schedules."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sensorsched as ss
from conftest import random_instance, random_sensor

KINDS = ("linear_coordinate", "range", "bearing", "quadratic")


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

    @pytest.mark.parametrize("kind, params, message", [
        ("range", {"anchor": [np.nan, 0.0]}, "range anchor"),
        ("bearing", {"anchor": [np.inf, 0.0]}, "bearing anchor"),
        ("quadratic", {"weight": [[1.0, 0.0], [0.0, np.nan]]}, "quadratic weight"),
    ], ids=["range-anchor", "bearing-anchor", "quadratic-weight"])
    def test_non_finite_parameter_raises_naming_kind_and_field(self, kind, params, message):
        # at construction, not later as a Jacobian the caller never gave
        with pytest.raises(ss.InvalidParamsError, match=f"^{message} is not finite$"):
            ss.builtin_sensor(kind, noise_var=1.0, **params)

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


def _user_sensor(output_dim, measured, jacobian, name="u"):
    """A user Sensor whose maps return fixed values of any type or shape."""
    return ss.Sensor(output_dim, lambda x: measured, lambda x: jacobian,
                     np.eye(output_dim), name=name)


class TestSensorWrappers:
    """What ``measure_at``/``jacobian_at`` accept from a sensor's maps, and what they reject."""

    @pytest.mark.parametrize("measured, expected", [
        (2.5, [2.5]),
        (np.array(2.5), [2.5]),
        (np.array([2.5]), [2.5]),
        ([2.5], [2.5]),
        (3, [3.0]),
    ], ids=["float", "0-d", "(1,)", "list", "int"])
    def test_one_output_measurement_forms_are_accepted(self, measured, expected):
        z = _user_sensor(1, measured, np.zeros((1, 2))).measure_at(np.zeros(2))
        assert z.shape == (1,) and z.dtype == float and z.tolist() == expected

    @pytest.mark.parametrize("output_dim", [1.0, True, "1", 0], ids=["float", "bool", "str", "zero"])
    def test_output_dim_that_is_not_a_positive_integer_raises(self, output_dim):
        with pytest.raises(ss.InvalidParamsError, match=r"sensor 'u': output_dim must be"):
            ss.Sensor(output_dim, lambda x: 0.0, lambda x: np.zeros((1, 2)), np.eye(1), name="u")

    def test_numpy_integer_output_dim_is_accepted(self):
        sensor = ss.Sensor(np.int64(2), lambda x: [0.0, 1.0], lambda x: np.eye(2), np.eye(2))
        assert sensor.measure_at(np.zeros(2)).tolist() == [0.0, 1.0]

    def test_a_list_of_outputs_is_accepted(self):
        z = _user_sensor(2, [1.0, 2.0], np.zeros((2, 3))).measure_at(np.zeros(3))
        assert z.shape == (2,) and z.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("jacobian, n", [
        (np.array([1.0, 2.0]), 2),
        ([1.0, 2.0], 2),
        ([[1.0, 2.0]], 2),
        (4.0, 1),
        (np.array([4.0]), 1),
    ], ids=["row", "list-row", "nested-list", "float-n1", "(1,)-n1"])
    def test_one_output_jacobian_rows_are_accepted(self, jacobian, n):
        J = _user_sensor(1, 0.0, jacobian).jacobian_at(np.zeros(n))
        assert J.shape == (1, n) and J.dtype == float
        assert J.tolist() == np.reshape(jacobian, (1, n)).tolist()

    def test_a_full_jacobian_is_accepted(self):
        J = _user_sensor(2, [0.0, 0.0], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]).jacobian_at(np.zeros(3))
        assert J.shape == (2, 3) and J.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    @pytest.mark.parametrize("output_dim, measured, message", [
        (1, np.zeros((1, 1)), "sensor 'u' returned shape (1, 1), expected (1,)"),
        (1, [1.0, 2.0], "sensor 'u' returned shape (2,), expected (1,)"),
        (2, 1.0, "sensor 'u' returned shape (1,), expected (2,)"),
        (2, np.zeros(3), "sensor 'u' returned shape (3,), expected (2,)"),
    ], ids=["(1,1)", "two-for-one", "scalar-for-two", "three-for-two"])
    def test_wrong_measurement_shapes_raise_naming_the_sensor(self, output_dim, measured, message):
        sensor = _user_sensor(output_dim, measured, np.zeros((output_dim, 2)))
        with pytest.raises(ss.DimensionMismatchError, match=re.escape(message)):
            sensor.measure_at(np.zeros(2))

    @pytest.mark.parametrize("output_dim, jacobian, n, message", [
        (1, np.zeros(3), 2, "sensor 'u' jacobian has shape (1, 3), expected (1, 2)"),
        (2, np.zeros(2), 2, "sensor 'u' jacobian has shape (1, 2), expected (2, 2)"),
        (2, np.zeros(2), 1, "sensor 'u' jacobian has shape (1, 2), expected (2, 1)"),
        (1, np.zeros((2, 1)), 2, "sensor 'u' jacobian has shape (2, 1), expected (1, 2)"),
        (1, np.zeros((1, 1, 2)), 2, "sensor 'u' jacobian has shape (1, 1, 2), expected (1, 2)"),
        (2, 1.0, 1, "sensor 'u' jacobian has shape (1, 1), expected (2, 1)"),
    ], ids=["long-row", "row-for-two", "row-for-column", "column", "3-d", "scalar-for-two"])
    def test_wrong_jacobian_shapes_raise_naming_the_sensor(self, output_dim, jacobian, n, message):
        sensor = _user_sensor(output_dim, np.zeros(output_dim), jacobian)
        with pytest.raises(ss.DimensionMismatchError, match=re.escape(message)):
            sensor.jacobian_at(np.zeros(n))


class TestStackedEvaluation:
    """A (P, n) stack of states: every row's one-state result, in one call."""

    @given(kind=st.sampled_from(KINDS), n=st.sampled_from([2, 3, 4]),
           P=st.integers(1, 25), seed=st.integers(0, 2**32 - 1))
    def test_builtin_stack_equals_its_rows_exactly(self, kind, n, P, seed):
        rng = np.random.default_rng(seed)
        sensor = random_sensor(rng, n, kind)
        X = rng.normal(0.0, 2.0, (P, n))
        Z, J = sensor.measure_at(X), sensor.jacobian_at(X)
        assert Z.shape == (P, 1) and J.shape == (P, 1, n)
        assert np.array_equal(Z, [sensor.measure_at(x) for x in X])
        assert np.array_equal(J, [sensor.jacobian_at(x) for x in X])

    @pytest.mark.parametrize("kind", KINDS)
    def test_an_empty_stack_gives_empty_results(self, kind):
        sensor = random_sensor(np.random.default_rng(3), 3, kind)
        X = np.zeros((0, 3))
        assert sensor.measure_at(X).shape == (0, 1)
        assert sensor.jacobian_at(X).shape == (0, 1, 3)

    @pytest.mark.parametrize("sensor, state", [
        (ss.builtin_sensor("range", anchor=[1.0, 2.0], noise_var=1.0), [1.0, 2.0]),
        (ss.builtin_sensor("bearing", anchor=[0.5, -0.5], noise_var=1.0), [0.5, -0.5]),
        (ss.builtin_sensor("bearing", anchor=[0.0, 0.0], noise_var=1.0), [1e-200, 0.0]),
        (ss.builtin_sensor("range", anchor=[1.0, 2.0], noise_var=1.0), [1.0, 2.0, 3.0]),
        (ss.builtin_sensor("bearing", anchor=[0.5, -0.5], noise_var=1.0), [0.5]),
        (ss.builtin_sensor("linear_coordinate", axis=2, noise_var=1.0), [1.0, 2.0]),
        (ss.builtin_sensor("quadratic", weight=np.eye(2), noise_var=1.0), [1.0, 2.0, 3.0]),
    ], ids=["range-anchor", "bearing-anchor", "bearing-underflow", "range-width",
            "bearing-width", "axis-width", "quadratic-width"])
    def test_one_bad_row_raises_what_a_one_state_call_raises(self, sensor, state):
        # at 1e-200 from its anchor a bearing's squared offset underflows:
        # its value and its Jacobian are one evaluation, so both raise
        state = np.array(state)
        X = np.array([state + 1.0, state, state - 1.0])
        for evaluate in (sensor.measure_at, sensor.jacobian_at):
            with pytest.raises(ss.InvalidParamsError) as one:
                evaluate(state)
            with pytest.raises(ss.InvalidParamsError, match=f"^{re.escape(str(one.value))}$"):
                evaluate(X)

    def test_user_sensor_is_applied_row_by_row(self):
        seen = []
        sensor = ss.Sensor(2, lambda x: seen.append(x) or [x.sum(), x[0]],
                           lambda x: [[1.0, 1.0], [1.0, 0.0]], np.eye(2), name="u")
        X = np.array([[1.0, 2.0], [3.0, 5.0]])
        assert sensor.measure_at(X).tolist() == [[3.0, 1.0], [8.0, 3.0]]
        assert [x.tolist() for x in seen] == X.tolist()
        assert sensor.jacobian_at(X).tolist() == [[[1.0, 1.0], [1.0, 0.0]]] * 2

    def test_user_sensor_of_the_wrong_shape_raises_naming_itself_on_a_stack(self):
        sensor = _user_sensor(2, 1.0, np.zeros(2))
        X = np.zeros((3, 2))
        with pytest.raises(ss.DimensionMismatchError,
                           match=re.escape("sensor 'u' returned shape (1,), expected (2,)")):
            sensor.measure_at(X)
        with pytest.raises(ss.DimensionMismatchError,
                           match=re.escape("sensor 'u' jacobian has shape (1, 2), expected (2, 2)")):
            sensor.jacobian_at(X)

    def test_builtin_map_under_a_wrong_output_dim_raises_on_a_stack(self):
        base = ss.builtin_sensor("range", anchor=[0.0, 0.0], noise_var=1.0)
        sensor = ss.Sensor(2, base.measure, base.jacobian, np.eye(2), name="two")
        with pytest.raises(ss.DimensionMismatchError,
                           match=re.escape("sensor 'two' returned shape (3, 1) on a stack, "
                                           "expected (3, 2)")):
            sensor.measure_at(np.ones((3, 2)))


class TestFusedEvaluation:
    """``Sensor._measure_and_jacobian``, the MAP iteration's one call per
    stack, against the public ``measure_at`` and ``jacobian_at``."""

    @given(kind=st.sampled_from(KINDS), n=st.sampled_from([2, 3, 4]),
           P=st.integers(0, 25), seed=st.integers(0, 2**32 - 1))
    def test_builtin_fused_call_equals_the_two_public_calls(self, kind, n, P, seed):
        rng = np.random.default_rng(seed)
        sensor = random_sensor(rng, n, kind)
        X = rng.normal(0.0, 2.0, (P, n))
        Z, J, H = sensor._measure_and_jacobian(X)
        assert Z.shape == (P, 1) and J.shape == (P, 1, n) and H.shape == (P, 1, n, n)
        assert np.array_equal(Z, sensor.measure_at(X))
        assert np.array_equal(J, sensor.jacobian_at(X))

    @pytest.mark.parametrize("sensor, state", [
        (ss.builtin_sensor("range", anchor=[1.0, 2.0], noise_var=1.0), [1.0, 2.0]),
        (ss.builtin_sensor("bearing", anchor=[0.5, -0.5], noise_var=1.0), [0.5, -0.5]),
        (ss.builtin_sensor("bearing", anchor=[0.0, 0.0], noise_var=1.0), [1e-200, 0.0]),
        (ss.builtin_sensor("range", anchor=[1.0, 2.0], noise_var=1.0), [1.0, 2.0, 3.0]),
        (ss.builtin_sensor("bearing", anchor=[0.5, -0.5], noise_var=1.0), [0.5]),
        (ss.builtin_sensor("linear_coordinate", axis=2, noise_var=1.0), [1.0, 2.0]),
        (ss.builtin_sensor("quadratic", weight=np.eye(2), noise_var=1.0), [1.0, 2.0, 3.0]),
    ], ids=["range-anchor", "bearing-anchor", "bearing-underflow", "range-width",
            "bearing-width", "axis-width", "quadratic-width"])
    def test_one_bad_row_raises_what_the_jacobian_raises(self, sensor, state):
        state = np.array(state)
        X = np.array([state + 1.0, state, state - 1.0])
        with pytest.raises(ss.InvalidParamsError) as public:
            sensor.jacobian_at(X)
        with pytest.raises(ss.InvalidParamsError, match=f"^{re.escape(str(public.value))}$"):
            sensor._measure_and_jacobian(X)

    def test_user_sensor_makes_the_two_public_calls(self):
        calls = []
        sensor = ss.Sensor(2, lambda x: calls.append("h") or [x.sum(), x[0]],
                           lambda x: calls.append("J") or [[1.0, 1.0], [1.0, 0.0]],
                           np.eye(2), name="u")
        X = np.array([[1.0, 2.0], [3.0, 5.0]])
        Z, J, H = sensor._measure_and_jacobian(X)
        assert Z.tolist() == [[3.0, 1.0], [8.0, 3.0]] and H is None
        assert J.tolist() == [[[1.0, 1.0], [1.0, 0.0]]] * 2
        assert calls == ["h", "h", "J", "J"]

    def test_maps_of_two_builtin_sensors_are_not_fused(self):
        # a measure and a Jacobian from different sensors keep their own maps
        near = ss.builtin_sensor("range", anchor=[0.0, 0.0], noise_var=1.0)
        far = ss.builtin_sensor("range", anchor=[3.0, 4.0], noise_var=1.0)
        sensor = ss.Sensor(1, near.measure, far.jacobian, np.eye(1), name="mixed")
        X = np.array([[0.0, 1.0], [6.0, 8.0]])
        Z, J, H = sensor._measure_and_jacobian(X)
        assert Z.tolist() == [[1.0], [10.0]] and H is None
        assert np.array_equal(J, far.jacobian_at(X))

    def test_builtin_maps_under_a_wrong_output_dim_raise(self):
        base = ss.builtin_sensor("range", anchor=[0.0, 0.0], noise_var=1.0)
        sensor = ss.Sensor(2, base.measure, base.jacobian, np.eye(2), name="two")
        with pytest.raises(ss.DimensionMismatchError,
                           match=re.escape("sensor 'two' returned shape (3, 1) on a stack, "
                                           "expected (3, 2)")):
            sensor._measure_and_jacobian(np.ones((3, 2)))


class TestSecondDerivatives:
    """The second derivatives a built-in sensor's evaluation gives the MAP's
    Newton iteration, against its own Jacobian."""

    @given(kind=st.sampled_from(KINDS), n=st.sampled_from([2, 3, 4]),
           P=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_second_derivative_is_the_jacobians_central_difference(self, kind, n, P, seed):
        rng = np.random.default_rng(seed)
        sensor = random_sensor(rng, n, kind)
        X = rng.normal(0.0, 2.0, (P, n))
        # states away from the anchors: a range reads its distance, and a
        # bearing's Jacobian has norm one over its planar distance
        J = sensor.jacobian_at(X)[:, 0]
        far = {"range": sensor.measure_at(X)[:, 0],
               "bearing": 1.0 / np.linalg.norm(J, axis=1)}.get(kind, np.ones(P))
        X = X[far >= 0.5]
        Z, J, H = sensor._measure_and_jacobian(X)
        assert H.shape == (len(X), 1, n, n)
        assert np.array_equal(Z, sensor.measure_at(X)) and np.array_equal(J, sensor.jacobian_at(X))
        step = 1e-5
        for j in range(n):
            shift = np.zeros(n)
            shift[j] = step
            column = (sensor.jacobian_at(X + shift) - sensor.jacobian_at(X - shift)) / (2 * step)
            np.testing.assert_allclose(H[:, :, :, j], column, rtol=1e-6, atol=1e-6)
        assert np.array_equal(H, H.swapaxes(2, 3))

    def test_user_sensor_has_none(self):
        sensor = ss.Sensor(1, lambda x: [x @ x], lambda x: [2.0 * x], np.eye(1), name="u")
        Z, J, H = sensor._measure_and_jacobian(np.array([[1.0, 2.0]]))
        assert (Z.tolist(), J.tolist(), H) == ([[5.0]], [[[2.0, 4.0]]], None)


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

    def test_negative_budget_names_its_step(self):
        with pytest.raises(ss.DimensionMismatchError, match="^budget -1 at step 1 is negative$"):
            ss.Schedule(sets=((), ()), budgets=(1, -1))


def _map(ctx, schedule):
    measurements = [np.zeros(len(chosen)) if chosen else None for chosen in schedule.sets]
    return ss.map_linearization(ctx.prior, ctx.suite, schedule, measurements)


# every entry point that takes a whole schedule, called on a K=2, m=3 context
SCHEDULE_CALLS = {
    "precision_form": ss.conditional_entropy_precision_form,
    "covariance_form": ss.conditional_entropy_covariance_form,
    "conditional_entropy": ss.conditional_entropy,
    "posterior_covariance": ss.posterior_covariance,
    "map_linearization": _map,
}
INDEX_3 = ss.Schedule(sets=((0,), (1, 3)), budgets=(2, 2))
THREE_STEPS = ss.Schedule.empty([1, 1, 1])
SHAPE_RULES = (
    [(f"{name}-index", call, INDEX_3, "step 1 selects a sensor index >= m=3")
     for name, call in SCHEDULE_CALLS.items()]
    + [(f"{name}-length", call, THREE_STEPS, "schedule has 3 steps, prior horizon is 2")
       for name, call in SCHEDULE_CALLS.items()]
    + [("greedy_step_detailed-index",
        lambda ctx, prefix: ss.greedy_step_detailed(ctx, prefix, 1, 1),
        ss.Schedule(sets=((3,), ()), budgets=(1, 1)), "step 0 selects a sensor index >= m=3"),
       ("greedy_schedule-budgets", ss.greedy_schedule, [1, 1, 1], "3 budgets for a horizon of 2"),
       ("exhaustive_optimum-budgets", ss.exhaustive_optimum, [1], "1 budgets for a horizon of 2")]
)


@pytest.mark.parametrize("call, argument, message",
                         [rule[1:] for rule in SHAPE_RULES], ids=[rule[0] for rule in SHAPE_RULES])
def test_every_entry_point_words_a_misfit_alike(call, argument, message):
    # a schedule or budget list that does not fit the horizon or the suite
    # is rejected in the same words wherever it enters
    prior, suite = random_instance(65, n=2, K=2, m=3, kind="gauss_markov")
    with pytest.raises(ss.DimensionMismatchError, match=f"^{re.escape(message)}$"):
        call(ss.make_context(prior, suite), argument)


# a misfit of the suite to the prior, or of the point a linearization is
# taken at: (suite of one sensor, point) from the sensor, the error, and its
# words with {name} for the entry point's name of the point
_LC = ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0, name="lc")
POINT_RULES = {
    "suite-state_dim": (lambda: (ss.SensorSuite(3, (_LC,)), None),
                        ss.DimensionMismatchError, "suite state_dim 3 != prior n 2"),
    "override-at-K": (lambda: (ss.SensorSuite(2, (ss.Sensor(1, _LC.measure, _LC.jacobian, 1.0,
                                                            name="lc",
                                                            noise_overrides={2: [[9.0]]}),)),
                               None),
                      ss.DimensionMismatchError,
                      "sensor 0 ('lc'): noise override at step 2 is beyond the horizon K=2"),
    "point-shape": (lambda: (ss.SensorSuite(2, (_LC,)), np.zeros(3)),
                    ss.DimensionMismatchError, "{name} has shape (3,), expected (4,)"),
    "point-not-finite": (lambda: (ss.SensorSuite(2, (_LC,)), np.array([0.0, np.nan, 0.0, 0.0])),
                         ss.InvalidParamsError, "{name} is not finite"),
}


@pytest.mark.parametrize("entry", ["make_context", "OracleContext", "map_linearization"])
@pytest.mark.parametrize("case", list(POINT_RULES))
def test_make_context_and_the_map_word_a_misfit_alike(case, entry):
    # each linearizes the suite at a point of the prior, and each rejects a
    # misfit before any sensor is evaluated, in the same words
    build, error, message = POINT_RULES[case]
    suite, point = build()
    prior = ss.build_tracking_prior(2, 2, marginal_var=1.0, neighbor_corr=0.4)
    if entry != "map_linearization":
        call, name = lambda: getattr(ss, entry)(prior, suite, point), "linearization"
    else:
        # a real solve: one reading at step 0
        schedule = ss.Schedule(sets=((0,), ()), budgets=(1, 1))
        call, name = lambda: ss.map_linearization(prior, suite, schedule, [np.zeros(1), None],
                                                  initial=point), "initial"
    with pytest.raises(error, match=f"^{re.escape(message.format(name=name))}$"):
        call()
