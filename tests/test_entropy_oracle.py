"""The two entropy formulas, posterior covariance, MI, and MAP estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sensorsched as ss
from conftest import (
    all_schedules,
    measurement_model,
    random_instance,
    random_prior,
    random_spd,
    random_suite,
)

LOG_2PIE = math.log(2 * math.pi * math.e)


def scalar_conjugate_instance():
    """n=1, K=1, unit prior, one unit-noise linear sensor: posterior var 1/2."""
    prior = ss.build_dense_prior(1, 1, np.array([[1.0]]))
    suite = ss.SensorSuite(
        state_dim=1,
        sensors=(ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0),),
    )
    return prior, suite


def rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def count_inversions(monkeypatch):
    """Record every dense inversion a prior makes for the form it does not store."""
    from sensorsched import process_models

    inverted = []
    real = process_models._inverse_spd
    monkeypatch.setattr(process_models, "_inverse_spd",
                        lambda A, *a: inverted.append(A) or real(A, *a))
    return inverted


class TestPrecisionForm:
    def test_empty_schedule_equals_prior_entropy_exactly(self):
        prior, suite = random_instance(4, kind="gauss_markov")
        ctx = ss.make_context(prior, suite)
        sched = ss.Schedule.empty([suite.m] * prior.K)
        assert ss.conditional_entropy_precision_form(ctx, sched) == ctx.prior_entropy

    def test_scalar_conjugate(self):
        prior, suite = scalar_conjugate_instance()
        ctx = ss.make_context(prior, suite)
        sched = ss.Schedule(sets=((0,),), budgets=(1,))
        expected = 0.5 * math.log(2 * math.pi * math.e * 0.5)
        assert ss.conditional_entropy_precision_form(ctx, sched) == pytest.approx(
            expected, abs=1e-10
        )
        assert expected == pytest.approx(1.07236, abs=1e-5)

    def test_covariance_prior_inverts_once_per_prior(self, monkeypatch):
        prior, suite = random_instance(8, kind="tracking")
        inverted = count_inversions(monkeypatch)
        sched = ss.Schedule(sets=tuple((0,) for _ in range(prior.K)),
                            budgets=tuple(1 for _ in range(prior.K)))
        for _ in range(2):  # a second context reuses the prior's dense precision
            ctx = ss.make_context(prior, suite)
            value = ss.conditional_entropy_precision_form(ctx, sched)
            assert rel_close(value, ss.conditional_entropy_covariance_form(ctx, sched), 1e-9)
        assert len(inverted) == 1


class TestCovarianceForm:
    def test_empty_schedule_equals_prior_entropy_exactly(self):
        prior, suite = random_instance(3, kind="tracking")
        ctx = ss.make_context(prior, suite)
        sched = ss.Schedule.empty([suite.m] * prior.K)
        assert ss.conditional_entropy_covariance_form(ctx, sched) == ctx.prior_entropy

    def test_scalar_conjugate_agrees_with_precision_form(self):
        prior, suite = scalar_conjugate_instance()
        ctx = ss.make_context(prior, suite)
        sched = ss.Schedule(sets=((0,),), budgets=(1,))
        expected = 0.5 * math.log(2 * math.pi * math.e * 0.5)
        cov_form = ss.conditional_entropy_covariance_form(ctx, sched)
        prec_form = ss.conditional_entropy_precision_form(ctx, sched)
        assert cov_form == pytest.approx(expected, abs=1e-10)
        assert cov_form == pytest.approx(prec_form, abs=1e-10)

    def test_precision_prior_inverts_once_per_prior(self, monkeypatch):
        prior, suite = random_instance(4, kind="gauss_markov")
        inverted = count_inversions(monkeypatch)
        sched = ss.Schedule(sets=tuple((0,) for _ in range(prior.K)),
                            budgets=tuple(1 for _ in range(prior.K)))
        for _ in range(2):
            ctx = ss.make_context(prior, suite)
            value = ss.conditional_entropy_covariance_form(ctx, sched)
            assert rel_close(value, ss.conditional_entropy_precision_form(ctx, sched), 1e-9)
        assert len(inverted) == 1


class TestCrossFormula:
    def test_seeded_nonlinear_instance(self):
        rng = np.random.default_rng(55)
        prior = ss.build_tracking_prior(
            2, 3, marginal_var=1.2, neighbor_corr=0.3, mean=rng.normal(0, 0.5, 6)
        )
        suite = ss.SensorSuite(
            state_dim=2,
            sensors=(
                ss.builtin_sensor("range", anchor=[2.0, 2.0], noise_var=0.5),
                ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0),
            ),
        )
        ctx = ss.make_context(prior, suite)
        for sched in all_schedules(2, [2, 2, 2]):
            a = ss.conditional_entropy_covariance_form(ctx, sched)
            b = ss.conditional_entropy_precision_form(ctx, sched)
            assert rel_close(a, b, 1e-8), (sched.sets, a, b)

    def test_mixed_instance_battery(self):
        rng = np.random.default_rng(77)
        for seed in range(12):
            prior, suite = random_instance(900 + seed)
            ctx = ss.make_context(prior, suite)
            budgets = [suite.m] * prior.K
            if suite.m * prior.K <= 10:
                schedules = list(all_schedules(suite.m, budgets))
            else:
                from conftest import random_feasible_schedule

                schedules = [
                    random_feasible_schedule(rng, suite.m, budgets) for _ in range(40)
                ]
            for sched in schedules:
                a = ss.conditional_entropy_covariance_form(ctx, sched)
                b = ss.conditional_entropy_precision_form(ctx, sched)
                assert rel_close(a, b, 1e-8), (seed, sched.sets, a, b)


@st.composite
def cross_formula_instances(draw):
    """A sparse-covariance or Gauss-Markov prior, linear sensors of 1 to 3
    rows with per-step noise overrides, and one schedule."""
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    n, K = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    prior = random_prior(rng, n, K, draw(st.sampled_from(["tracking", "gauss_markov"])))
    sensors = []
    for rows in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
        H = rng.standard_normal((rows, n))
        override_steps = draw(st.sets(st.integers(0, K - 1)))
        sensors.append(ss.Sensor(
            rows, lambda x, H=H: H @ x, lambda x, H=H: H, random_spd(rng, rows, 0.3),
            noise_overrides={k: random_spd(rng, rows, 0.3) for k in sorted(override_steps)},
        ))
    m = len(sensors)
    sets = draw(st.lists(st.sets(st.integers(0, m - 1)), min_size=K, max_size=K))
    schedule = ss.Schedule(sets=tuple(tuple(c) for c in sets), budgets=(m,) * K)
    return prior, ss.SensorSuite(state_dim=n, sensors=tuple(sensors)), schedule


@settings(max_examples=80)
@given(cross_formula_instances())
def test_cross_formula_property(instance):
    # both forms read the context's whitened rows, so they are also checked
    # against the paper's 1/2 [logdet R - logdet(R + C Sigma C^T)] + H(x),
    # assembled here from the raw Jacobians and noise_cov_at
    prior, suite, schedule = instance
    ctx = ss.make_context(prior, suite)
    cov_form = ss.conditional_entropy_covariance_form(ctx, schedule)
    prec_form = ss.conditional_entropy_precision_form(ctx, schedule)
    assert rel_close(cov_form, prec_form, 1e-9), (schedule.sets, cov_form, prec_form)

    C, R = measurement_model(suite, schedule, prior.mean)
    Sigma_y = R + C @ prior.covariance_dense() @ C.T
    paper = 0.5 * (np.linalg.slogdet(R)[1] - np.linalg.slogdet(Sigma_y)[1]) + ctx.prior_entropy
    assert rel_close(cov_form, paper, 1e-9), (schedule.sets, cov_form, paper)


class TestMultiOutputSensors:
    def test_cross_formula_with_mixed_output_dims(self):
        # the (2 pi e) exponents count measurement rows, so a 2-row sensor
        # must still cancel exactly between the two formulas
        rng = np.random.default_rng(65)
        full_state = ss.Sensor(
            output_dim=2,
            measure=lambda x: x.copy(),
            jacobian=lambda x: np.eye(2),
            noise_cov=np.array([[0.5, 0.1], [0.1, 0.8]]),
            name="full_state",
        )
        scalar = ss.builtin_sensor("range", anchor=[3.0, 0.0], noise_var=0.4)
        prior = ss.build_tracking_prior(
            2, 3, marginal_var=1.0, neighbor_corr=0.3, mean=rng.normal(0, 0.5, 6)
        )
        suite = ss.SensorSuite(state_dim=2, sensors=(full_state, scalar))
        ctx = ss.make_context(prior, suite)
        for sched in all_schedules(2, [2, 2, 2]):
            a = ss.conditional_entropy_covariance_form(ctx, sched)
            b = ss.conditional_entropy_precision_form(ctx, sched)
            assert rel_close(a, b, 1e-8), (sched.sets, a, b)

        # budgets count sensors, not rows: three picks give 3 + 0 + 2 rows
        sched = ss.Schedule(sets=((0, 1), (), (0,)), budgets=(2, 2, 2))
        C, R = measurement_model(suite, sched, ctx.linearization)
        assert C.shape == (5, 6) and R.shape == (5, 5)


class TestDispatch:
    def test_precision_sparse_dispatch(self):
        prior, suite = random_instance(16, kind="gauss_markov")
        ctx = ss.make_context(prior, suite)
        sched = ss.Schedule(sets=tuple((0,) for _ in range(prior.K)),
                            budgets=tuple(1 for _ in range(prior.K)))
        assert ss.conditional_entropy(ctx, sched) == ss.conditional_entropy_precision_form(
            ctx, sched
        )

    def test_covariance_sparse_dispatch(self):
        prior, suite = random_instance(17, kind="tracking")
        ctx = ss.make_context(prior, suite)
        sched = ss.Schedule(sets=tuple((0,) for _ in range(prior.K)),
                            budgets=tuple(1 for _ in range(prior.K)))
        assert ss.conditional_entropy(ctx, sched) == ss.conditional_entropy_covariance_form(
            ctx, sched
        )

    def test_dense_forms_use_stored_representation(self):
        for kind, fn in [
            ("dense_cov", ss.conditional_entropy_covariance_form),
            ("dense_prec", ss.conditional_entropy_precision_form),
        ]:
            prior, suite = random_instance(18, kind=kind)
            ctx = ss.make_context(prior, suite)  # no conversion allowed
            sched = ss.Schedule.empty([1] * prior.K)
            assert ss.conditional_entropy(ctx, sched) == fn(ctx, sched)


class TestPosteriorCovariance:
    def test_empty_schedule_returns_prior_covariance(self):
        prior, suite = random_instance(21, kind="gauss_markov")
        ctx = ss.make_context(prior, suite)
        out = ss.posterior_covariance(ctx, ss.Schedule.empty([1] * prior.K))
        np.testing.assert_allclose(out, prior.covariance_dense(), rtol=1e-9, atol=1e-12)

    def test_scalar_conjugate(self):
        prior, suite = scalar_conjugate_instance()
        ctx = ss.make_context(prior, suite)
        out = ss.posterior_covariance(ctx, ss.Schedule(sets=((0,),), budgets=(1,)))
        np.testing.assert_allclose(out, [[0.5]], rtol=1e-12)

    def test_matches_non_woodbury_oracle(self):
        # long form: Sigma - Sigma C^T (C Sigma C^T + R)^-1 C Sigma
        rng = np.random.default_rng(99)
        for seed in range(8):
            prior, suite = random_instance(300 + seed)
            ctx = ss.make_context(prior, suite)
            budgets = [suite.m] * prior.K
            from conftest import random_feasible_schedule

            for _ in range(4):
                sched = random_feasible_schedule(rng, suite.m, budgets)
                got = ss.posterior_covariance(ctx, sched)

                Sigma = prior.covariance_dense()
                C, R = measurement_model(suite, sched, ctx.linearization)
                if C.shape[0] == 0:
                    oracle = Sigma
                else:
                    G = C @ Sigma
                    oracle = Sigma - G.T @ np.linalg.solve(C @ Sigma @ C.T + R, G)
                np.testing.assert_allclose(got, oracle, rtol=1e-7, atol=1e-9)

    def test_consistent_with_entropy(self):
        prior, suite = random_instance(23, kind="gauss_markov")
        ctx = ss.make_context(prior, suite)
        sched = ss.Schedule(sets=tuple((0,) for _ in range(prior.K)),
                            budgets=tuple(1 for _ in range(prior.K)))
        cov = ss.posterior_covariance(ctx, sched)
        via_cov = 0.5 * np.linalg.slogdet(cov)[1] + 0.5 * prior.dim * LOG_2PIE
        assert abs(via_cov - ss.conditional_entropy(ctx, sched)) <= 1e-9


class TestMutualInformation:
    def test_empty_schedule_is_zero(self):
        prior, suite = random_instance(31, kind="tracking")
        ctx = ss.make_context(prior, suite)
        assert ss.mutual_information(ctx, ss.Schedule.empty([1] * prior.K)) == 0.0

    def test_scalar_conjugate(self):
        prior, suite = scalar_conjugate_instance()
        ctx = ss.make_context(prior, suite)
        got = ss.mutual_information(ctx, ss.Schedule(sets=((0,),), budgets=(1,)))
        assert got == pytest.approx(0.5 * math.log(2), abs=1e-10)

    def test_nonnegative_and_monotone_under_additions(self):
        prior, suite = random_instance(33, n=2, K=2, m=3, kind="gauss_markov")
        ctx = ss.make_context(prior, suite)
        budgets = [3, 3]
        for sched in all_schedules(3, budgets):
            mi = ss.mutual_information(ctx, sched)
            assert mi >= -1e-9
            for k in range(2):
                for i in range(3):
                    if i in sched.sets[k]:
                        continue
                    sets = sched.sets[:k] + (sched.sets[k] + (i,),) + sched.sets[k + 1:]
                    grown = ss.Schedule(sets=sets, budgets=sched.budgets)
                    assert ss.mutual_information(ctx, grown) >= mi - 1e-9


class TestNoJitter:
    @pytest.mark.parametrize("storage", ["sparse", "dense"])
    def test_lost_identity_raises_instead_of_a_wrong_entropy(self, storage):
        # two copies of one sensor with noise variance 1e-16: W Sigma W^T is
        # rank one at ~1e16 per step, so I + W Sigma W^T is singular in
        # floating point; the precision form still has a valid answer
        prior = ss.build_tracking_prior(2, 3, marginal_var=1.0, neighbor_corr=0.4)
        if storage == "dense":
            prior = ss.densify(prior)
        twin = ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1e-16)
        ctx = ss.make_context(prior, ss.SensorSuite(state_dim=2, sensors=(twin, twin)))
        sched = ss.Schedule(sets=((0, 1), (0, 1), (0, 1)), budgets=(2, 2, 2))
        assert np.isfinite(ss.conditional_entropy_precision_form(ctx, sched))
        with pytest.raises(ss.NotPositiveDefiniteError):
            ss.conditional_entropy_covariance_form(ctx, sched)


class TestFiniteDifferenceEntropy:
    def test_fd_jacobians_barely_move_the_entropy(self):
        rng = np.random.default_rng(61)
        prior, suite = random_instance(35, n=2, K=3, m=3, kind="tracking")
        fd_sensors = tuple(
            ss.Sensor(
                output_dim=s.output_dim,
                measure=s.measure,
                jacobian=(lambda x, _s=s: ss.finite_difference_jacobian(_s.measure, x)),
                noise_cov=s.noise_cov,
            )
            for s in suite.sensors
        )
        fd_suite = ss.SensorSuite(state_dim=2, sensors=fd_sensors)
        ctx = ss.make_context(prior, suite)
        fd_ctx = ss.make_context(prior, fd_suite)
        from conftest import random_feasible_schedule

        for _ in range(10):
            sched = random_feasible_schedule(rng, 3, [3, 3, 3])
            a = ss.conditional_entropy(ctx, sched)
            b = ss.conditional_entropy(fd_ctx, sched)
            assert abs(a - b) <= 1e-4


class TestContextCaches:
    def test_cached_prior_entropy_matches_recomputation(self):
        for seed in (1, 2, 3, 4):
            prior, suite = random_instance(seed)
            ctx = ss.make_context(prior, suite)
            assert ctx.prior_entropy == ss.prior_entropy(prior)

    def test_linearization_defaults_to_prior_mean(self):
        prior, suite = random_instance(7)
        ctx = ss.make_context(prior, suite)
        np.testing.assert_array_equal(ctx.linearization, prior.mean)


    def test_one_noise_factor_per_distinct_covariance(self, monkeypatch):
        from sensorsched import blocklinalg

        prior, suite = random_instance(71, n=2, K=5, m=3, kind="tracking")
        factored = []
        real = blocklinalg.dpotrf
        monkeypatch.setattr(blocklinalg, "dpotrf",
                            lambda A, **kw: factored.append(A) or real(A, **kw))
        overrides = {1: [[3.0]], 3: [[0.5]]}
        sensors = tuple(
            ss.Sensor(1, s.measure, s.jacobian, s.noise_cov,
                      noise_overrides=overrides if i == 0 else None)
            for i, s in enumerate(suite.sensors)
        )
        assert len(factored) == suite.m + len(overrides)
        ctx = ss.make_context(prior, ss.SensorSuite(state_dim=2, sensors=sensors))
        assert len(factored) == suite.m + len(overrides)

        states = prior.mean.reshape(5, 2)
        for k in range(5):
            for i, sensor in enumerate(sensors):
                R, L = sensor.noise_cov_at(k), sensor.noise_factor_at(k)
                J = sensor.jacobian_at(states[k])
                W = ctx.whitened_jacobians[k][i]
                np.testing.assert_allclose(L @ L.T, R, rtol=1e-12)
                np.testing.assert_allclose(L @ W, J, rtol=1e-12, atol=1e-15)
                np.testing.assert_allclose(ctx.info_increments[k][i], W.T @ W, rtol=1e-12)
                np.testing.assert_allclose(ctx.info_increments[k][i],
                                           J.T @ np.linalg.solve(R, J), rtol=1e-12)
        assert sensors[0].noise_factor_at(1)[0, 0] == pytest.approx(np.sqrt(3.0), rel=1e-15)


def nan_jacobian_suite(n):
    """One valid sensor and, at index 1, a sensor whose Jacobian is NaN."""
    broken = ss.Sensor(
        output_dim=1,
        measure=lambda x: np.array([x[0]]),
        jacobian=lambda x: np.full((1, x.size), np.nan),
        noise_cov=np.eye(1),
        name="broken",
    )
    valid = ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0)
    return ss.SensorSuite(state_dim=n, sensors=(valid, broken))


class TestNonFiniteJacobian:
    def test_make_context_names_step_and_sensor(self):
        prior, _ = random_instance(57, n=2, K=2, kind="tracking")
        with pytest.raises(ss.InvalidParamsError, match=r"step 0, sensor 1 \('broken'\)"):
            ss.make_context(prior, nan_jacobian_suite(2))

    def test_map_linearization_names_step_and_sensor(self):
        prior, _ = random_instance(58, n=2, K=2, kind="tracking")
        sched = ss.Schedule(sets=((), (0, 1)), budgets=(2, 2))
        with pytest.raises(ss.InvalidParamsError, match=r"step 1, sensor 1 \('broken'\)"):
            ss.map_linearization(
                prior, nan_jacobian_suite(2), sched, [None, np.array([0.1, 0.2])]
            )


class TestMapLinearization:
    def test_no_measurements_returns_prior_mean(self):
        prior, suite = random_instance(41, kind="gauss_markov")
        out = ss.map_linearization(prior, suite)
        assert out.converged
        np.testing.assert_allclose(out.estimate, prior.mean)

    def test_iteration_cap_sets_flag_instead_of_raising(self):
        prior, suite = random_instance(42, n=2, K=2, m=3, kind="tracking")
        sched = ss.Schedule(sets=((0, 1), (2,)), budgets=(3, 3))
        rng = np.random.default_rng(0)
        x = np.asarray(prior.mean) + rng.standard_normal(prior.dim)
        measurements = [
            np.concatenate([suite.sensors[i].measure_at(x.reshape(2, 2)[k]) for i in chosen])
            for k, chosen in enumerate(sched.sets)
        ]
        out = ss.map_linearization(prior, suite, sched, measurements, max_iter=1)
        assert not out.converged
        assert out.iterations == 1
        assert np.all(np.isfinite(out.estimate))

    def test_scalar_conjugate_update(self):
        prior, suite = scalar_conjugate_instance()
        sched = ss.Schedule(sets=((0,),), budgets=(1,))
        out = ss.map_linearization(prior, suite, sched, [np.array([2.0])])
        assert out.converged
        np.testing.assert_allclose(out.estimate, [1.0], rtol=1e-10)

    def test_linear_sensors_reach_exact_posterior_in_one_step(self):
        rng = np.random.default_rng(47)
        prior, _ = random_instance(43, n=2, K=3, kind="gauss_markov")
        suite = ss.SensorSuite(
            state_dim=2,
            sensors=(
                ss.builtin_sensor("linear_coordinate", axis=0, noise_var=0.5),
                ss.builtin_sensor("linear_coordinate", axis=1, noise_var=2.0),
            ),
        )
        sched = ss.Schedule(sets=((0,), (0, 1), ()), budgets=(2, 2, 2))
        measurements = [np.array([0.3]), np.array([-0.5, 1.1]), None]

        out = ss.map_linearization(prior, suite, sched, measurements)
        assert out.converged
        assert out.iterations <= 2  # second pass only confirms convergence

        # closed-form linear-Gaussian posterior mean oracle
        Sigma = prior.covariance_dense()
        C, R = measurement_model(suite, sched, prior.mean)
        y = np.concatenate([m for m in measurements if m is not None])
        gain = Sigma @ C.T @ np.linalg.inv(C @ Sigma @ C.T + R)
        oracle = np.asarray(prior.mean) + gain @ (y - C @ np.asarray(prior.mean))
        np.testing.assert_allclose(out.estimate, oracle, rtol=1e-8, atol=1e-10)

    def test_nonlinear_map_reduces_objective(self):
        rng = np.random.default_rng(53)
        prior, suite = random_instance(49, n=2, K=2, m=3, kind="tracking")
        sched = ss.Schedule(sets=((0, 1), (2,)), budgets=(3, 3))
        x_true = np.asarray(prior.mean) + 0.3 * rng.standard_normal(prior.dim)
        measurements = []
        for k, chosen in enumerate(sched.sets):
            parts = [
                suite.sensors[i].measure_at(x_true.reshape(2, 2)[k]) for i in chosen
            ]
            measurements.append(np.concatenate(parts) if parts else None)
        out = ss.map_linearization(prior, suite, sched, measurements)
        assert out.converged

        def neg_log_posterior(x):
            P = prior.precision_dense()
            dev = x - np.asarray(prior.mean)
            val = 0.5 * dev @ P @ dev
            for k, chosen in enumerate(sched.sets):
                for j, i in enumerate(chosen):
                    sensor = suite.sensors[i]
                    at = sum(suite.sensors[c].output_dim for c in chosen[:j])
                    r = measurements[k][at:at + sensor.output_dim] - sensor.measure_at(
                        x.reshape(prior.K, prior.n)[k]
                    )
                    val += 0.5 * r @ np.linalg.solve(sensor.noise_cov, r)
            return val

        assert neg_log_posterior(out.estimate) <= neg_log_posterior(np.asarray(prior.mean)) + 1e-12
