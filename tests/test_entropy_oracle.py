"""The two entropy formulas, posterior covariance, MI, and MAP estimation."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sensorsched as ss
from conftest import (
    PRIOR_KINDS,
    all_schedules,
    damped_newton_reference,
    measurement_model,
    random_instance,
    random_prior,
    random_sensor,
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
    """A sparse-covariance or Gauss-Markov prior, stored sparse or densified,
    linear sensors of 1 to 3 rows with per-step noise overrides, and one
    schedule, whose steps may be empty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    n, K = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    prior = random_prior(rng, n, K, draw(st.sampled_from(["tracking", "gauss_markov"])))
    if draw(st.booleans()):
        prior = ss.densify(prior)
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
    # both forms read the context's stacks, so they are also checked against
    # the paper's 1/2 [logdet R - logdet(R + C Sigma C^T)] + H(x), assembled
    # here from the raw Jacobians and noise_cov_at; sensors of different
    # output dimensions make the covariance form pad its blocks
    prior, suite, schedule = instance
    ctx = ss.make_context(prior, suite)
    cov_form = ss.conditional_entropy_covariance_form(ctx, schedule)
    prec_form = ss.conditional_entropy_precision_form(ctx, schedule)
    assert rel_close(cov_form, prec_form, 1e-9), (schedule.sets, cov_form, prec_form)

    C, R = measurement_model(suite, schedule, prior.mean)
    Sigma_y = R + C @ prior.covariance_dense() @ C.T
    paper = 0.5 * (np.linalg.slogdet(R)[1] - np.linalg.slogdet(Sigma_y)[1]) + ctx.prior_entropy
    for value in (cov_form, prec_form):
        assert rel_close(value, paper, 1e-9), (schedule.sets, value, paper)


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


class TestConditioningLowersEntropy:
    # the information a schedule gives is H(x) - H(x | schedule)
    def test_empty_schedule_gives_prior_entropy(self):
        prior, suite = random_instance(31, kind="tracking")
        ctx = ss.make_context(prior, suite)
        assert ss.conditional_entropy(ctx, ss.Schedule.empty([1] * prior.K)) == ctx.prior_entropy

    def test_scalar_conjugate(self):
        prior, suite = scalar_conjugate_instance()
        ctx = ss.make_context(prior, suite)
        h = ss.conditional_entropy(ctx, ss.Schedule(sets=((0,),), budgets=(1,)))
        assert ctx.prior_entropy - h == pytest.approx(0.5 * math.log(2), abs=1e-10)

    def test_non_increasing_under_additions(self):
        prior, suite = random_instance(33, n=2, K=2, m=3, kind="gauss_markov")
        ctx = ss.make_context(prior, suite)
        budgets = [3, 3]
        for sched in all_schedules(3, budgets):
            h = ss.conditional_entropy(ctx, sched)
            assert h <= ctx.prior_entropy + 1e-9
            for k in range(2):
                for i in range(3):
                    if i in sched.sets[k]:
                        continue
                    sets = sched.sets[:k] + (sched.sets[k] + (i,),) + sched.sets[k + 1:]
                    grown = ss.Schedule(sets=sets, budgets=sched.budgets)
                    assert ss.conditional_entropy(ctx, grown) <= h + 1e-9


@st.composite
def nested_picks(draw):
    """A context, a step k, the background picks of two schedules, a set A
    within a set B of sensors at step k, and a sensor e outside B.

    The first schedule picks A at step k, the second B; at every other
    step the second picks what the first does and maybe more, so the
    first schedule is within the second."""
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    n, K, m = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(2, 5))
    prior = random_prior(rng, n, K, draw(st.sampled_from(PRIOR_KINDS)))
    ctx = ss.make_context(prior, random_suite(rng, n, m))
    picks = st.lists(st.sets(st.integers(0, m - 1)), min_size=K, max_size=K)
    background = draw(picks)
    more = [a | b for a, b in zip(background, draw(picks))]
    k = draw(st.integers(0, K - 1))
    e = draw(st.integers(0, m - 1))
    B = draw(st.sets(st.integers(0, m - 1).filter(lambda i: i != e)))
    A = draw(st.sets(st.sampled_from(sorted(B)))) if B else set()
    return ctx, k, (background, A), (more, B), e


def _gain(ctx, background, k, chosen, e):
    """H(S) - H(S + e), S the background with step k's set replaced by ``chosen``."""
    def entropy(at_k):
        sets = tuple(tuple(c) for c in background[:k]) + (tuple(at_k),) + tuple(
            tuple(c) for c in background[k + 1:])
        return ss.conditional_entropy(ctx, ss.Schedule(sets=sets, budgets=(ctx.suite.m,) * ctx.K))
    return entropy(chosen) - entropy(set(chosen) | {e})


@settings(max_examples=60)
@given(nested_picks())
def test_gains_are_nonnegative_and_diminishing(instance):
    # the objective is monotone (every gain >= 0) and supermodular: a sensor
    # gains at least as much on top of a schedule as on top of any schedule
    # containing it, whose extra picks may lie at step k or at other steps
    ctx, k, (background, A), (more, B), e = instance
    small, large = _gain(ctx, background, k, A, e), _gain(ctx, more, k, B, e)
    assert small >= -1e-9 and large >= -1e-9
    assert small >= large - 1e-9, (k, A, B, e, small, large)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**20), n=st.integers(1, 3), K=st.integers(1, 5), data=st.data())
def test_planted_non_spd_increment_names_its_step(seed, n, K, data):
    # the precision form of a Gauss-Markov prior adds the increments to the
    # diagonal blocks; one made negative definite fails exactly at its step
    rng = np.random.default_rng(seed)
    prior = random_prior(rng, n, K, "gauss_markov")
    ctx = ss.make_context(prior, random_suite(rng, n, 3))
    k, i = data.draw(st.integers(0, K - 1)), data.draw(st.integers(0, 2))
    sets = [tuple(sorted(c)) for c in data.draw(
        st.lists(st.sets(st.integers(0, 2)), min_size=K, max_size=K))]
    sets[k] = (i,)
    # the pivot at step k is at most P_kk plus the planted increment
    bad = -(np.linalg.eigvalsh(prior.matrix.diag_blocks[k])[-1] + 1.0) * np.eye(n)
    # the increments are derived from the whitened Jacobians, so the plant
    # goes into the padded stack that every evaluation gathers from
    increments = ctx._increments.copy()
    increments[k, i] = bad
    planted = dataclasses.replace(ctx)
    object.__setattr__(planted, "_increments", increments)
    schedule = ss.Schedule(sets=tuple(sets), budgets=(3,) * K)
    assert np.isfinite(ss.conditional_entropy(ctx, schedule))
    with pytest.raises(ss.NotPositiveDefiniteError) as info:
        ss.conditional_entropy(planted, schedule)
    assert info.value.block_index == k
    assert np.linalg.eigvalsh(info.value.pivot)[0] < 0


@pytest.mark.parametrize("order", ["C", "F"])
def test_plus_blockdiag_equals_a_loop_over_the_blocks(order):
    # the one P + blockdiag(stack) of the dense branches, posterior_covariance
    # and the dense Gauss-Newton system; a fresh C-ordered result from any P
    from sensorsched.entropy_oracle import _plus_blockdiag

    rng = np.random.default_rng(3)
    K, a, b = 4, 2, 3
    P = np.asarray(rng.standard_normal((K * a, K * b)), order=order)
    blocks = rng.standard_normal((K, a, b))
    loop = P.copy()
    for k in range(K):
        loop[k * a:(k + 1) * a, k * b:(k + 1) * b] += blocks[k]
    got = _plus_blockdiag(P, blocks)
    assert np.array_equal(got, loop)
    assert got.flags.c_contiguous and not np.shares_memory(got, P)


def test_dense_covariance_form_factors_the_padded_rows(monkeypatch):
    # I + W Sigma W^T keeps every gathered row: K = 3 steps of q = 2 pick
    # slots of d = 2 rows, 12 in all, of which the 1-output sensors'
    # second rows, the filler slots of steps 1 and 2, and a quadratic
    # sensor's row at its stationary point (the prior mean, zero) are all
    # zero; each adds a decoupled unit entry, so the entropy is unchanged
    from sensorsched import entropy_oracle

    prior = ss.densify(ss.build_tracking_prior(2, 3, marginal_var=1.0, neighbor_corr=0.4))
    sensors = (ss.builtin_sensor("quadratic", weight=np.eye(2), noise_var=0.5),
               ss.Sensor(2, lambda x: x[:2], lambda x: np.eye(2, x.size), np.eye(2)),
               ss.builtin_sensor("range", anchor=[2.0, 1.0], noise_var=0.5))
    ctx = ss.make_context(prior, ss.SensorSuite(state_dim=2, sensors=sensors))
    assert not ctx.whitened_jacobians[:, 0].any()
    sizes = []
    real = entropy_oracle._logdet_dense
    monkeypatch.setattr(entropy_oracle, "_logdet_dense",
                        lambda A, **kw: sizes.append(A.shape) or real(A, **kw))
    schedule = ss.Schedule(sets=((0, 1), (0,), (2,)), budgets=(2, 2, 2))
    h = ss.conditional_entropy_covariance_form(ctx, schedule)
    assert sizes == [(12, 12)]
    assert h == pytest.approx(ss.conditional_entropy_precision_form(ctx, schedule), rel=1e-12)


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


    @staticmethod
    def _two_output_context():
        # K = 3, n = 2, m = 2: a 1-output sensor and a 2-output one, so d = 2
        prior = ss.build_tracking_prior(2, 3, marginal_var=1.0, neighbor_corr=0.4)
        sensors = (ss.builtin_sensor("range", anchor=[2.0, 1.0], noise_var=0.5),
                   ss.Sensor(2, lambda x: x[:2], lambda x: np.eye(2, x.size),
                             [[1.0, 0.2], [0.2, 0.5]], name="position"))
        return ss.make_context(prior, ss.SensorSuite(state_dim=2, sensors=sensors))

    def test_fields_are_read_only_stacks_of_their_documented_shapes(self):
        ctx = self._two_output_context()
        assert type(ctx.whitened_jacobians) is np.ndarray
        assert type(ctx.info_increments) is np.ndarray
        assert ctx.whitened_jacobians.shape == (3, 2, 2, 2)
        assert ctx.info_increments.shape == (3, 2, 2, 2)
        for stack in (ctx.whitened_jacobians, ctx.info_increments):
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0, 0] = 1.0
        # a sensor's rows beyond its output dimension are zero
        assert not ctx.whitened_jacobians[:, 0, 1:].any()
        assert ctx.whitened_jacobians[:, 1, 1].all()
        W = ctx.whitened_jacobians
        WtW = W.swapaxes(2, 3) @ W
        assert np.array_equal(ctx.info_increments, 0.5 * (WtW + WtW.swapaxes(2, 3)))
        # a replace that keeps the fields keeps them equal
        same = dataclasses.replace(ctx)
        assert np.array_equal(same.whitened_jacobians, W)
        assert np.array_equal(same.info_increments, ctx.info_increments)

    def test_constructor_takes_only_what_it_cannot_derive(self):
        # the whitened Jacobians, W^T W and H(x) follow from the prior, the
        # suite and the point, so a caller cannot give ones that disagree
        ctx = self._two_output_context()
        assert [f.name for f in dataclasses.fields(ss.OracleContext) if f.init] == [
            "prior", "suite", "linearization"]
        with pytest.raises(TypeError):
            ss.OracleContext(ctx.prior, ctx.suite, ctx.linearization, ctx.whitened_jacobians)
        built = ss.OracleContext(ctx.prior, ctx.suite)
        assert built.prior_entropy == ss.prior_entropy(ctx.prior)
        for name in ("linearization", "whitened_jacobians", "info_increments"):
            assert np.array_equal(getattr(built, name), getattr(ctx, name)), name

    @pytest.mark.parametrize("point", [None, "mean", "list"])
    def test_linearization_is_a_read_only_copy(self, point):
        ctx = self._two_output_context()
        given = {None: None, "mean": np.array(ctx.prior.mean),
                 "list": ctx.prior.mean.tolist()}[point]
        built = ss.OracleContext(ctx.prior, ctx.suite, given)
        assert not built.linearization.flags.writeable
        assert np.array_equal(built.linearization, ctx.prior.mean)
        if point == "mean":
            assert not np.shares_memory(built.linearization, given)
            assert given.flags.writeable

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

    @pytest.mark.parametrize("seed", range(45))
    def test_arrays_equal_a_per_step_and_sensor_formation(self, seed):
        # one Jacobian call per sensor and one solve per noise factor give
        # the bits of one jacobian_at and one _trtrs per (step, sensor);
        # every third instance has per-step overrides, so a sensor has
        # several noise factors
        from sensorsched.blocklinalg import _trtrs

        prior, suite = random_instance(seed, n=1 + seed // 3 % 3, K=1 + seed // 2 % 6)
        rng = np.random.default_rng(seed + 1000)
        if seed % 3 == 0:
            suite = ss.SensorSuite(state_dim=suite.state_dim, sensors=tuple(
                ss.Sensor(s.output_dim, s.measure, s.jacobian, s.noise_cov, name=s.name,
                          noise_overrides={int(k): [[0.3 + rng.random()]]
                                           for k in rng.choice(prior.K, (prior.K + 1) // 2)})
                for s in suite.sensors))
        lin = prior.mean + 0.5 * rng.standard_normal(prior.dim)
        ctx = ss.make_context(prior, suite, lin)

        states = lin.reshape(prior.K, prior.n)
        rows = np.array([[_trtrs(s.noise_factor_at(k), s.jacobian_at(states[k]))
                          for s in suite.sensors] for k in range(prior.K)])
        increments = np.swapaxes(rows, 2, 3) @ rows
        increments = 0.5 * (increments + np.swapaxes(increments, 2, 3))
        assert np.array_equal(ctx.whitened_jacobians, rows)
        assert np.array_equal(ctx.info_increments, increments)


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

    @staticmethod
    def singular_suite(kind):
        """A coordinate sensor and, at index 1, a ``kind`` sensor anchored at (1, 2)."""
        return ss.SensorSuite(state_dim=2, sensors=(
            ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0),
            ss.builtin_sensor(kind, anchor=[1.0, 2.0], noise_var=1.0),
        ))

    @pytest.mark.parametrize("kind", ["range", "bearing"])
    def test_make_context_names_the_step_of_a_singular_state(self, kind):
        # step 1's prior mean sits on sensor 1's anchor
        prior = ss.build_tracking_prior(2, 3, 1.0, 0.3, mean=[0.0, 0.0, 1.0, 2.0, 3.0, 3.0])
        with pytest.raises(ss.InvalidParamsError, match=(
                rf"^step 1, sensor 1 \('{kind}'\): {kind} sensor evaluated at its anchor$")):
            ss.make_context(prior, self.singular_suite(kind))

    @pytest.mark.parametrize("kind", ["range", "bearing"])
    def test_map_linearization_names_the_step_of_a_singular_iterate(self, kind):
        # sensor 1 is picked at every step; the first iterate puts step 1 on its anchor
        prior = ss.build_tracking_prior(2, 3, 1.0, 0.3)
        sched = ss.Schedule(sets=((0, 1), (1,), (1,)), budgets=(2, 2, 2))
        measurements = [np.array([0.5, 1.0]), np.array([1.0]), np.array([1.0])]
        with pytest.raises(ss.InvalidParamsError, match=(
                rf"^step 1, sensor 1 \('{kind}'\): {kind} sensor evaluated at its anchor$")):
            ss.map_linearization(prior, self.singular_suite(kind), sched, measurements,
                                 initial=np.array([0.5, 0.5, 1.0, 2.0, 3.0, 3.0]))

    @pytest.mark.parametrize("sets, named", [
        (((0, 1), (2,)), "step 0, sensor 1 ('broken pair')"),
        (((0,), (1, 2)), "step 1, sensor 1 ('broken pair')"),
        (((0, 2), (1,)), "step 0, sensor 2 ('broken')"),
    ])
    def test_map_linearization_names_first_bad_pick_in_pick_order(self, sets, named):
        # a two-output and a one-output sensor both return NaN Jacobians; the
        # error names whichever comes first by step, then by sensor index
        prior, _ = random_instance(59, n=2, K=2, kind="tracking")
        valid, broken = nan_jacobian_suite(2).sensors
        pair = ss.Sensor(
            output_dim=2,
            measure=lambda x: np.array([x[0], x[1]]),
            jacobian=lambda x: np.full((2, x.size), np.nan),
            noise_cov=np.eye(2),
            name="broken pair",
        )
        suite = ss.SensorSuite(state_dim=2, sensors=(valid, pair, broken))
        sched = ss.Schedule(sets=sets, budgets=(2, 2))
        measurements = [
            np.zeros(sum(suite.sensors[i].output_dim for i in chosen)) for chosen in sets
        ]
        with pytest.raises(ss.InvalidParamsError, match=re.escape(named)):
            ss.map_linearization(prior, suite, sched, measurements)


def one_pick_problem():
    """A tracking prior, K=2, and one linear sensor picked at step 1 only."""
    prior, _ = random_instance(61, n=2, K=2, kind="tracking")
    suite = ss.SensorSuite(
        state_dim=2, sensors=(ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0),)
    )
    return prior, suite, ss.Schedule(sets=((), (0,)), budgets=(1, 1))


class TestMapInputChecks:
    def test_missing_measurement_at_a_step_with_picks(self):
        # np.asarray(None, float) is [nan], which fits a one-row step
        prior, suite, sched = one_pick_problem()
        with pytest.raises(ss.DimensionMismatchError, match="step 1 .*no measurement"):
            ss.map_linearization(prior, suite, sched, [None, None])

    def test_measurement_at_a_step_without_picks(self):
        prior, suite, sched = one_pick_problem()
        with pytest.raises(ss.DimensionMismatchError, match="step 0 has a measurement"):
            ss.map_linearization(prior, suite, sched, [np.array([0.3]), np.array([0.1])])

    def test_sensor_index_outside_the_suite(self):
        prior, suite, _ = one_pick_problem()
        sched = ss.Schedule(sets=((), (1,)), budgets=(1, 1))
        with pytest.raises(ss.DimensionMismatchError, match="step 1 selects a sensor index"):
            ss.map_linearization(prior, suite, sched, [None, np.array([0.1])])

    @pytest.mark.parametrize("max_iter", [0, -1, 2.0, True, "3", None])
    def test_max_iter_must_be_a_positive_integer(self, max_iter):
        prior, suite, sched = one_pick_problem()
        with pytest.raises(ss.InvalidParamsError, match="max_iter"):
            ss.map_linearization(prior, suite, sched, [None, np.array([0.1])], max_iter=max_iter)

    @pytest.mark.parametrize("tol", [-1e-9, math.nan, math.inf, "0", None, False])
    def test_tol_must_be_finite_and_non_negative(self, tol):
        prior, suite, sched = one_pick_problem()
        with pytest.raises(ss.InvalidParamsError, match="tol"):
            ss.map_linearization(prior, suite, sched, [None, np.array([0.1])], tol=tol)

    @pytest.mark.parametrize("initial", [np.zeros(3), np.zeros(5), np.zeros((2, 2)), 0.0],
                             ids=["short", "long", "matrix", "scalar"])
    def test_initial_of_the_wrong_shape(self, initial):
        prior, suite, sched = one_pick_problem()
        with pytest.raises(ss.DimensionMismatchError, match=re.escape("expected (4,)")):
            ss.map_linearization(prior, suite, sched, [None, np.array([0.1])], initial=initial)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_initial_must_be_finite(self, bad):
        prior, suite, sched = one_pick_problem()
        initial = np.array([0.0, 1.0, bad, 2.0])
        with pytest.raises(ss.InvalidParamsError, match="initial is not finite"):
            ss.map_linearization(prior, suite, sched, [None, np.array([0.1])], initial=initial)

    def test_boundary_options_are_accepted(self):
        prior, suite, sched = one_pick_problem()
        out = ss.map_linearization(
            prior, suite, sched, [None, np.array([0.1])], tol=0, max_iter=np.int64(1)
        )
        assert out.iterations == 1


@st.composite
def map_problems(draw, builtins=False):
    """A prior of any kind, smooth nonlinear sensors of 1 to 3 outputs with
    per-step noise overrides, 0 to 3 picks per step, and noisy measurements
    of a state drawn near the prior mean. With ``builtins``, built-in
    sensors of every kind, some with overrides, come first in the suite."""
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    n, K = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    prior = random_prior(rng, n, K, draw(st.sampled_from(PRIOR_KINDS)))
    sensors = []
    if builtins:
        kinds = ["linear_coordinate", "range", "quadratic"] + ["bearing"] * (n >= 2)
        for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
            s = random_sensor(rng, n, kind)
            override_steps = draw(st.sets(st.integers(0, K - 1)))
            sensors.append(ss.Sensor(1, s.measure, s.jacobian, s.noise_cov, name=s.name,
                                     noise_overrides={k: random_spd(rng, 1, 0.3)
                                                      for k in sorted(override_steps)}))
    for rows in draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)):
        A, B = rng.standard_normal((rows, n)), rng.standard_normal((rows, n))
        override_steps = draw(st.sets(st.integers(0, K - 1)))
        sensors.append(ss.Sensor(
            rows,
            lambda x, A=A, B=B: A @ x + 0.3 * np.sin(B @ x),
            lambda x, A=A, B=B: A + 0.3 * np.cos(B @ x)[:, None] * B,
            random_spd(rng, rows, 0.3),
            noise_overrides={k: random_spd(rng, rows, 0.3) for k in sorted(override_steps)},
        ))
    m = len(sensors)
    sets = tuple(
        tuple(sorted(draw(st.sets(st.integers(0, m - 1), max_size=min(m, 3)))))
        for _ in range(K)
    )
    schedule = ss.Schedule(sets=sets, budgets=(m,) * K)
    x_true = (np.asarray(prior.mean) + 0.5 * rng.standard_normal(prior.dim)).reshape(K, n)
    measurements = [
        np.concatenate([
            sensors[i].measure_at(x_true[k]) + 0.1 * rng.standard_normal(sensors[i].output_dim)
            for i in chosen
        ]) if chosen else None
        for k, chosen in enumerate(sets)
    ]
    suite = ss.SensorSuite(state_dim=n, sensors=tuple(sensors))
    return prior, suite, schedule, measurements


@st.composite
def starts(draw, prior):
    """None (the prior mean) or the prior mean plus seeded noise."""
    seed = draw(st.none() | st.integers(0, 2**20))
    if seed is None:
        return None
    noise = np.random.default_rng(seed).standard_normal(prior.dim)
    return np.asarray(prior.mean) + 0.3 * noise


def _matches_per_pick_reference(data, problem, max_iter):
    # the batched iteration against a per-pick dense damped Newton built from
    # the paper's stacked C and R, both from the same start; empty schedules
    # return the prior mean wherever they start
    prior, suite, schedule, measurements = problem
    initial = data.draw(starts(prior))
    out = ss.map_linearization(prior, suite, schedule, measurements, max_iter=max_iter,
                               initial=initial)
    if not schedule.total_selected:
        assert (out.converged, out.iterations) == (True, 0)
        np.testing.assert_array_equal(out.estimate, prior.mean)
        return
    estimate, converged, iterations = damped_newton_reference(
        prior, suite, schedule, measurements, max_iter, start=initial
    )
    assert (out.converged, out.iterations) == (converged, iterations)
    np.testing.assert_allclose(out.estimate, estimate, rtol=1e-10, atol=1e-10)


@settings(max_examples=80)
@given(st.data(), map_problems(), st.sampled_from([1, 3]))
def test_batched_map_matches_per_pick_reference(data, problem, max_iter):
    _matches_per_pick_reference(data, problem, max_iter)


@settings(max_examples=80)
@given(st.data(), map_problems(builtins=True), st.sampled_from([1, 3]))
def test_map_with_builtin_and_custom_sensors_matches_per_pick_reference(data, problem, max_iter):
    # built-in sensors evaluate each noise factor's picks as one stack,
    # custom multi-output ones row by row
    _matches_per_pick_reference(data, problem, max_iter)


class TestMapLinearization:
    def test_no_measurements_returns_prior_mean(self):
        prior, suite = random_instance(41, kind="gauss_markov")
        out = ss.map_linearization(prior, suite)
        assert out.converged
        np.testing.assert_allclose(out.estimate, prior.mean)

    @pytest.mark.parametrize("empty", ["no schedule", "no picks"])
    def test_no_measurements_return_prior_mean_from_any_start(self, empty):
        prior, suite, sched = one_pick_problem()
        initial = np.asarray(prior.mean) + np.array([1.0, -2.0, 3.0, 0.5])
        if empty == "no schedule":
            out = ss.map_linearization(prior, suite, initial=initial)
        else:
            out = ss.map_linearization(prior, suite, ss.Schedule.empty((1, 1)), [None, None],
                                       initial=initial)
        assert (out.converged, out.iterations) == (True, 0)
        np.testing.assert_array_equal(out.estimate, prior.mean)

    def test_start_at_the_answer_converges_in_one_iteration(self):
        # a linear sensor: the first step from anywhere lands on the answer
        prior, suite, sched = one_pick_problem()
        answer = ss.map_linearization(prior, suite, sched, [None, np.array([0.1])])
        again = ss.map_linearization(prior, suite, sched, [None, np.array([0.1])],
                                     initial=answer.estimate)
        assert (again.converged, again.iterations) == (True, 1)
        np.testing.assert_allclose(again.estimate, answer.estimate, rtol=0, atol=1e-12)

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

    def test_bearing_reading_across_the_cut_converges(self):
        # the prior mean sees the anchor at -pi + 0.01 and the reading is
        # pi - 0.01: 0.02 rad apart, not 2 pi - 0.02
        prior = ss.build_dense_prior(2, 1, 0.01 * np.eye(2), "covariance",
                                     mean=np.array([-1.0, -0.01]))
        bearing = ss.builtin_sensor("bearing", anchor=[0.0, 0.0], noise_var=1e-4)
        suite = ss.SensorSuite(state_dim=2, sensors=(bearing,))
        reading = np.array([math.pi - 0.01])
        out = ss.map_linearization(prior, suite, ss.Schedule(sets=((0,),), budgets=(1,)),
                                   [reading])
        assert out.converged and out.iterations < 10
        assert np.linalg.norm(out.estimate - prior.mean) < 0.05
        seen = bearing.measure_at(out.estimate)[0]
        assert abs(seen - reading[0]) < 0.01

    @staticmethod
    def recorded_solve(name):
        """(prior, suite, schedule, measurements, initial) of a recorded MAP solve."""
        rec = json.loads((Path(__file__).parent / "data" / name).read_text())
        prior = ss.build_tracking_prior(**rec["prior"])
        suite = ss.SensorSuite(2, tuple(ss.builtin_sensor(**spec) for spec in rec["sensors"]))
        sched = ss.Schedule(sets=tuple(map(tuple, rec["sets"])), budgets=(2,) * prior.K)
        measurements = [None if m is None else np.array(m) for m in rec["measurements"]]
        return prior, suite, sched, measurements, np.array(rec["initial"])

    def test_receding_solve_that_hit_the_cap_converges_downhill(self):
        # greedy step 3 of perfbench's receding_config(60): undamped
        # Gauss-Newton ran into its 50-iteration cap on this problem
        prior, suite, sched, measurements, initial = self.recorded_solve(
            "receding60_step3_map.json")
        out = ss.map_linearization(prior, suite, sched, measurements, initial=initial)
        assert out.converged and out.iterations <= 10

        P, mu = prior.precision_dense(), np.asarray(prior.mean)

        def neg_log_posterior(x):
            states, val = x.reshape(prior.K, prior.n), 0.5 * (x - mu) @ P @ (x - mu)
            for k, chosen in enumerate(sched.sets):
                for i, y in zip(chosen, measurements[k] if chosen else ()):
                    sensor = suite.sensors[i]
                    r = y - sensor.measure_at(states[k])[0]
                    if sensor.name == "bearing":
                        r = (r + np.pi) % (2 * np.pi) - np.pi
                    val += 0.5 * r * r / sensor.noise_cov[0, 0]
            return val

        # the estimate after i iterations is that of a solve capped at i
        iterates = [initial] + [
            ss.map_linearization(prior, suite, sched, measurements, initial=initial,
                                 max_iter=i).estimate for i in range(1, out.iterations)
        ] + [out.estimate]
        objective = [neg_log_posterior(x) for x in iterates]
        assert all(b <= a for a, b in zip(objective, objective[1:])), objective

    def test_receding_solve_at_its_rounding_floor_converges(self):
        # greedy step 28 of perfbench's receding_config(240): from iteration
        # 5 the Newton step stays at max|delta| ~ 1.1e-8, just over tol, while
        # its slope grad^T delta (~6e-16) is below what f can resolve; a line
        # search there stalls, and the solve ended unconverged after 10
        # iterations at the answer
        prior, suite, sched, measurements, initial = self.recorded_solve(
            "receding240_step28_map.json")
        out = ss.map_linearization(prior, suite, sched, measurements, initial=initial)
        assert out.converged and out.iterations <= 6, out

    @pytest.mark.parametrize("kind", ["tracking", "gauss_markov"])
    def test_system_that_fails_to_factor_names_the_iteration(self, kind):
        # step 0 starts 1e-9 from the bearing's anchor, off its axes: the
        # whitened Jacobian, about 1e13, swamps the prior in rounding, and
        # neither the Newton nor the Gauss-Newton system factors. The dense
        # factorization of the tracking prior's precision fails in a column
        # of step 0, as the banded one of the Gauss-Markov prior does.
        bearing = ss.builtin_sensor("bearing", anchor=[1.0, 2.0], noise_var=1e-4)
        suite = ss.SensorSuite(2, (ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0),
                                   bearing))
        prior = (ss.build_tracking_prior(2, 2, 1.0, 0.3) if kind == "tracking" else
                 ss.build_gauss_markov_prior(0.9 * np.eye(2), 0.5 * np.eye(2), np.eye(2), K=2))
        sched = ss.Schedule(sets=((1,), (0,)), budgets=(2, 2))
        offset = 1e-9 * np.array([math.cos(math.pi / 12), math.sin(math.pi / 12)])
        initial = np.concatenate([[1.0, 2.0] + offset, [0.5, 0.5]])
        named = "^MAP iteration 1, step 0: Gauss-Newton system P \\+ Xi is not positive definite$"
        with pytest.raises(ss.NotPositiveDefiniteError, match=named) as exc:
            ss.map_linearization(prior, suite, sched, [np.array([1.0]), np.array([0.5])],
                                 initial=initial)
        assert exc.value.block_index == 0

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
