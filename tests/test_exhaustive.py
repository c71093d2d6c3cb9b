"""Exhaustive enumeration: counts, optima, certificates."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sensorsched as ss
from conftest import random_instance, random_prior, random_suite


def naive_enumeration(ctx, budgets):
    """Straightforward independent re-implementation of the enumeration:
    every (sets, cost) pair in lexicographic order, each cost one full
    reference oracle call."""
    step_options = []
    for s_k in budgets:
        opts = []
        for size in range(s_k + 1):
            opts.extend(itertools.combinations(range(ctx.suite.m), size))
        step_options.append(opts)
    return [
        (sets, ss.conditional_entropy(ctx, ss.Schedule(sets=sets, budgets=budgets)))
        for sets in itertools.product(*step_options)
    ]


@st.composite
def enumerable_instances(draw):
    """A sparse-precision or sparse-covariance prior, optionally densified,
    with mixed sensors and per-step budgets from 0 to 3; K = 1 included.

    Sizes come from the drawn seed rather than from hypothesis, which
    would shrink most examples to a single schedule.
    """
    kind = draw(st.sampled_from(["gauss_markov", "tracking"]))
    dense = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, K, m = int(rng.integers(1, 3)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
    budgets = tuple(int(b) for b in rng.integers(0, min(m, 3) + 1, size=K))
    prior = random_prior(rng, n, K, kind)
    ctx = ss.make_context(ss.densify(prior) if dense else prior, random_suite(rng, n, m))
    return ctx, budgets


class TestExhaustiveOptimum:
    def test_single_sensor_single_step(self):
        prior, _ = random_instance(90, n=1, K=1, kind="tracking")
        suite = ss.SensorSuite(
            state_dim=1,
            sensors=(ss.builtin_sensor("linear_coordinate", axis=0, noise_var=1.0),),
        )
        ctx = ss.make_context(prior, suite)
        res = ss.exhaustive_optimum(ctx, [1])
        assert res.num_enumerated == 2  # {} and {0}
        assert res.opt_schedule.sets == ((0,),)
        assert res.opt_cost == ss.conditional_entropy(
            ctx, ss.Schedule(sets=((0,),), budgets=(1,))
        )
        assert res.max_cost == ctx.prior_entropy

    def test_full_budget_optimum_is_everything(self):
        prior, suite = random_instance(91, n=1, K=2, m=3)
        ctx = ss.make_context(prior, suite)
        res = ss.exhaustive_optimum(ctx, [3, 3])
        full = tuple(range(3))
        assert res.opt_schedule.sets == (full, full)

    def test_counts_match_formula(self):
        prior, suite = random_instance(92, n=1, K=2, m=4)
        ctx = ss.make_context(prior, suite)
        up_to = ss.exhaustive_optimum(ctx, [2, 1])
        per_step = lambda s: sum(math.comb(4, j) for j in range(s + 1))
        assert up_to.num_enumerated == per_step(2) * per_step(1)
        assert up_to.num_enumerated == ss.num_candidate_schedules(4, [2, 1])

    def test_matches_independent_reimplementation(self):
        prior, suite = random_instance(93, n=1, K=2, m=4, kind="tracking")
        ctx = ss.make_context(prior, suite)
        res = ss.exhaustive_optimum(ctx, (2, 2))
        table = naive_enumeration(ctx, (2, 2))
        costs = [c for _, c in table]
        assert res.opt_cost == pytest.approx(min(costs), abs=1e-12)
        assert res.max_cost == pytest.approx(max(costs), abs=1e-12)
        assert res.num_enumerated == len(table)
        assert res.opt_schedule.sets == table[costs.index(min(costs))][0]

    @settings(max_examples=60)
    @given(enumerable_instances())
    def test_walk_matches_naive_enumeration(self, instance):
        ctx, budgets = instance
        table = naive_enumeration(ctx, budgets)
        res = ss.exhaustive_optimum(ctx, budgets)
        # the candidate sets and walk costs exhaustive_optimum itself ranks
        per_step, walked = ss.exhaustive._enumerate(ctx, budgets)
        walked = walked.tolist()
        assert list(itertools.product(*per_step)) == [sets for sets, _ in table]
        for cost, (_, ref) in zip(walked, table):
            assert cost == pytest.approx(ref, rel=1e-9)
        costs = [c for _, c in table]
        lo, hi = costs.index(min(costs)), costs.index(max(costs))
        assert res.opt_cost == costs[lo] and res.max_cost == costs[hi]
        assert res.opt_schedule.sets == table[lo][0]
        assert walked.index(min(walked)) == lo and walked.index(max(walked)) == hi

    @pytest.mark.parametrize("kind", ["gauss_markov", "tracking", "dense_prec"])
    def test_planted_non_spd_candidate_pivot_reports_its_step(self, kind):
        prior, suite = random_instance(102, n=2, K=3, m=3, kind=kind)
        ctx = ss.make_context(prior, suite)
        increments = [list(row) for row in ctx.info_increments]
        increments[1][2] = -1e3 * np.eye(2)
        planted = dataclasses.replace(ctx, info_increments=tuple(map(tuple, increments)))
        with pytest.raises(ss.NotPositiveDefiniteError) as err:
            ss.exhaustive_optimum(planted, [1, 1, 1])
        assert err.value.block_index == 1
        assert np.linalg.eigvalsh(err.value.pivot).min() < 0

    def test_walk_disagreeing_with_the_oracle_raises(self, monkeypatch):
        prior, suite = random_instance(103, n=2, K=2, m=2, kind="gauss_markov")
        ctx = ss.make_context(prior, suite)
        real = ss.exhaustive.conditional_entropy
        monkeypatch.setattr(ss.exhaustive, "conditional_entropy",
                            lambda c, s: real(c, s) + 1e-6)
        with pytest.raises(ss.OracleInconsistencyError, match="differs"):
            ss.exhaustive_optimum(ctx, [1, 1])

    def test_opt_attained_at_maximal_size(self):
        # monotonicity sanity property of the oracle itself
        prior, suite = random_instance(94, n=2, K=2, m=3)
        ctx = ss.make_context(prior, suite)
        res = ss.exhaustive_optimum(ctx, [2, 2])
        assert all(len(s) == 2 for s in res.opt_schedule.sets)

    def test_ordering_sandwich(self):
        prior, suite = random_instance(95, n=1, K=2, m=3)
        ctx = ss.make_context(prior, suite)
        res = ss.exhaustive_optimum(ctx, [2, 2])
        schedule, _ = ss.greedy_schedule(ctx, [2, 2])
        greedy_cost = ss.conditional_entropy(ctx, schedule)
        assert res.opt_cost <= greedy_cost + 1e-12
        assert greedy_cost <= res.max_cost + 1e-12

    def test_cap_raises_too_large(self):
        prior, suite = random_instance(96, n=1, K=3, m=5)
        ctx = ss.make_context(prior, suite)
        with pytest.raises(ss.TooLargeError):
            ss.exhaustive_optimum(ctx, [5, 5, 5], cap=100)


class TestCertifyBound:
    @settings(max_examples=40)
    @given(enumerable_instances())
    def test_greedy_is_within_half_the_range(self, instance):
        ctx, budgets = instance
        schedule, _ = ss.greedy_schedule(ctx, budgets)
        result = ss.exhaustive_optimum(ctx, budgets)
        assert ss.certify_bound(result, ss.conditional_entropy(ctx, schedule)).holds

    def test_greedy_at_opt_gives_zero_ratio(self):
        prior, suite = random_instance(97, n=1, K=2, m=3)
        ctx = ss.make_context(prior, suite)
        res = ss.exhaustive_optimum(ctx, [2, 2])
        cert = ss.certify_bound(res, res.opt_cost)
        assert cert.ratio == pytest.approx(0.0, abs=1e-12)
        assert cert.holds

    def test_max_cost_gives_ratio_one(self):
        prior, suite = random_instance(98, n=1, K=2, m=3)
        ctx = ss.make_context(prior, suite)
        res = ss.exhaustive_optimum(ctx, [2, 2])
        assert res.max_cost > res.opt_cost + 1e-9
        cert = ss.certify_bound(res, res.max_cost)
        assert cert.ratio == pytest.approx(1.0, abs=1e-12)
        assert not cert.holds

    def test_degenerate_gap_certifies_equality(self):
        # zero-information sensor: every schedule costs the prior entropy
        prior, _ = random_instance(99, n=1, K=1, kind="tracking")
        null = ss.Sensor(
            output_dim=1,
            measure=lambda x: np.zeros(1),
            jacobian=lambda x: np.zeros((1, x.size)),
            noise_cov=np.eye(1),
        )
        suite = ss.SensorSuite(state_dim=1, sensors=(null,))
        ctx = ss.make_context(prior, suite)
        res = ss.exhaustive_optimum(ctx, [1])
        cert = ss.certify_bound(res, ctx.prior_entropy)
        assert cert.ratio is None
        assert cert.certified_equal
        assert cert.holds

        off = ss.certify_bound(res, ctx.prior_entropy + 1.0)
        assert not off.certified_equal
        assert not off.holds

