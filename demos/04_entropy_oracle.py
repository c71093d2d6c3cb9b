"""The conditional-entropy oracle: two formulas, one objective.

The scheduling objective H(x_1:K | selections) has a precision-driven
form and a covariance-driven form. They agree to rounding on every
schedule; each is linear in the horizon when its prior matrix is
block-tridiagonal. The oracle also exposes the posterior covariance
and the damped-Newton MAP estimate used for re-linearization; the
mutual information of a schedule is the entropy drop H(x) - H(x | S).
"""

import numpy as np

import sensorsched as ss

rng = np.random.default_rng(7)
prior = ss.build_tracking_prior(
    n=2, K=3, marginal_var=1.0, neighbor_corr=0.4, mean=rng.normal(0, 0.5, 6)
)
suite = ss.SensorSuite(
    state_dim=2,
    sensors=(
        ss.builtin_sensor("range", anchor=[2.0, 2.0], noise_var=0.4),
        ss.builtin_sensor("linear_coordinate", axis=1, noise_var=0.8),
        ss.builtin_sensor("bearing", anchor=[-3.0, 0.0], noise_var=0.05),
    ),
)

# both formulas are callable on any context: the form the prior does not
# store is read from its cached dense conversion
ctx = ss.make_context(prior, suite)
schedule = ss.Schedule(sets=((0, 2), (1,), (0,)), budgets=(2, 2, 2))

h_cov = ss.conditional_entropy_covariance_form(ctx, schedule)
h_prec = ss.conditional_entropy_precision_form(ctx, schedule)
print(f"covariance form: {h_cov:.10f} nats")
print(f"precision  form: {h_prec:.10f} nats")
print(f"difference:      {abs(h_cov - h_prec):.2e}")

# conditioning on nothing returns the prior entropy exactly
empty = ss.Schedule.empty([2, 2, 2])
print("\nempty schedule == prior entropy:",
      ss.conditional_entropy(ctx, empty) == ctx.prior_entropy)

# mutual information is the entropy drop; more sensors, more information
for sets in [((0,), (), ()), ((0,), (1,), ()), ((0, 2), (1,), (0,))]:
    sched = ss.Schedule(sets=sets, budgets=(2, 2, 2))
    mi = ctx.prior_entropy - ss.conditional_entropy(ctx, sched)
    print(f"I(x; y) = {mi:8.4f}  for sets {sets}")

# the posterior covariance reproduces the entropy through its log-det
cov = ss.posterior_covariance(ctx, schedule)
via_cov = 0.5 * np.linalg.slogdet(cov)[1] + 0.5 * prior.dim * ss.LOG_TWO_PI_E
print(f"\nentropy via posterior covariance: {via_cov:.10f} (same value)")

# MAP re-linearization from simulated measurements
x_true = np.asarray(prior.mean) + 0.4 * rng.standard_normal(prior.dim)
measurements = []
for k, chosen in enumerate(schedule.sets):
    parts = [suite.sensors[i].measure_at(x_true.reshape(3, 2)[k]) for i in chosen]
    measurements.append(np.concatenate(parts) if parts else None)
solution = ss.map_linearization(prior, suite, schedule, measurements)
print(f"\nMAP converged in {solution.iterations} damped Newton iterations")
print("prior mean :", np.array_str(np.asarray(prior.mean), precision=3))
print("MAP        :", np.array_str(solution.estimate, precision=3))
print("truth      :", np.array_str(x_true, precision=3))
