"""Nonlinear sensors, schedules, and the rows a schedule selects.

Sensors carry a measurement map, an analytic Jacobian, and SPD Gaussian
noise, factored once as R = L L^T. A schedule is a per-step set of
selected sensor indices. An oracle context linearizes every sensor at
every step and keeps its whitened Jacobian W = L^-1 J; a schedule's
measurement rows are gathered from those, never by materializing a
selection matrix.
"""

import numpy as np

import sensorsched as ss

suite = ss.SensorSuite(
    state_dim=2,
    sensors=(
        ss.builtin_sensor("linear_coordinate", axis=0, noise_var=0.5),
        ss.builtin_sensor("range", anchor=[0.0, 0.0], noise_var=0.2),
        ss.builtin_sensor("bearing", anchor=[5.0, 0.0], noise_var=0.1),
        ss.builtin_sensor("quadratic", weight=np.eye(2), noise_var=1.0),
    ),
)

x = np.array([3.0, 4.0])
for sensor in suite.sensors:
    z = sensor.measure_at(x)
    J = sensor.jacobian_at(x)
    print(f"{sensor.name:22s} g(x) = {z[0]:+.4f}   jacobian = {np.array_str(J[0], precision=3)}")

# analytic jacobians agree with central finite differences
fd = ss.finite_difference_jacobian(suite.sensors[1].measure, x)
print("\nrange sensor FD check:", np.allclose(fd, suite.sensors[1].jacobian_at(x), atol=1e-6))

# schedules: per-step index sets under budgets
schedule = ss.Schedule(sets=((1, 2), (), (0,)), budgets=(2, 2, 2))
print("\nschedule sets:", schedule.sets)

linearization = np.array([3.0, 4.0, 1.0, 1.0, -2.0, 0.5])
prior = ss.build_tracking_prior(2, 3, marginal_var=1.0, neighbor_corr=0.3)
ctx = ss.make_context(prior, suite, linearization)
print("whitened rows W = L^-1 J per step, gathered from the context:")
for k, chosen in enumerate(schedule.sets):
    rows = np.vstack([np.zeros((0, 2))] + [ctx.whitened_jacobians[k][i] for i in chosen])
    print(f"  step {k}: sensors {chosen}, block shape {rows.shape}")
    if rows.size:
        print(np.array_str(rows, precision=3))
print("(an empty step adds no rows)")

# budget, duplicate and non-integer violations are rejected at construction
try:
    ss.Schedule(sets=((0, 1, 2),), budgets=(2,))
except ss.DimensionMismatchError as exc:
    print("\nover budget:", exc)
try:
    ss.Schedule(sets=((1, 1),), budgets=(3,))
except ss.DimensionMismatchError as exc:
    print("duplicate:  ", exc)
try:
    ss.Schedule(sets=((1.9,),), budgets=(2,))
except ss.DimensionMismatchError as exc:
    print("non-integer:", exc)
