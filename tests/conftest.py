"""Shared seeded instance builders for the test suite."""

import os

import numpy as np
import scipy.linalg
from hypothesis import settings

import sensorsched as ss

# Property tests replay the same examples on every run, with no deadline
# and no example database. Hypothesis would still cache the constants it
# reads from local sources under .hypothesis/; pointing its storage at the
# null device makes those writes fail quietly, so the suite writes nothing.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", os.devnull)
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def random_spd(rng, d, scale=1.0):
    A = rng.standard_normal((d, d))
    return scale * (A @ A.T + d * np.eye(d))


def random_spd_block_tridiag(rng, n, K):
    """Seeded SPD block-tridiagonal matrix, plus its dense assembly.

    Built as L L^T with L block lower-bidiagonal and well-conditioned
    diagonal blocks, so positive definiteness holds by construction.
    """
    L = np.zeros((n * K, n * K))
    for k in range(K):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        L[k * n:(k + 1) * n, k * n:(k + 1) * n] = q @ np.diag(0.6 + rng.random(n))
        if k:
            L[k * n:(k + 1) * n, (k - 1) * n:k * n] = 0.5 * rng.standard_normal((n, n))
    A = L @ L.T
    diag = tuple(A[k * n:(k + 1) * n, k * n:(k + 1) * n] for k in range(K))
    off = tuple(A[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] for k in range(K - 1))
    return ss.BlockTridiagonalMatrix(diag_blocks=diag, offdiag_blocks=off), A


def random_stable_system(rng, n, radius=0.8):
    A = rng.standard_normal((n, n))
    rho = max(abs(np.linalg.eigvals(A)))
    if rho > radius:
        A = A * (radius / rho)
    return A


def random_sensor(rng, n, kind):
    noise_var = float(0.2 + 1.8 * rng.random())
    if kind == "linear_coordinate":
        return ss.builtin_sensor(
            "linear_coordinate", axis=int(rng.integers(n)), noise_var=noise_var
        )
    if kind == "range":
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        anchor = (1.5 + 1.5 * rng.random()) * direction
        return ss.builtin_sensor("range", anchor=anchor, noise_var=noise_var)
    if kind == "bearing":
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        anchor = np.zeros(n)
        anchor[:2] = (1.5 + 1.5 * rng.random()) * direction
        return ss.builtin_sensor("bearing", anchor=anchor[:2], noise_var=noise_var)
    if kind == "quadratic":
        B = rng.standard_normal((n, n))
        return ss.builtin_sensor(
            "quadratic", weight=B + B.T + np.eye(n), noise_var=noise_var
        )
    raise ValueError(kind)


def random_suite(rng, n, m):
    kinds = ["linear_coordinate", "range", "quadratic"]
    if n >= 2:
        kinds.append("bearing")
    sensors = tuple(
        random_sensor(rng, n, kinds[int(rng.integers(len(kinds)))]) for _ in range(m)
    )
    return ss.SensorSuite(state_dim=n, sensors=sensors)


def random_prior(rng, n, K, kind):
    mean = rng.normal(0.0, 0.7, n * K)
    if kind == "tracking":
        return ss.build_tracking_prior(
            n, K,
            marginal_var=float(0.5 + 1.5 * rng.random()),
            neighbor_corr=float(rng.uniform(-0.45, 0.45)),
            mean=mean,
        )
    if kind == "gauss_markov":
        return ss.build_gauss_markov_prior(
            random_stable_system(rng, n),
            random_spd(rng, n, scale=0.3),
            random_spd(rng, n, scale=0.3),
            mu0=rng.normal(0.0, 0.7, n),
            K=K,
        )
    if kind == "dense_cov":
        return ss.build_dense_prior(
            n, K, random_spd(rng, n * K, scale=0.3), "covariance", mean=mean
        )
    if kind == "dense_prec":
        return ss.build_dense_prior(
            n, K, random_spd(rng, n * K, scale=0.3), "precision", mean=mean
        )
    raise ValueError(kind)


PRIOR_KINDS = ("tracking", "gauss_markov", "dense_cov", "dense_prec")


def random_instance(seed, n=None, K=None, m=None, kind=None):
    """Seeded (prior, suite) pair over mixed prior and sensor kinds."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4)) if n is None else n
    K = int(rng.integers(1, 5)) if K is None else K
    m = int(rng.integers(1, 6)) if m is None else m
    kind = PRIOR_KINDS[seed % len(PRIOR_KINDS)] if kind is None else kind
    return random_prior(rng, n, K, kind), random_suite(rng, n, m)


def propagated_batch_covariance(A, Q, Sigma0, K):
    """Dense batch covariance by forward propagation (independent oracle).

    Sigma_{k+1,k+1} = A Sigma_kk A^T + Q and Sigma_{k,k'} = Sigma_{k,k'-1} A^T
    for k < k', filled into the full nK x nK array.
    """
    n = A.shape[0]
    cov = np.zeros((n * K, n * K))
    marginals = [Sigma0]
    for _ in range(K - 1):
        marginals.append(A @ marginals[-1] @ A.T + Q)
    for k in range(K):
        cov[k * n:(k + 1) * n, k * n:(k + 1) * n] = marginals[k]
        cross = marginals[k]
        for k2 in range(k + 1, K):
            cross = cross @ A.T
            cov[k * n:(k + 1) * n, k2 * n:(k2 + 1) * n] = cross
            cov[k2 * n:(k2 + 1) * n, k * n:(k + 1) * n] = cross.T
    return cov


def measurement_model(suite, schedule, linearization):
    """The paper's stacked Jacobian C and noise covariance R (independent oracle).

    Step k's block of C stacks the Jacobians of its selected sensors
    (ascending index) at the k-th sub-vector of the linearization point,
    0 x n for an empty step; R is block-diagonal in the sensors'
    ``noise_cov_at(k)``. Both are assembled dense from the raw sensors,
    without any oracle context.
    """
    n, K = suite.state_dim, schedule.num_steps
    states = np.asarray(linearization, dtype=float).reshape(K, n)
    C_blocks, R_blocks = [], [np.zeros((0, 0))]
    for k, chosen in enumerate(schedule.sets):
        sensors = [suite.sensors[i] for i in chosen]
        rows = [s.jacobian_at(states[k]) for s in sensors]
        C_blocks.append(np.vstack([np.zeros((0, n))] + rows))
        R_blocks.extend(s.noise_cov_at(k) for s in sensors)
    return scipy.linalg.block_diag(*C_blocks), scipy.linalg.block_diag(*R_blocks)


def random_feasible_schedule(rng, m, budgets):
    sets = []
    for s_k in budgets:
        size = int(rng.integers(0, s_k + 1))
        sets.append(tuple(sorted(rng.choice(m, size=size, replace=False).tolist())))
    return ss.Schedule(sets=tuple(sets), budgets=tuple(budgets))


def all_schedules(m, budgets):
    """Every feasible schedule (up-to-budget), lexicographic order."""
    import itertools

    per_step = []
    for s_k in budgets:
        cands = []
        for size in range(s_k + 1):
            cands.extend(itertools.combinations(range(m), size))
        per_step.append(cands)
    for sets in itertools.product(*per_step):
        yield ss.Schedule(sets=sets, budgets=tuple(budgets))
