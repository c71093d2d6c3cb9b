"""Block-tridiagonal log-determinants: exact, and linear in the horizon.

Builds symmetric positive definite block-tridiagonal matrices, compares
the banded log-determinant with a dense factorization, and shows
the wall-clock growing linearly in the number of blocks while the dense
route grows much faster.
"""

import time

import numpy as np

import sensorsched as ss


def random_spd_block_tridiag(rng, n, K):
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


def logdet(M):
    # the kernel takes a matrix's two read-only block stacks whole
    return ss.logdet_block_tridiagonal_blocks(M.diag_blocks, M.offdiag_blocks)


rng = np.random.default_rng(0)

# correctness: the banded factorization reproduces the dense log-determinant
M, dense = random_spd_block_tridiag(rng, n=3, K=6)
sparse_val = logdet(M)
dense_val = ss.logdet_dense(dense)
print(f"sparse logdet  = {sparse_val:.12f}")
print(f"dense  logdet  = {dense_val:.12f}")
print(f"difference     = {abs(sparse_val - dense_val):.2e}")

# an indefinite matrix is rejected at the failing pivot
bad = ss.BlockTridiagonalMatrix(diag_blocks=([[1.0]], [[1.0]]), offdiag_blocks=([[2.0]],))
try:
    logdet(bad)
except ss.NotPositiveDefiniteError as exc:
    print(f"indefinite input raises: {exc}")

# scaling: per-matrix time grows ~linearly in K for the banded factorization,
# ~cubically for the dense factorization
print("\n   K   sparse-ms   dense-ms")
for K in (50, 100, 200, 400):
    M, dense = random_spd_block_tridiag(rng, n=4, K=K)
    t0 = time.perf_counter()
    for _ in range(5):
        logdet(M)
    sparse_ms = (time.perf_counter() - t0) / 5 * 1e3
    t0 = time.perf_counter()
    for _ in range(5):
        ss.logdet_dense(dense)
    dense_ms = (time.perf_counter() - t0) / 5 * 1e3
    print(f"{K:4d}   {sparse_ms:9.2f}   {dense_ms:8.2f}")
