"""Symmetric block-structured linear algebra.

Log-determinants and linear solves for symmetric block-tridiagonal
matrices. Both run a Schur-complement pivot recursion

    D_1 = B_1,   D_k = B_k - C_k D_{k-1}^{-1} C_k^T,

so their cost is linear in the number of blocks; dense fallbacks are
provided for everything. All values are natural-log (nats).

Every SPD factorization in the package happens here: in the one pivot
recursion, the one dense Cholesky, which also factors each sensor noise
covariance once, when the sensor is built, or the stacked Cholesky with
which exhaustive enumeration factors every candidate pivot of a step at
once. The first two call LAPACK directly (``dpotrf``, ``dtrtrs``,
``dpotrs`` from ``scipy.linalg.lapack``), because at pivot-block sizes
the checks and dispatch of the higher-level wrappers cost several times
the factorization itself; the stack goes through ``np.linalg.cholesky``,
which pays that dispatch once for the whole stack. Inputs are not
checked for finiteness on the way in; a log-determinant takes one ``log``
over all factor diagonals and checks the sum once, so NaN or infinite
input either fails a factorization or makes that sum non-finite.

Failure contract: a positive LAPACK ``info`` from ``dpotrf`` means the
matrix is not positive definite and raises ``NotPositiveDefiniteError``
whose ``.pivot`` is the unfactored pivot block or dense matrix (the first
failing one of a stack) and whose ``.block_index`` is the failing pivot's
index (None for dense matrices);
a non-finite log-determinant raises it with both None. Any other nonzero
``info`` is an illegal call, an internal error, and raises RuntimeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs

from .errors import DimensionMismatchError, NotPositiveDefiniteError

__all__ = [
    "BlockTridiagonalMatrix",
    "logdet_dense",
    "logdet_block_tridiagonal",
    "logdet_block_tridiagonal_blocks",
    "solve_block_tridiagonal",
]


def _frozen_array(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BlockTridiagonalMatrix:
    """Symmetric block-tridiagonal matrix with K square blocks of size n.

    Only the upper off-diagonal blocks are stored: block (k, k+1) is
    ``offdiag_blocks[k]`` and block (k+1, k) is its transpose. Diagonal
    blocks are symmetrized once here and never re-checked by operations.
    """

    diag_blocks: tuple[np.ndarray, ...]
    offdiag_blocks: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        diag = tuple(np.asarray(b, dtype=float) for b in self.diag_blocks)
        off = tuple(np.asarray(b, dtype=float) for b in self.offdiag_blocks)
        if not diag:
            raise DimensionMismatchError("need at least one diagonal block")
        n = diag[0].shape[0] if diag[0].ndim == 2 else -1
        for k, b in enumerate(diag):
            if b.shape != (n, n):
                raise DimensionMismatchError(
                    f"diagonal block {k} has shape {b.shape}, expected ({n}, {n})"
                )
        if len(off) != len(diag) - 1:
            raise DimensionMismatchError(
                f"{len(diag)} diagonal blocks need {len(diag) - 1} "
                f"off-diagonal blocks, got {len(off)}"
            )
        for k, b in enumerate(off):
            if b.shape != (n, n):
                raise DimensionMismatchError(
                    f"off-diagonal block {k} has shape {b.shape}, expected ({n}, {n})"
                )
        object.__setattr__(
            self, "diag_blocks", tuple(_frozen_array(0.5 * (b + b.T)) for b in diag)
        )
        object.__setattr__(self, "offdiag_blocks", tuple(_frozen_array(b) for b in off))

    @property
    def block_dim(self) -> int:
        return self.diag_blocks[0].shape[0]

    @property
    def num_blocks(self) -> int:
        return len(self.diag_blocks)

    @property
    def shape(self) -> tuple[int, int]:
        d = self.block_dim * self.num_blocks
        return (d, d)

    @classmethod
    def identity(cls, block_dim: int, num_blocks: int) -> "BlockTridiagonalMatrix":
        eye = np.eye(block_dim)
        zero = np.zeros((block_dim, block_dim))
        return cls(
            diag_blocks=tuple(eye for _ in range(num_blocks)),
            offdiag_blocks=tuple(zero for _ in range(num_blocks - 1)),
        )

    def assemble(self) -> np.ndarray:
        """Dense nK x nK array with the full symmetric fill-in."""
        n, K = self.block_dim, self.num_blocks
        out = np.zeros((n * K, n * K))
        for k, b in enumerate(self.diag_blocks):
            out[k * n:(k + 1) * n, k * n:(k + 1) * n] = b
        for k, b in enumerate(self.offdiag_blocks):
            out[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = b
            out[(k + 1) * n:(k + 2) * n, k * n:(k + 1) * n] = b.T
        return out

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Product of the assembled matrix with a length-nK vector."""
        n, K = self.block_dim, self.num_blocks
        v = np.asarray(v, dtype=float)
        if v.shape != (n * K,):
            raise DimensionMismatchError(f"vector has shape {v.shape}, expected ({n * K},)")
        parts = v.reshape(K, n)
        out = np.empty_like(parts)
        for k in range(K):
            acc = self.diag_blocks[k] @ parts[k]
            if k > 0:
                acc = acc + self.offdiag_blocks[k - 1].T @ parts[k - 1]
            if k < K - 1:
                acc = acc + self.offdiag_blocks[k] @ parts[k + 1]
            out[k] = acc
        return out.reshape(-1)


def _lapack_error(routine: str, info: int) -> RuntimeError:
    # every info but a positive one from dpotrf: an illegal argument, or a
    # zero on the diagonal of a factor that dpotrf accepted; a bug, not bad input
    return RuntimeError(f"LAPACK {routine} returned info={info}")


def _cholesky(A: np.ndarray, what: str = "matrix", *, overwrite: bool = False) -> np.ndarray:
    """Lower Cholesky factor of a dense SPD matrix: the one dense factorization.

    With ``overwrite``, A must be a fresh, exactly symmetric, C-ordered
    array that the caller gives up: LAPACK factors its transpose, the same
    matrix in Fortran order, in place, and only the lower triangle of the
    result is the factor.
    """
    if not overwrite:
        L, info = dpotrf(A, lower=1)
    else:
        diagonal = A.diagonal().copy()
        L, info = dpotrf(A.T, lower=1, overwrite_a=1, clean=0)
        if info > 0:  # the factor overwrote the upper triangle and diagonal
            A = np.tril(A, -1)
            A += A.T
            A[np.diag_indices_from(A)] = diagonal
    if info > 0:
        raise NotPositiveDefiniteError(f"{what} is not positive definite", A)
    if info:
        raise _lapack_error("dpotrf", info)
    return L


def _cholesky_stack(A: np.ndarray, block_index: int) -> np.ndarray:
    """Lower Cholesky factors of a stack of SPD matrices, in one call.

    ``A`` has shape (..., n, n); every matrix in it is a candidate for the
    pivot block ``block_index``, which a failure reports. Only the lower
    triangles are read. NaN input is not detected here: it yields NaN
    factors, so callers check the log-sums they take from them.
    """
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        for D in A.reshape(-1, *A.shape[-2:]):
            if dpotrf(D, lower=1)[1] > 0:
                raise NotPositiveDefiniteError(
                    f"pivot block {block_index} is not positive definite", D, block_index
                ) from None
        raise


def _potrs(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^-1 B from the lower Cholesky factor L of A."""
    X, info = dpotrs(L, B, lower=1)
    if info:
        raise _lapack_error("dpotrs", info)
    return X


def _trtrs(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L^-1 B for a lower-triangular L: whitening by a Cholesky factor."""
    X, info = dtrtrs(L, B, lower=1)
    if info:
        raise _lapack_error("dtrtrs", info)
    return X


def _solve_spd(A: np.ndarray, B: np.ndarray, what: str = "matrix") -> np.ndarray:
    """A^-1 B for a dense SPD matrix A."""
    return _potrs(_cholesky(A, what), B)


def _inverse_spd(A: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Symmetric inverse of a dense SPD matrix."""
    inv = _solve_spd(A, np.eye(A.shape[0]), what)
    return 0.5 * (inv + inv.T)


def _logdet_of(factor_diagonal: np.ndarray, what: str) -> float:
    """2 sum log of Cholesky diagonals: the one log-sum and finiteness check."""
    logdet = 2.0 * float(np.log(factor_diagonal).sum())
    if not math.isfinite(logdet):
        raise NotPositiveDefiniteError(f"{what} log-determinant is not finite")
    return logdet


def _logdet_dense(A: np.ndarray, overwrite: bool = False) -> float:
    """``logdet_dense`` of a square float array; ``overwrite`` as in ``_cholesky``."""
    if A.shape[0] == 0:
        return 0.0
    return _logdet_of(_cholesky(A, overwrite=overwrite).diagonal(), "dense")


def logdet_dense(M: np.ndarray) -> float:
    """Log-determinant of a symmetric positive definite matrix, in nats.

    Raises:
        NotPositiveDefiniteError: if the factorization fails (``exc.pivot``
            is the matrix) or the input holds non-finite values.
    """
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {A.shape}")
    return _logdet_dense(A)


def _pivot_factors(
    diag_blocks: Sequence[np.ndarray], offdiag_blocks: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """Lower Cholesky factors of the Schur pivots D_k, one per diagonal block.

    Per block one ``_trtrs`` gives X = L_{k-1}^-1 C_k and one ``dpotrf``
    factors D_k = B_k - X^T X. A 0 x 0 block yields a 0 x 0 factor and
    decouples its neighbours.
    """
    chols: list[np.ndarray] = []
    for k, D in enumerate(diag_blocks):
        if k and chols[-1].shape[0] and D.shape[0]:
            X = _trtrs(chols[-1], offdiag_blocks[k - 1])
            D = D - X.T @ X
        if D.shape[0]:
            L, info = dpotrf(D, lower=1)
            if info > 0:
                raise NotPositiveDefiniteError(
                    f"pivot block {k} is not positive definite", D, k
                )
            if info:
                raise _lapack_error("dpotrf", info)
            D = L
        chols.append(D)
    return chols


def logdet_block_tridiagonal_blocks(
    diag_blocks: Sequence[np.ndarray],
    offdiag_blocks: Sequence[np.ndarray],
) -> float:
    """Pivot-recursion log-determinant from explicit block lists.

    Block sizes may vary along the diagonal (0 x 0 blocks allowed);
    ``offdiag_blocks[k]`` is block (k, k+1). Cost is one small Cholesky
    factorization plus one triangular solve per block, so linear in the
    number of blocks.

    Raises:
        NotPositiveDefiniteError: if any pivot block fails to factor (the
            failing pivot is attached as ``exc.pivot`` and its index as
            ``exc.block_index``) or the blocks hold non-finite values.
    """
    diagonals = [L.diagonal() for L in _pivot_factors(diag_blocks, offdiag_blocks)]
    return _logdet_of(np.concatenate(diagonals or [np.empty(0)]), "block")


def logdet_block_tridiagonal(M: BlockTridiagonalMatrix) -> float:
    """Log-determinant of an SPD block-tridiagonal matrix, linear in K.

    Runs the Schur pivot recursion; equals ``logdet_dense(M.assemble())``
    up to rounding.

    Raises:
        NotPositiveDefiniteError: if any pivot block fails to factor,
            which happens exactly when the assembled matrix is not SPD.
    """
    return logdet_block_tridiagonal_blocks(M.diag_blocks, M.offdiag_blocks)


def solve_block_tridiagonal(M: BlockTridiagonalMatrix, b: np.ndarray) -> np.ndarray:
    """Solve M x = b by block forward/backward substitution.

    Args:
        M: SPD block-tridiagonal matrix.
        b: right-hand side of length nK.

    Returns:
        Solution vector x of length nK.

    Raises:
        NotPositiveDefiniteError: on pivot factorization failure, with the
            failing pivot attached as ``exc.pivot`` and its index as
            ``exc.block_index``.
        DimensionMismatchError: if b has the wrong length.
    """
    n, K = M.block_dim, M.num_blocks
    rhs = np.asarray(b, dtype=float)
    if rhs.shape != (n * K,):
        raise DimensionMismatchError(f"rhs has shape {rhs.shape}, expected ({n * K},)")
    parts = rhs.reshape(K, n)
    chols = _pivot_factors(M.diag_blocks, M.offdiag_blocks)

    ys = np.empty_like(parts)
    ys[0] = parts[0]
    for k in range(1, K):
        ys[k] = parts[k] - M.offdiag_blocks[k - 1].T @ _potrs(chols[k - 1], ys[k - 1])

    xs = np.empty_like(parts)
    for k in range(K - 1, -1, -1):
        y = ys[k] if k == K - 1 else ys[k] - M.offdiag_blocks[k] @ xs[k + 1]
        xs[k] = _potrs(chols[k], y)
    return xs.reshape(-1)

