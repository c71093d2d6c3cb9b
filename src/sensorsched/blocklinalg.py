"""Symmetric block-structured linear algebra.

Log-determinants and linear solves for symmetric block-tridiagonal
matrices. A block-tridiagonal matrix with K blocks of size p x p is a
band matrix of half-bandwidth 2p - 1, so both write the blocks into
LAPACK band storage and factor it with one ``dpbtrf`` call, whose cost
is linear in K. The factor's diagonal blocks are the Cholesky factors
of the Schur pivots D_1 = B_1, D_k = B_k - C_k D_{k-1}^{-1} C_k^T. A
``BlockTridiagonalMatrix`` holds its blocks as two read-only stacks, the
form the kernels take whole. Dense fallbacks are provided for
everything. All values are natural-log (nats).

Every SPD factorization in the package happens here: in the one banded
factorization, which also conditions the greedy scheduler's step block
on a sparse covariance prior's prefix, the one dense Cholesky, which also
factors each sensor noise covariance once, when the sensor is built, or
the stacked Cholesky with which exhaustive enumeration, and the greedy
scheduler's downdate gain source where a sensor has more than one
output, factor every candidate of a step at once (with one output per
sensor, the scheduler's 1 x 1 factors are square roots). The first two
call LAPACK directly (``dpbtrf``, ``dpbtrs``, ``dpotrf``, ``dpotrs``
from ``scipy.linalg.lapack``), because at these sizes the checks and
dispatch of the higher-level wrappers cost several times the
factorization itself; the stack goes through ``np.linalg.cholesky``,
which pays that dispatch once for the whole stack. The kernels do not check their inputs for finiteness (a
``BlockTridiagonalMatrix`` does, when it is built); a log-determinant
takes one ``log`` over all factor diagonals and checks the sum once, so
NaN or infinite input either fails a factorization or makes that sum
non-finite.

Failure contract: a positive LAPACK ``info`` from ``dpbtrf`` or
``dpotrf`` means the matrix is not positive definite and raises
``NotPositiveDefiniteError`` whose ``.pivot`` is the unfactored Schur
pivot of the failing block, or the dense matrix (the first failing one
of a stack), and whose ``.block_index`` is the failing block's index
(for a dense matrix, None unless the caller gives its block size); a
non-finite log-determinant raises it with both None. Any other nonzero
``info`` is an illegal call, an internal error, and raises RuntimeError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotrf, dpotrs, dtrtrs

from .errors import DimensionMismatchError, InvalidParamsError, NotPositiveDefiniteError

__all__ = [
    "BlockTridiagonalMatrix",
    "logdet_dense",
    "logdet_block_tridiagonal_blocks",
]


def _square_stack(blocks, n: int, what: str) -> np.ndarray:
    """n x n ``blocks`` as one (len(blocks), n, n) float stack; a misfit names its block."""
    for k, b in enumerate(blocks):
        if np.shape(b) != (n, n):
            raise DimensionMismatchError(
                f"{what} block {k} has shape {np.shape(b)}, expected ({n}, {n})"
            )
    return np.array(blocks, dtype=float).reshape(len(blocks), n, n)


@dataclass(frozen=True, eq=False)
class BlockTridiagonalMatrix:
    """Symmetric block-tridiagonal matrix with K square blocks of size n.

    ``diag_blocks`` is the (K, n, n) stack of diagonal blocks and
    ``offdiag_blocks`` the (K - 1, n, n) stack of upper off-diagonal
    blocks: block (k, k+1) is ``offdiag_blocks[k]`` and block (k+1, k) its
    transpose. Any sequence of finite n x n blocks is accepted and stored
    as a read-only float stack, which the kernels read whole. Diagonal
    blocks are symmetrized once here and never re-checked by operations.

    Raises:
        DimensionMismatchError: the blocks do not form K square diagonal
            and K - 1 off-diagonal blocks of one size.
        InvalidParamsError: a block is not finite, checked before the
            diagonal blocks are symmetrized.
    """

    diag_blocks: np.ndarray
    offdiag_blocks: np.ndarray = ()

    def __post_init__(self):
        K = len(self.diag_blocks)
        if not K:
            raise DimensionMismatchError("need at least one diagonal block")
        first = np.shape(self.diag_blocks[0])
        if len(first) != 2 or first[0] != first[1]:
            raise DimensionMismatchError(
                f"diagonal block 0 has shape {first}, expected a square 2-D block"
            )
        diag = _square_stack(self.diag_blocks, first[0], "diagonal")
        if len(self.offdiag_blocks) != K - 1:
            raise DimensionMismatchError(
                f"{K} diagonal blocks need {K - 1} off-diagonal blocks, "
                f"got {len(self.offdiag_blocks)}"
            )
        off = _square_stack(self.offdiag_blocks, first[0], "off-diagonal")
        if not (np.isfinite(diag).all() and np.isfinite(off).all()):
            raise InvalidParamsError("matrix is not finite")
        for name, stack in (("diag_blocks", 0.5 * (diag + diag.transpose(0, 2, 1))),
                            ("offdiag_blocks", off)):
            stack.setflags(write=False)
            object.__setattr__(self, name, stack)

    @property
    def block_dim(self) -> int:
        return self.diag_blocks.shape[1]

    @property
    def num_blocks(self) -> int:
        return len(self.diag_blocks)

    @property
    def shape(self) -> tuple[int, int]:
        d = self.block_dim * self.num_blocks
        return (d, d)

    @classmethod
    def identity(cls, block_dim: int, num_blocks: int) -> "BlockTridiagonalMatrix":
        return cls(
            diag_blocks=np.tile(np.eye(block_dim), (num_blocks, 1, 1)),
            offdiag_blocks=np.zeros((max(num_blocks - 1, 0), block_dim, block_dim)),
        )

    def assemble(self) -> np.ndarray:
        """Dense nK x nK array with the full symmetric fill-in."""
        n, K = self.block_dim, self.num_blocks
        out = np.zeros((K, n, K, n))
        k = np.arange(K)
        out[k, :, k] = self.diag_blocks
        out[k[:-1], :, k[1:]] = self.offdiag_blocks
        out[k[1:], :, k[:-1]] = self.offdiag_blocks.transpose(0, 2, 1)
        return out.reshape(n * K, n * K)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Product of the assembled matrix with a length-nK vector."""
        n, K = self.block_dim, self.num_blocks
        v = np.asarray(v, dtype=float)
        if v.shape != (n * K,):
            raise DimensionMismatchError(f"vector has shape {v.shape}, expected ({n * K},)")
        # per step: the diagonal block's product, then the lower and the
        # upper neighbour's, added in that order
        parts = v.reshape(K, n, 1)
        out = self.diag_blocks @ parts
        out[1:] += self.offdiag_blocks.transpose(0, 2, 1) @ parts[:-1]
        out[:-1] += self.offdiag_blocks @ parts[1:]
        return out.reshape(-1)


def _lapack_error(routine: str, info: int) -> RuntimeError:
    # every info but a positive one from dpotrf: an illegal argument, or a
    # zero on the diagonal of a factor that dpotrf accepted; a bug, not bad input
    return RuntimeError(f"LAPACK {routine} returned info={info}")


def _cholesky(A: np.ndarray, what: str = "matrix", *,
              block_dim: int | None = None) -> np.ndarray:
    """Lower Cholesky factor of a dense SPD matrix: the one dense factorization.

    Only the lower triangle of A is read. With ``block_dim``, a failure
    reports the block of the failing column as its ``block_index``.
    """
    L, info = dpotrf(A, lower=1)
    if info > 0:
        block = None if block_dim is None else (info - 1) // block_dim
        raise NotPositiveDefiniteError(f"{what} is not positive definite", A, block)
    if info:
        raise _lapack_error("dpotrf", info)
    return L


def _cholesky_stack(
    A: np.ndarray, block_index: int, describe: Callable[[int], str] | None = None
) -> np.ndarray:
    """Lower Cholesky factors of a stack of SPD matrices, in one call.

    ``A`` has shape (..., n, n); every matrix in it is a candidate for the
    pivot block ``block_index``, which a failure reports. ``describe``, if
    given, names the failing matrix by its position j in the flattened
    stack instead. Only the lower triangles are read. NaN input is not
    detected here: it yields NaN factors, so callers check the log-sums
    they take from them.
    """
    try:
        return np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        for j, D in enumerate(A.reshape(-1, *A.shape[-2:])):
            if dpotrf(D, lower=1)[1] > 0:
                what = describe(j) if describe else f"pivot block {block_index}"
                raise NotPositiveDefiniteError(
                    f"{what} is not positive definite", D, block_index
                ) from None
        raise


def _potrs(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A^-1 B from the lower Cholesky factor L of A."""
    X, info = dpotrs(L, B, lower=1)
    if info:
        raise _lapack_error("dpotrs", info)
    return X


def _trtrs(L: np.ndarray, B: np.ndarray, *, overwrite: bool = False) -> np.ndarray:
    """L^-1 B for a lower-triangular L: whitening by a Cholesky factor.

    With ``overwrite``, B must be Fortran-ordered and is solved in place.
    Columns are solved independently, so whitening several blocks side by
    side gives each the bits it gets alone.
    """
    if not overwrite:  # an extra keyword costs the wrapper about 1 us per call
        X, info = dtrtrs(L, B, lower=1)
    elif B.flags.f_contiguous:
        X, info = dtrtrs(L, B, lower=1, overwrite_b=1)
    else:  # LAPACK would solve a copy
        raise ValueError("an in-place solve needs a Fortran-ordered right-hand side")
    if info:
        raise _lapack_error("dtrtrs", info)
    return X


def _inverse_spd(A: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Symmetric inverse of a dense SPD matrix."""
    inv = _potrs(_cholesky(A, what), np.eye(A.shape[0]))
    return 0.5 * (inv + inv.T)


def _logdet_of(factor_diagonal: np.ndarray, what: str) -> float:
    """2 sum log of Cholesky diagonals: the one log-sum and finiteness check."""
    logdet = 2.0 * float(np.log(factor_diagonal).sum())
    if not math.isfinite(logdet):
        raise NotPositiveDefiniteError(f"{what} log-determinant is not finite")
    return logdet


def _logdet_dense(A: np.ndarray) -> float:
    """``logdet_dense`` of a square float array."""
    if A.shape[0] == 0:
        return 0.0
    return _logdet_of(_cholesky(A).diagonal(), "dense")


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


def _band_table(K: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where K diagonal and K - 1 coupling blocks of size p go in band storage.

    The band array is C-ordered (K p, 2p): its row j holds column j of the
    lower triangle from the diagonal down, which is LAPACK's lower band
    storage transposed. Entry (r, c), r >= c, of diagonal block k is matrix
    entry (kp + r, kp + c); entry (r, c) of coupling block k, block
    (k, k+1), is matrix entry ((k+1)p + c, kp + r) below the diagonal.
    Returns the flat band positions of the diagonal blocks' lower
    triangles, their flat positions in the (K, p, p) stack, and the flat
    band positions of the whole (K - 1, p, p) coupling stack, read-only.
    Each array lists block 0's entries first, then block 1's, and so on.
    """
    k, r, c = np.meshgrid(np.arange(K), np.arange(p), np.arange(p), indexing="ij")
    lower = (r >= c).reshape(-1)
    positions = (
        ((k * p + c) * 2 * p + r - c).reshape(-1)[lower],
        np.flatnonzero(lower),
        ((k * p + r) * 2 * p + p + c - r)[:-1].reshape(-1),
    )
    for a in positions:
        a.setflags(write=False)
    return positions


# block size p -> (K, _band_table(K, p)), the largest table built for p
_band_tables: dict[int, tuple[int, tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}


def _band_positions(K: int, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_band_table(K, p)`` for K >= 1 blocks, as read-only leading slices of
    one table per block size. A block's positions do not depend on how
    many blocks follow it, so the table for any larger K starts with them;
    a K beyond the table's rebuilds it for max(K, twice as many) blocks,
    so a run that factors every size up to K builds about log2 K tables."""
    built, table = _band_tables.get(p, (0, ()))
    if built < K:
        built = max(K, 2 * built)
        table = _band_table(built, p)
        _band_tables[p] = built, table
    to_diag, from_diag, to_coupling = table
    lower = K * p * (p + 1) // 2
    return to_diag[:lower], from_diag[:lower], to_coupling[:(K - 1) * p * p]


def _schur_pivot(
    factor: np.ndarray, diag: np.ndarray, coupling: np.ndarray, j: int
) -> np.ndarray:
    """The unfactored pivot D_j = B_j - X^T X with X = L_{j-1}^-1 C_{j-1}.

    X^T is the factor's block (j, j-1). It is rebuilt from the diagonal
    block L_{j-1} of the band factor, whose columns ``dpbtrf`` has
    completed before it reaches block j. Block (j, j-1) itself is not
    read: on wide bands ``dpbtrf`` works in panels and leaves the rows
    below a failing panel unwritten.
    """
    if not j:
        return diag[0]
    X = _trtrs(_factor_block(factor, j - 1), coupling[j - 1])
    return diag[j] - X.T @ X


# block size p -> ``np.tril_indices(p)``, read-only
_lower_triangles: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _factor_block(factor: np.ndarray, j: int) -> np.ndarray:
    """Diagonal block L_j of a band factor from ``_band_factor``, dense and
    lower-triangular: L_j L_j^T is the Schur pivot D_j."""
    p = len(factor) // 2
    if p not in _lower_triangles:
        _lower_triangles[p] = np.tril_indices(p)
        for a in _lower_triangles[p]:
            a.setflags(write=False)
    r, c = _lower_triangles[p]
    L = np.zeros((p, p))
    L[r, c] = factor[r - c, j * p + c]
    return L


def _band_factor(diag: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """Band Cholesky factor of a block-tridiagonal matrix: the one factorization.

    ``diag`` is the (K, p, p) stack of diagonal blocks, of which only the
    lower triangles are read, and ``coupling`` the (K - 1, p, p) stack of
    blocks (k, k+1). The matrix is a band matrix of half-bandwidth 2p - 1,
    factored by one ``dpbtrf`` call. Returns the factor in LAPACK lower
    band storage, (2p, K p): row 0 is its diagonal.
    """
    K, p = diag.shape[:2]
    to_diag, from_diag, to_coupling = _band_positions(K, p)
    band = np.zeros((K * p, 2 * p))
    flat = band.reshape(-1)
    flat[to_diag] = diag.reshape(-1)[from_diag]
    flat[to_coupling] = coupling.reshape(-1)
    factor, info = dpbtrf(band.T, lower=1, overwrite_ab=1)
    if info > 0:
        j = (info - 1) // p
        pivot = _schur_pivot(factor, diag, coupling, j)
        raise NotPositiveDefiniteError(f"pivot block {j} is not positive definite", pivot, j)
    if info:
        raise _lapack_error("dpbtrf", info)
    return factor


def logdet_block_tridiagonal_blocks(
    diag_blocks: np.ndarray, offdiag_blocks: np.ndarray
) -> float:
    """Log-determinant of a block-tridiagonal SPD matrix from its blocks.

    ``diag_blocks`` is the (K, p, p) stack of diagonal blocks and
    ``offdiag_blocks`` the (K - 1, p, p) stack of blocks (k, k+1); anything
    ``np.asarray`` turns into those stacks will do. With p = 0 the matrix
    is empty and its log-determinant 0.0. The cost is one banded Cholesky
    factorization (``dpbtrf``), linear in K.

    Raises:
        NotPositiveDefiniteError: if the matrix is not positive definite
            (the first failing block's unfactored Schur pivot is attached
            as ``exc.pivot`` and its index as ``exc.block_index``) or the
            blocks hold non-finite values.
        DimensionMismatchError: if the blocks do not form a (K, p, p) and
            a (K - 1, p, p) stack.
    """
    try:
        diag = np.asarray(diag_blocks, dtype=float)
        coupling = np.asarray(offdiag_blocks, dtype=float)
    except ValueError as exc:  # blocks of different shapes
        raise DimensionMismatchError(f"blocks do not form a stack: {exc}") from None
    if (
        diag.ndim != 3
        or diag.shape[1] != diag.shape[2]
        or coupling.shape != (len(diag) - 1,) + diag.shape[1:]
    ):
        raise DimensionMismatchError(
            f"block stacks of shapes {diag.shape} and {coupling.shape} do not fit"
        )
    if not diag.size:
        return 0.0
    return _logdet_of(_band_factor(diag, coupling)[0], "block")


def _band_solve(diag: np.ndarray, coupling: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M x = rhs, M given by its (K, n, n) and (K - 1, n, n) block stacks,
    with the banded Cholesky factor of M (``dpbtrs``); only the diagonal
    blocks' lower triangles are read. Fails as ``_band_factor`` does."""
    x, info = dpbtrs(_band_factor(diag, coupling), rhs, lower=1)
    if info:
        raise _lapack_error("dpbtrs", info)
    return x
