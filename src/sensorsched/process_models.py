"""Gaussian priors over the batch state x_1..x_K.

A prior stores its Gaussian in exactly one of four representations:
covariance or precision, block-tridiagonal (sparse) or dense. Builders
are provided for the two sparse families of interest -- a stationary
tracking covariance, correlated only between consecutive steps, and a
linear Gauss-Markov system, whose *precision* is block-tridiagonal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import blocklinalg
from .blocklinalg import BlockTridiagonalMatrix, _inverse_spd, logdet_dense
from .errors import DimensionMismatchError, InvalidParamsError, NotPositiveDefiniteError

__all__ = [
    "LOG_TWO_PI_E",
    "PriorForm",
    "GaussianPrior",
    "build_tracking_prior",
    "build_gauss_markov_prior",
    "build_dense_prior",
    "densify",
    "prior_entropy",
]

LOG_TWO_PI_E = float(np.log(2.0 * np.pi * np.e))


class PriorForm(str, enum.Enum):
    COVARIANCE_SPARSE = "covariance_sparse"
    PRECISION_SPARSE = "precision_sparse"
    COVARIANCE_DENSE = "covariance_dense"
    PRECISION_DENSE = "precision_dense"

    @property
    def is_sparse(self) -> bool:
        return self in (PriorForm.COVARIANCE_SPARSE, PriorForm.PRECISION_SPARSE)

    @property
    def is_precision(self) -> bool:
        return self in (PriorForm.PRECISION_SPARSE, PriorForm.PRECISION_DENSE)


@dataclass(frozen=True, eq=False)
class GaussianPrior:
    """Gaussian over the stacked state of K steps of dimension n each.

    ``mean`` must be finite. ``matrix`` is the covariance or the precision
    of the batch state per ``form``. It must be finite, and is verified SPD
    at construction by one factorization, whose log-determinant is kept in
    ``matrix_logdet``.
    """

    n: int
    K: int
    mean: np.ndarray
    matrix: BlockTridiagonalMatrix | np.ndarray
    form: PriorForm
    matrix_logdet: float = field(init=False)

    def __post_init__(self):
        if self.n < 1 or self.K < 1:
            raise DimensionMismatchError(f"need n >= 1 and K >= 1, got n={self.n}, K={self.K}")
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (self.dim,):
            raise DimensionMismatchError(
                f"mean has shape {mean.shape}, expected ({self.dim},)"
            )
        if not np.isfinite(mean).all():
            raise InvalidParamsError("mean is not finite")
        mean = mean.copy()
        mean.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "form", PriorForm(self.form))

        if self.form.is_sparse:
            if not isinstance(self.matrix, BlockTridiagonalMatrix):
                raise DimensionMismatchError("sparse forms require a BlockTridiagonalMatrix")
            if self.matrix.block_dim != self.n or self.matrix.num_blocks != self.K:
                raise DimensionMismatchError(
                    f"matrix blocks ({self.matrix.block_dim}, {self.matrix.num_blocks}) "
                    f"do not match (n={self.n}, K={self.K})"
                )
            # the matrix checked that its blocks are finite when it was built;
            # looked up at call time, so a wrapper on the kernel sees this call too
            logdet = blocklinalg.logdet_block_tridiagonal_blocks(
                self.matrix.diag_blocks, self.matrix.offdiag_blocks)
        else:
            dense = np.asarray(self.matrix, dtype=float)
            if dense.shape != (self.dim, self.dim):
                raise DimensionMismatchError(
                    f"matrix has shape {dense.shape}, expected ({self.dim}, {self.dim})"
                )
            if not np.isfinite(dense).all():
                raise InvalidParamsError("matrix is not finite")
            dense = 0.5 * (dense + dense.T)
            dense.setflags(write=False)
            object.__setattr__(self, "matrix", dense)
            logdet = logdet_dense(dense)
        object.__setattr__(self, "matrix_logdet", logdet)

    @property
    def dim(self) -> int:
        return self.n * self.K

    def assembled(self) -> np.ndarray:
        """Dense array of the stored matrix (not a form conversion)."""
        if isinstance(self.matrix, BlockTridiagonalMatrix):
            return self.matrix.assemble()
        return np.array(self.matrix)

    def covariance_dense(self) -> np.ndarray:
        """Read-only dense covariance; a stored precision is inverted (O(dim^3)) once."""
        return self._dense(precision=False)

    def precision_dense(self) -> np.ndarray:
        """Read-only dense precision; a stored covariance is inverted (O(dim^3)) once."""
        return self._dense(precision=True)

    def _dense(self, precision: bool) -> np.ndarray:
        key = "_precision_dense" if precision else "_covariance_dense"
        out = self.__dict__.get(key)
        if out is None:
            out = self.assembled()
            if precision != self.form.is_precision:
                out = _inverse_spd(out)
            out.setflags(write=False)
            object.__setattr__(self, key, out)
        return out


def _precision(prior: GaussianPrior):
    """The stored precision, or the prior's cached dense one (inverted once)."""
    return prior.matrix if prior.form.is_precision else prior.precision_dense()


def _covariance(prior: GaussianPrior):
    """The stored covariance, or the prior's cached dense one (inverted once)."""
    return prior.covariance_dense() if prior.form.is_precision else prior.matrix


def build_tracking_prior(
    n: int,
    K: int,
    marginal_var: float,
    neighbor_corr: float,
    mean: np.ndarray | None = None,
) -> GaussianPrior:
    """Stationary covariance prior correlated only between adjacent steps.

    Diagonal covariance blocks are ``marginal_var * I`` and the (k, k+1)
    blocks are ``neighbor_corr * marginal_var * I``, giving the sparse
    *covariance* regime. Mean defaults to zero.

    Raises:
        NotPositiveDefiniteError: if ``marginal_var`` is not positive and
            finite, or ``neighbor_corr`` makes the assembled covariance
            indefinite (possible for |corr| >= 0.5 at long K).
    """
    if not 0 < marginal_var < np.inf:
        raise NotPositiveDefiniteError(
            f"marginal_var must be positive and finite, got {marginal_var}")
    if not -1.0 < neighbor_corr < 1.0:
        raise NotPositiveDefiniteError(
            f"neighbor_corr must be in (-1, 1), got {neighbor_corr}"
        )
    eye = np.eye(n)
    cov = BlockTridiagonalMatrix(
        diag_blocks=tuple(marginal_var * eye for _ in range(K)),
        offdiag_blocks=tuple(neighbor_corr * marginal_var * eye for _ in range(K - 1)),
    )
    if mean is None:
        mean = np.zeros(n * K)
    return GaussianPrior(n=n, K=K, mean=mean, matrix=cov, form=PriorForm.COVARIANCE_SPARSE)


def build_gauss_markov_prior(
    A: np.ndarray,
    Q: np.ndarray,
    Sigma0: np.ndarray,
    mu0: np.ndarray | None = None,
    K: int = 1,
) -> GaussianPrior:
    """Precision-form prior for x_{k+1} = A x_k + w_k, w_k ~ N(0, Q).

    Standard information-form assembly: each transition contributes
    [A^T Q^-1 A, -A^T Q^-1; -Q^-1 A, Q^-1] to the precision, and the
    initial state contributes Sigma0^-1 to the first diagonal block. The
    mean propagates mu_{k+1} = A mu_k from ``mu0`` (default zero).

    Raises:
        InvalidParamsError: if A, Q, Sigma0 or mu0 is not finite; names it.
        NotPositiveDefiniteError: if Q or Sigma0 is not SPD.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    Sigma0 = np.atleast_2d(np.asarray(Sigma0, dtype=float))
    n = A.shape[0]
    if A.shape != (n, n) or Q.shape != (n, n) or Sigma0.shape != (n, n):
        raise DimensionMismatchError(
            f"A, Q, Sigma0 must all be {n} x {n}; got {A.shape}, {Q.shape}, {Sigma0.shape}"
        )
    mu = np.zeros(n) if mu0 is None else np.asarray(mu0, dtype=float)
    if mu.shape != (n,):
        raise DimensionMismatchError(f"mu0 has shape {mu.shape}, expected ({n},)")
    for name, value in (("A", A), ("Q", Q), ("Sigma0", Sigma0), ("mu0", mu)):
        if not np.isfinite(value).all():
            raise InvalidParamsError(f"{name} is not finite")
    Q_inv = _inverse_spd(0.5 * (Q + Q.T), "Q")
    Sigma0_inv = _inverse_spd(0.5 * (Sigma0 + Sigma0.T), "Sigma0")

    AtQinv = A.T @ Q_inv
    AtQinvA = AtQinv @ A
    diag = []
    for k in range(K):
        block = Sigma0_inv.copy() if k == 0 else Q_inv.copy()
        if k < K - 1:
            block += AtQinvA
        diag.append(block)
    off = tuple(-AtQinv for _ in range(K - 1))
    precision = BlockTridiagonalMatrix(diag_blocks=tuple(diag), offdiag_blocks=off)

    means = [mu]
    for _ in range(K - 1):
        means.append(A @ means[-1])
    return GaussianPrior(
        n=n,
        K=K,
        mean=np.concatenate(means),
        matrix=precision,
        form=PriorForm.PRECISION_SPARSE,
    )


def build_dense_prior(
    n: int,
    K: int,
    matrix: np.ndarray,
    representation: str = "covariance",
    mean: np.ndarray | None = None,
) -> GaussianPrior:
    """Dense prior from an explicit nK x nK covariance or precision."""
    form = {
        "covariance": PriorForm.COVARIANCE_DENSE,
        "precision": PriorForm.PRECISION_DENSE,
    }.get(representation)
    if form is None:
        raise DimensionMismatchError(
            f"representation must be 'covariance' or 'precision', got {representation!r}"
        )
    if mean is None:
        mean = np.zeros(n * K)
    return GaussianPrior(n=n, K=K, mean=mean, matrix=np.asarray(matrix, float), form=form)


def densify(prior: GaussianPrior) -> GaussianPrior:
    """Same Gaussian, same representation, stored densely.

    Used to compare the sparse and dense complexity regimes on identical
    problems; no inversion happens here.
    """
    if not prior.form.is_sparse:
        return prior
    form = (
        PriorForm.PRECISION_DENSE
        if prior.form.is_precision
        else PriorForm.COVARIANCE_DENSE
    )
    return GaussianPrior(
        n=prior.n, K=prior.K, mean=prior.mean, matrix=prior.assembled(), form=form
    )


def prior_entropy(p: GaussianPrior) -> float:
    """Differential entropy of the batch state in nats.

    H = (nK/2) log(2 pi e) + (1/2) log det Sigma; precision forms use the
    negated stored log-determinant instead of inverting.
    """
    logdet = -p.matrix_logdet if p.form.is_precision else p.matrix_logdet
    return 0.5 * p.dim * LOG_TWO_PI_E + 0.5 * logdet
