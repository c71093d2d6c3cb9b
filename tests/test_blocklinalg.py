"""Block-tridiagonal linear algebra against dense factorization oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sensorsched as ss
from conftest import random_spd_block_tridiag
from sensorsched import blocklinalg


class TestLogdetBlockTridiagonal:
    def test_identity(self):
        M = ss.BlockTridiagonalMatrix.identity(2, 3)
        assert ss.logdet_block_tridiagonal(M) == 0.0

    def test_scalar_diagonal_blocks(self):
        M = ss.BlockTridiagonalMatrix(
            diag_blocks=([[2.0]], [[2.0]], [[2.0]]),
            offdiag_blocks=([[0.0]], [[0.0]]),
        )
        assert ss.logdet_block_tridiagonal(M) == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_seeded_instance_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        M, dense = random_spd_block_tridiag(rng, n=2, K=4)
        sign, oracle = np.linalg.slogdet(dense)
        assert sign > 0
        assert ss.logdet_block_tridiagonal(M) == pytest.approx(oracle, rel=1e-10)

    def test_random_sweep_against_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            K = int(rng.integers(1, 9))
            M, dense = random_spd_block_tridiag(rng, n, K)
            sign, oracle = np.linalg.slogdet(dense)
            assert sign > 0
            got = ss.logdet_block_tridiagonal(M)
            assert abs(got - oracle) <= 1e-9 * max(1.0, abs(oracle))

    def test_indefinite_raises(self):
        # off-diagonal coupling dominates: assembled [[1, 2], [2, 1]] has a
        # negative eigenvalue, caught at the second pivot
        M = ss.BlockTridiagonalMatrix(
            diag_blocks=([[1.0]], [[1.0]]), offdiag_blocks=([[2.0]],)
        )
        assert np.linalg.eigvalsh(M.assemble())[0] < 0
        with pytest.raises(ss.NotPositiveDefiniteError):
            ss.logdet_block_tridiagonal(M)

    def test_negative_first_pivot_raises(self):
        M = ss.BlockTridiagonalMatrix(diag_blocks=([[-1.0]],), offdiag_blocks=())
        with pytest.raises(ss.NotPositiveDefiniteError):
            ss.logdet_block_tridiagonal(M)

    def test_pivot_success_iff_assembled_spd(self):
        # both directions: recursion succeeds exactly when the assembled
        # matrix is positive definite
        rng = np.random.default_rng(11)
        for trial in range(30):
            n = int(rng.integers(1, 4))
            K = int(rng.integers(2, 6))
            M, dense = random_spd_block_tridiag(rng, n, K)
            if trial % 2:
                # corrupt one diagonal block enough to lose definiteness
                k = int(rng.integers(K))
                diag = list(M.diag_blocks)
                diag[k] = diag[k] - 10.0 * np.eye(n)
                M = ss.BlockTridiagonalMatrix(tuple(diag), M.offdiag_blocks)
                dense = M.assemble()
            spd = np.linalg.eigvalsh(dense)[0] > 0
            if spd:
                ss.logdet_block_tridiagonal(M)
            else:
                with pytest.raises(ss.NotPositiveDefiniteError):
                    ss.logdet_block_tridiagonal(M)

    def test_variable_block_sizes_with_empty_blocks(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((1, 1))
        diag = [a @ a.T + 2 * np.eye(2), np.zeros((0, 0)), b @ b.T + np.eye(1)]
        off = [np.zeros((2, 0)), np.zeros((0, 1))]
        got = ss.logdet_block_tridiagonal_blocks(diag, off)
        oracle = np.linalg.slogdet(diag[0])[1] + np.linalg.slogdet(diag[2])[1]
        assert got == pytest.approx(oracle, rel=1e-12)
        assert ss.logdet_block_tridiagonal_blocks([np.zeros((0, 0))], []) == 0.0
        assert ss.logdet_block_tridiagonal_blocks([], []) == 0.0


class TestLogdetDense:
    def test_one_by_one(self):
        assert ss.logdet_dense(np.array([[4.0]])) == pytest.approx(math.log(4), abs=1e-12)

    def test_identity(self):
        assert ss.logdet_dense(np.eye(5)) == 0.0

    def test_two_by_two(self):
        assert ss.logdet_dense(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(
            math.log(3), abs=1e-12
        )

    def test_indefinite_raises(self):
        with pytest.raises(ss.NotPositiveDefiniteError):
            ss.logdet_dense(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_non_square_raises(self):
        with pytest.raises(ss.DimensionMismatchError):
            ss.logdet_dense(np.zeros((2, 3)))


class TestSolveBlockTridiagonal:
    def test_identity(self):
        M = ss.BlockTridiagonalMatrix.identity(2, 3)
        b = np.arange(6.0)
        np.testing.assert_allclose(ss.solve_block_tridiagonal(M, b), b)

    def test_scalar_diagonal(self):
        M = ss.BlockTridiagonalMatrix(
            diag_blocks=([[2.0]], [[2.0]]), offdiag_blocks=([[0.0]],)
        )
        np.testing.assert_allclose(
            ss.solve_block_tridiagonal(M, np.array([2.0, 4.0])), [1.0, 2.0]
        )

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            K = int(rng.integers(1, 7))
            M, dense = random_spd_block_tridiag(rng, n, K)
            b = rng.standard_normal(n * K)
            x = ss.solve_block_tridiagonal(M, b)
            np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-8, atol=1e-10)

    def test_residual_bound(self):
        rng = np.random.default_rng(17)
        M, dense = random_spd_block_tridiag(rng, 3, 6)
        b = rng.standard_normal(18)
        x = ss.solve_block_tridiagonal(M, b)
        residual = np.linalg.norm(dense @ x - b)
        bound = 1e-10 * (
            np.linalg.norm(dense) * np.linalg.norm(x) + np.linalg.norm(b)
        )
        assert residual <= bound

    def test_wrong_length_raises(self):
        M = ss.BlockTridiagonalMatrix.identity(2, 2)
        with pytest.raises(ss.DimensionMismatchError):
            ss.solve_block_tridiagonal(M, np.zeros(5))

    def test_indefinite_raises(self):
        M = ss.BlockTridiagonalMatrix(
            diag_blocks=([[1.0]], [[1.0]]), offdiag_blocks=([[2.0]],)
        )
        with pytest.raises(ss.NotPositiveDefiniteError):
            ss.solve_block_tridiagonal(M, np.ones(2))


# [[1, 2], [2, 1]] is indefinite; as blocks it fails at the second pivot
INDEFINITE = np.array([[1.0, 2.0], [2.0, 1.0]])
INDEFINITE_BLOCKS = ss.BlockTridiagonalMatrix(
    diag_blocks=([[1.0]], [[1.0]]), offdiag_blocks=([[2.0]],)
)


class TestFailureContract:
    @pytest.mark.parametrize(
        "factor",
        [
            lambda: ss.logdet_block_tridiagonal_blocks(
                INDEFINITE_BLOCKS.diag_blocks, INDEFINITE_BLOCKS.offdiag_blocks
            ),
            lambda: ss.solve_block_tridiagonal(INDEFINITE_BLOCKS, np.ones(2)),
            lambda: ss.logdet_dense(INDEFINITE),
        ],
        ids=["logdet_blocks", "solve", "logdet_dense"],
    )
    def test_indefinite_input_raises_with_pivot(self, factor):
        with pytest.raises(ss.NotPositiveDefiniteError) as info:
            factor()
        pivot = info.value.pivot
        assert pivot.shape[0] == pivot.shape[1] > 0
        assert np.linalg.eigvalsh(pivot)[0] < 0

    @pytest.mark.parametrize(
        "factor, index",
        [
            (lambda M: ss.logdet_block_tridiagonal_blocks(M.diag_blocks, M.offdiag_blocks), 2),
            (lambda M: ss.solve_block_tridiagonal(M, np.ones(M.shape[0])), 2),
            (lambda M: ss.logdet_dense(M.assemble()), None),
        ],
        ids=["logdet_blocks", "solve", "logdet_dense"],
    )
    def test_failing_block_index(self, factor, index):
        rng = np.random.default_rng(37)
        M, _ = random_spd_block_tridiag(rng, 2, 4)
        diag = list(M.diag_blocks)
        diag[2] = diag[2] - 50.0 * np.eye(2)
        with pytest.raises(ss.NotPositiveDefiniteError) as info:
            factor(ss.BlockTridiagonalMatrix(tuple(diag), M.offdiag_blocks))
        assert info.value.block_index == index

    def test_non_finite_log_determinant_has_no_pivot(self):
        # an infinite diagonal entry factors but leaves an infinite log-sum
        with pytest.raises(ss.NotPositiveDefiniteError) as info:
            ss.logdet_block_tridiagonal_blocks([np.eye(2), np.diag([1.0, np.inf])], [np.zeros((2, 2))])
        assert info.value.pivot is None and info.value.block_index is None

    def test_illegal_lapack_call_is_not_reported_as_not_spd(self, monkeypatch):
        monkeypatch.setattr(blocklinalg, "dpotrf", lambda a, **kw: (a, -1))
        for factor in (
            lambda: ss.logdet_block_tridiagonal_blocks([np.eye(2)], []),
            lambda: ss.logdet_dense(np.eye(2)),
        ):
            with pytest.raises(RuntimeError, match="info=-1"):
                factor()

    def test_in_place_dense_factor_matches_and_keeps_the_pivot(self):
        rng = np.random.default_rng(41)
        _, A = random_spd_block_tridiag(rng, 3, 4)
        owned = A.copy()
        assert blocklinalg._logdet_dense(owned, overwrite=True) == ss.logdet_dense(A)
        assert not np.array_equal(owned, A)  # factored in place, no copy
        owned = INDEFINITE.copy()
        with pytest.raises(ss.NotPositiveDefiniteError) as info:
            blocklinalg._logdet_dense(owned, overwrite=True)
        np.testing.assert_array_equal(info.value.pivot, INDEFINITE)

    def test_nan_dense_input_raises(self):
        A = np.eye(3)
        A[1, 0] = A[0, 1] = np.nan
        with pytest.raises(ss.NotPositiveDefiniteError):
            ss.logdet_dense(A)

    def test_nan_block_input_raises(self):
        rng = np.random.default_rng(31)
        M, _ = random_spd_block_tridiag(rng, 2, 4)
        off = list(M.offdiag_blocks)
        off[1] = np.full((2, 2), np.nan)
        with pytest.raises(ss.NotPositiveDefiniteError):
            ss.logdet_block_tridiagonal_blocks(M.diag_blocks, off)


def _spd_blocks(rng, sizes):
    """SPD block-tridiagonal matrix with the given block sizes (0 allowed).

    Built as L L^T with L block lower-bidiagonal, so off-diagonal blocks are
    rectangular where neighbouring sizes differ. Returns the diagonal
    blocks, the off-diagonal blocks and the dense assembly.
    """
    at = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    span = [slice(at[k], at[k + 1]) for k in range(len(sizes))]
    L = np.zeros((at[-1], at[-1]))
    for k, p in enumerate(sizes):
        if p:
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            L[span[k], span[k]] = q @ np.diag(0.6 + rng.random(p))
        if k:
            L[span[k], span[k - 1]] = 0.5 * rng.standard_normal((p, sizes[k - 1]))
    A = L @ L.T
    diag = [A[span[k], span[k]] for k in range(len(sizes))]
    off = [A[span[k], span[k + 1]] for k in range(len(sizes) - 1)]
    return diag, off, A


SIZES = st.lists(st.integers(0, 3), min_size=1, max_size=6)
SEEDS = st.integers(0, 2**32 - 1)


class TestKernelProperties:
    @given(sizes=SIZES, seed=SEEDS)
    def test_logdet_matches_slogdet(self, sizes, seed):
        diag, off, A = _spd_blocks(np.random.default_rng(seed), sizes)
        sign, oracle = np.linalg.slogdet(A)
        assert sign == 1
        got = ss.logdet_block_tridiagonal_blocks(diag, off)
        assert abs(got - oracle) <= 1e-9 * max(1.0, abs(oracle))

    @given(n=st.integers(1, 3), K=st.integers(1, 6), seed=SEEDS)
    def test_solve_matches_numpy(self, n, K, seed):
        # solve_block_tridiagonal takes a BlockTridiagonalMatrix: one size
        rng = np.random.default_rng(seed)
        diag, off, A = _spd_blocks(rng, [n] * K)
        b = rng.standard_normal(n * K)
        got = ss.solve_block_tridiagonal(ss.BlockTridiagonalMatrix(diag, off), b)
        oracle = np.linalg.solve(A, b)
        assert np.linalg.norm(got - oracle) <= 1e-9 * np.linalg.norm(oracle)

    @given(sizes=SIZES, seed=SEEDS, data=st.data())
    def test_indefinite_block_raises_with_its_index(self, sizes, seed, data):
        nonempty = [k for k, p in enumerate(sizes) if p]
        if not nonempty:
            return
        j = data.draw(st.sampled_from(nonempty))
        diag, off, _ = _spd_blocks(np.random.default_rng(seed), sizes)
        # the pivot D_j is at most the diagonal block B_j, so this shift
        # makes D_j negative definite while every earlier pivot is untouched
        diag[j] = diag[j] - (np.linalg.eigvalsh(diag[j])[-1] + 1.0) * np.eye(sizes[j])
        with pytest.raises(ss.NotPositiveDefiniteError) as info:
            ss.logdet_block_tridiagonal_blocks(diag, off)
        assert info.value.block_index == j
        assert np.linalg.eigvalsh(info.value.pivot)[0] < 0

    @given(sizes=SIZES, seed=SEEDS, data=st.data())
    def test_nan_anywhere_raises(self, sizes, seed, data):
        diag, off, _ = _spd_blocks(np.random.default_rng(seed), sizes)
        blocks = [("diag", k) for k, b in enumerate(diag) if b.size]
        blocks += [("off", k) for k, b in enumerate(off) if b.size]
        if not blocks:
            return
        kind, k = data.draw(st.sampled_from(blocks))
        owner = diag if kind == "diag" else off
        target = owner[k] = owner[k].copy()
        r = data.draw(st.integers(0, target.shape[0] - 1))
        c = data.draw(st.integers(0, target.shape[1] - 1))
        target[r, c] = np.nan
        if kind == "diag":
            target[c, r] = np.nan  # a diagonal block stands for both triangles
        with pytest.raises(ss.NotPositiveDefiniteError):
            ss.logdet_block_tridiagonal_blocks(diag, off)


class TestConstruction:
    def test_diag_blocks_symmetrized(self):
        M = ss.BlockTridiagonalMatrix(
            diag_blocks=(np.array([[2.0, 1.0], [0.0, 2.0]]),), offdiag_blocks=()
        )
        np.testing.assert_allclose(M.diag_blocks[0], [[2.0, 0.5], [0.5, 2.0]])

    def test_assembled_is_symmetric(self):
        rng = np.random.default_rng(23)
        M, dense = random_spd_block_tridiag(rng, 2, 5)
        np.testing.assert_allclose(dense, dense.T)
        np.testing.assert_allclose(M.assemble(), M.assemble().T)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(29)
        M, dense = random_spd_block_tridiag(rng, 3, 4)
        v = rng.standard_normal(12)
        np.testing.assert_allclose(M.matvec(v), dense @ v, rtol=1e-12)

    def test_block_count_mismatch_raises(self):
        with pytest.raises(ss.DimensionMismatchError):
            ss.BlockTridiagonalMatrix(
                diag_blocks=(np.eye(2), np.eye(2)), offdiag_blocks=()
            )

    def test_blocks_are_immutable(self):
        M = ss.BlockTridiagonalMatrix.identity(2, 2)
        with pytest.raises(ValueError):
            M.diag_blocks[0][0, 0] = 5.0
