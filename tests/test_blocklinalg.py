"""Block-tridiagonal linear algebra against dense factorization oracles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sensorsched as ss
from conftest import random_spd_block_tridiag
from sensorsched import blocklinalg


def _logdet(M):
    return ss.logdet_block_tridiagonal_blocks(M.diag_blocks, M.offdiag_blocks)


class TestLogdetBlockTridiagonal:
    def test_identity(self):
        M = ss.BlockTridiagonalMatrix.identity(2, 3)
        assert _logdet(M) == 0.0

    def test_scalar_diagonal_blocks(self):
        M = ss.BlockTridiagonalMatrix(
            diag_blocks=([[2.0]], [[2.0]], [[2.0]]),
            offdiag_blocks=([[0.0]], [[0.0]]),
        )
        assert _logdet(M) == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_seeded_instance_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        M, dense = random_spd_block_tridiag(rng, n=2, K=4)
        sign, oracle = np.linalg.slogdet(dense)
        assert sign > 0
        assert _logdet(M) == pytest.approx(oracle, rel=1e-10)

    def test_random_sweep_against_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            K = int(rng.integers(1, 9))
            M, dense = random_spd_block_tridiag(rng, n, K)
            sign, oracle = np.linalg.slogdet(dense)
            assert sign > 0
            got = _logdet(M)
            assert abs(got - oracle) <= 1e-9 * max(1.0, abs(oracle))

    def test_indefinite_raises(self):
        # off-diagonal coupling dominates: assembled [[1, 2], [2, 1]] has a
        # negative eigenvalue, caught at the second pivot
        M = ss.BlockTridiagonalMatrix(
            diag_blocks=([[1.0]], [[1.0]]), offdiag_blocks=([[2.0]],)
        )
        assert np.linalg.eigvalsh(M.assemble())[0] < 0
        with pytest.raises(ss.NotPositiveDefiniteError):
            _logdet(M)

    def test_negative_first_pivot_raises(self):
        M = ss.BlockTridiagonalMatrix(diag_blocks=([[-1.0]],), offdiag_blocks=())
        with pytest.raises(ss.NotPositiveDefiniteError):
            _logdet(M)

    def test_pivot_success_iff_assembled_spd(self):
        # both directions: the factorization succeeds exactly when the
        # assembled matrix is positive definite
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
                _logdet(M)
            else:
                with pytest.raises(ss.NotPositiveDefiniteError):
                    _logdet(M)

    def test_empty_blocks_give_zero_and_ragged_blocks_raise(self):
        # the covariance form of an empty schedule hands over (K, 0, 0) stacks
        for K in (1, 3):
            diag, off = np.zeros((K, 0, 0)), np.zeros((K - 1, 0, 0))
            assert ss.logdet_block_tridiagonal_blocks(diag, off) == 0.0
        with pytest.raises(ss.DimensionMismatchError, match="do not form a stack"):
            ss.logdet_block_tridiagonal_blocks([np.eye(2), np.eye(1)], [np.zeros((2, 1))])
        with pytest.raises(ss.DimensionMismatchError, match="do not fit"):
            ss.logdet_block_tridiagonal_blocks(np.ones((3, 2, 2)), np.zeros((3, 2, 2)))


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


def _band_solve(M, b):
    """The MAP's solve, on the block stacks of M."""
    return blocklinalg._band_solve(M.diag_blocks, M.offdiag_blocks, b)


class TestSolveBlockTridiagonal:
    def test_identity(self):
        M = ss.BlockTridiagonalMatrix.identity(2, 3)
        b = np.arange(6.0)
        np.testing.assert_allclose(_band_solve(M, b), b)

    def test_scalar_diagonal(self):
        M = ss.BlockTridiagonalMatrix(
            diag_blocks=([[2.0]], [[2.0]]), offdiag_blocks=([[0.0]],)
        )
        np.testing.assert_allclose(
            _band_solve(M, np.array([2.0, 4.0])), [1.0, 2.0]
        )

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            K = int(rng.integers(1, 7))
            M, dense = random_spd_block_tridiag(rng, n, K)
            b = rng.standard_normal(n * K)
            x = _band_solve(M, b)
            np.testing.assert_allclose(x, np.linalg.solve(dense, b), rtol=1e-8, atol=1e-10)

    def test_residual_bound(self):
        rng = np.random.default_rng(17)
        M, dense = random_spd_block_tridiag(rng, 3, 6)
        b = rng.standard_normal(18)
        x = _band_solve(M, b)
        residual = np.linalg.norm(dense @ x - b)
        bound = 1e-10 * (
            np.linalg.norm(dense) * np.linalg.norm(x) + np.linalg.norm(b)
        )
        assert residual <= bound

    def test_indefinite_raises(self):
        M = ss.BlockTridiagonalMatrix(
            diag_blocks=([[1.0]], [[1.0]]), offdiag_blocks=([[2.0]],)
        )
        with pytest.raises(ss.NotPositiveDefiniteError):
            _band_solve(M, np.ones(2))


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
            lambda: _band_solve(INDEFINITE_BLOCKS, np.ones(2)),
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
            (lambda M: _band_solve(M, np.ones(M.shape[0])), 2),
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
        for routine, factor in (
            ("dpbtrf", lambda: ss.logdet_block_tridiagonal_blocks(
                [np.eye(2)], np.zeros((0, 2, 2)))),
            ("dpbtrf", lambda: _band_solve(ss.BlockTridiagonalMatrix.identity(2, 2), np.ones(4))),
            ("dpotrf", lambda: ss.logdet_dense(np.eye(2))),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(blocklinalg, routine, lambda a, **kw: (a, -1))
                with pytest.raises(RuntimeError, match="info=-1"):
                    factor()

    def test_wide_block_pivot_is_the_schur_complement(self):
        # 40 x 40 blocks give a half-bandwidth of 79, where LAPACK factors
        # the band in panels; the reported pivot must still be the Schur
        # complement of the leading blocks
        p, K = 40, 4
        diag, off, _ = _spd_blocks(np.random.default_rng(43), p, K)
        diag[-1] = diag[-1] - (np.linalg.eigvalsh(diag[-1])[-1] + 1.0) * np.eye(p)
        A = ss.BlockTridiagonalMatrix(tuple(diag), tuple(off)).assemble()
        lead, row = A[:-p, :-p], A[-p:, :-p]
        schur = A[-p:, -p:] - row @ np.linalg.solve(lead, row.T)
        with pytest.raises(ss.NotPositiveDefiniteError) as info:
            ss.logdet_block_tridiagonal_blocks(diag, off)
        assert info.value.block_index == K - 1
        np.testing.assert_allclose(info.value.pivot, schur, rtol=1e-9, atol=1e-9)

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


def _spd_blocks(rng, n, K):
    """``random_spd_block_tridiag`` as fresh, writable block stacks, plus
    the dense assembly; n = 0 allowed."""
    M, A = random_spd_block_tridiag(rng, n, K)
    return M.diag_blocks.copy(), M.offdiag_blocks.copy(), A


SEEDS = st.integers(0, 2**32 - 1)


class TestKernelProperties:
    @given(n=st.integers(0, 3), K=st.integers(1, 6), seed=SEEDS)
    def test_logdet_matches_slogdet(self, n, K, seed):
        diag, off, A = _spd_blocks(np.random.default_rng(seed), n, K)
        sign, oracle = np.linalg.slogdet(A)
        assert sign == 1
        got = ss.logdet_block_tridiagonal_blocks(diag, off)
        assert abs(got - oracle) <= 1e-9 * max(1.0, abs(oracle))

    @given(n=st.integers(0, 3), K=st.integers(2, 6), seed=SEEDS)
    def test_stacked_input_matches_block_lists(self, n, K, seed):
        # lists of equal blocks are the stacks np.asarray makes of them
        diag, off, _ = _spd_blocks(np.random.default_rng(seed), n, K)
        stacked = ss.logdet_block_tridiagonal_blocks(diag, off)
        assert stacked == ss.logdet_block_tridiagonal_blocks(list(diag), list(off))

    @given(n=st.integers(1, 3), K=st.integers(1, 6), seed=SEEDS)
    def test_solve_matches_numpy(self, n, K, seed):
        rng = np.random.default_rng(seed)
        diag, off, A = _spd_blocks(rng, n, K)
        b = rng.standard_normal(n * K)
        got = _band_solve(ss.BlockTridiagonalMatrix(diag, off), b)
        oracle = np.linalg.solve(A, b)
        assert np.linalg.norm(got - oracle) <= 1e-9 * np.linalg.norm(oracle)

    @given(n=st.integers(0, 3), K=st.integers(1, 6), seed=SEEDS, data=st.data())
    def test_indefinite_block_raises_with_its_index(self, n, K, seed, data):
        if not n:
            return
        j = data.draw(st.integers(0, K - 1))
        diag, off, _ = _spd_blocks(np.random.default_rng(seed), n, K)
        # the pivot D_j is at most the diagonal block B_j, so this shift
        # makes D_j negative definite while every earlier pivot is untouched
        diag[j] = diag[j] - (np.linalg.eigvalsh(diag[j])[-1] + 1.0) * np.eye(n)
        with pytest.raises(ss.NotPositiveDefiniteError) as info:
            ss.logdet_block_tridiagonal_blocks(diag, off)
        assert info.value.block_index == j
        assert np.linalg.eigvalsh(info.value.pivot)[0] < 0

    @given(n=st.integers(0, 3), K=st.integers(1, 6), seed=SEEDS, data=st.data())
    def test_nan_anywhere_raises(self, n, K, seed, data):
        if not n:
            return
        diag, off, _ = _spd_blocks(np.random.default_rng(seed), n, K)
        blocks = [("diag", k) for k in range(K)] + [("off", k) for k in range(K - 1)]
        kind, k = data.draw(st.sampled_from(blocks))
        target = (diag if kind == "diag" else off)[k]  # a view into the fresh stack
        r = data.draw(st.integers(0, n - 1))
        c = data.draw(st.integers(0, n - 1))
        target[r, c] = np.nan
        if kind == "diag":
            target[c, r] = np.nan  # a diagonal block stands for both triangles
        with pytest.raises(ss.NotPositiveDefiniteError):
            ss.logdet_block_tridiagonal_blocks(diag, off)


class TestBandPositions:
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_fewer_blocks_are_a_prefix_of_more(self, p):
        # a block's band positions do not depend on how many blocks follow,
        # so every K's positions are the leading entries of a larger K's
        largest = blocklinalg._band_table(50, p)
        for K in range(1, 51):
            own = blocklinalg._band_table(K, p)
            got = blocklinalg._band_positions(K, p)
            for a, b, c in zip(own, got, largest):
                assert np.array_equal(a, b) and np.array_equal(a, c[:len(a)])
                assert not b.flags.writeable

    def test_rising_k_rebuilds_the_table_a_logarithmic_number_of_times(self, monkeypatch):
        # a receding run factors one prefix band per step, K = 1, 2, ...; a
        # table that grows by doubling is built at most 9 times up to K = 200
        monkeypatch.setattr(blocklinalg, "_band_tables", {})
        built = []
        real = blocklinalg._band_table
        monkeypatch.setattr(blocklinalg, "_band_table", lambda K, p: built.append(K) or real(K, p))
        for K in range(1, 201):
            assert all(np.array_equal(a, b) for a, b in
                       zip(blocklinalg._band_positions(K, 2), real(K, 2)))
        assert len(built) <= 9 and built[-1] >= 200
        blocklinalg._band_positions(7, 2)  # a smaller K reads the same table
        assert len(built) <= 9 and blocklinalg._band_tables[2][0] == built[-1]


class TestConstruction:
    def test_diag_blocks_symmetrized(self):
        M = ss.BlockTridiagonalMatrix(
            diag_blocks=(np.array([[2.0, 1.0], [0.0, 2.0]]),), offdiag_blocks=()
        )
        np.testing.assert_allclose(M.diag_blocks[0], [[2.0, 0.5], [0.5, 2.0]])

    @pytest.mark.parametrize("diag, off", [
        ([[[1.0, np.inf], [-np.inf, 1.0]]], []),
        ([np.eye(2), np.eye(2)], [[[0.0, np.nan], [0.0, 0.0]]]),
    ], ids=["diagonal", "off-diagonal"])
    def test_non_finite_block_raises_before_symmetrizing(self, diag, off):
        # inf and -inf in transposed places would make 0.5 (D + D^T) warn
        # "invalid value", an error under the suite's warning filter
        with pytest.raises(ss.InvalidParamsError, match="^matrix is not finite$"):
            ss.BlockTridiagonalMatrix(diag, off)

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

    @given(n=st.integers(1, 5), K=st.integers(1, 39), seed=SEEDS)
    def test_matvec_matches_the_assembled_product(self, n, K, seed):
        # and, bit for bit, a loop over the steps that adds each step's
        # diagonal, lower and upper products in that order
        rng = np.random.default_rng(seed)
        M = ss.BlockTridiagonalMatrix(diag_blocks=tuple(rng.standard_normal((K, n, n))),
                                      offdiag_blocks=tuple(rng.standard_normal((K - 1, n, n))))
        v = rng.standard_normal(n * K)
        parts = v.reshape(K, n)
        loop = np.empty_like(parts)
        for k in range(K):
            acc = M.diag_blocks[k] @ parts[k]
            if k > 0:
                acc = acc + M.offdiag_blocks[k - 1].T @ parts[k - 1]
            if k < K - 1:
                acc = acc + M.offdiag_blocks[k] @ parts[k + 1]
            loop[k] = acc
        assert np.array_equal(M.matvec(v), loop.reshape(-1))
        np.testing.assert_allclose(M.matvec(v), M.assemble() @ v, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("v", [np.zeros(5), np.zeros((2, 3)), np.zeros(7)],
                             ids=["short", "2-d", "long"])
    def test_matvec_of_the_wrong_shape_raises(self, v):
        M = ss.BlockTridiagonalMatrix.identity(3, 2)
        with pytest.raises(ss.DimensionMismatchError, match=r"expected \(6,\)"):
            M.matvec(v)

    def test_block_count_mismatch_raises(self):
        with pytest.raises(ss.DimensionMismatchError):
            ss.BlockTridiagonalMatrix(
                diag_blocks=(np.eye(2), np.eye(2)), offdiag_blocks=()
            )

    def test_scalar_blocks_raise_naming_their_shape(self):
        with pytest.raises(ss.DimensionMismatchError,
                           match=re.escape("block 0 has shape (), expected a square 2-D block")):
            ss.BlockTridiagonalMatrix(diag_blocks=[1.0, 2.0], offdiag_blocks=[0.5])

    def test_blocks_are_immutable(self):
        M = ss.BlockTridiagonalMatrix.identity(2, 2)
        with pytest.raises(ValueError):
            M.diag_blocks[0][0, 0] = 5.0
