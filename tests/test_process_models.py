"""Prior builders against dense propagation and eigenvalue oracles."""

import math

import numpy as np
import pytest

import sensorsched as ss
from conftest import propagated_batch_covariance, random_spd, random_stable_system


class TestTrackingPrior:
    def test_uncorrelated_is_identity(self):
        prior = ss.build_tracking_prior(1, 2, marginal_var=1.0, neighbor_corr=0.0)
        np.testing.assert_allclose(prior.assembled(), np.eye(2))
        assert prior.form == ss.PriorForm.COVARIANCE_SPARSE

    def test_correlated_two_step(self):
        prior = ss.build_tracking_prior(1, 2, marginal_var=1.0, neighbor_corr=0.5)
        np.testing.assert_allclose(prior.assembled(), [[1.0, 0.5], [0.5, 1.0]])
        assert prior.matrix_logdet == pytest.approx(math.log(0.75), abs=1e-12)

    def test_definiteness_matches_eigenvalue_oracle(self):
        # construction succeeds exactly when the dense eigenvalue oracle
        # says the assembled covariance is positive definite
        for K, corr in [(2, 0.9), (3, 0.45), (3, 0.9), (3, 0.99), (5, 0.6)]:
            dense = np.eye(K) + corr * (np.eye(K, k=1) + np.eye(K, k=-1))
            spd = np.linalg.eigvalsh(dense)[0] > 0
            if spd:
                prior = ss.build_tracking_prior(1, K, marginal_var=1.0, neighbor_corr=corr)
                np.testing.assert_allclose(prior.assembled(), dense)
            else:
                with pytest.raises(ss.NotPositiveDefiniteError):
                    ss.build_tracking_prior(1, K, marginal_var=1.0, neighbor_corr=corr)

    def test_parameter_validation(self):
        with pytest.raises(ss.NotPositiveDefiniteError):
            ss.build_tracking_prior(1, 2, marginal_var=-1.0, neighbor_corr=0.0)
        with pytest.raises(ss.NotPositiveDefiniteError):
            ss.build_tracking_prior(1, 2, marginal_var=1.0, neighbor_corr=1.5)

    def test_zero_corr_entropy_is_sum_of_blocks(self):
        n, K = 2, 4
        prior = ss.build_tracking_prior(n, K, marginal_var=1.7, neighbor_corr=0.0)
        one = ss.build_tracking_prior(n, 1, marginal_var=1.7, neighbor_corr=0.0)
        assert ss.prior_entropy(prior) == pytest.approx(
            K * ss.prior_entropy(one), rel=1e-12
        )


class TestGaussMarkovPrior:
    def test_zero_dynamics_gives_identity_precision(self):
        prior = ss.build_gauss_markov_prior(
            A=np.array([[0.0]]), Q=np.eye(1), Sigma0=np.eye(1), K=2
        )
        np.testing.assert_allclose(prior.assembled(), np.eye(2))
        assert prior.form == ss.PriorForm.PRECISION_SPARSE

    def test_scalar_half_dynamics(self):
        prior = ss.build_gauss_markov_prior(
            A=np.array([[0.5]]), Q=np.eye(1), Sigma0=np.eye(1), K=2
        )
        np.testing.assert_allclose(prior.assembled(), [[1.25, -0.5], [-0.5, 1.0]])
        np.testing.assert_allclose(
            np.linalg.inv(prior.assembled()), [[1.0, 0.5], [0.5, 1.25]], rtol=1e-12
        )

    def test_seeded_precision_inverse_matches_propagation(self):
        rng = np.random.default_rng(101)
        A = random_stable_system(rng, 2)
        Q = random_spd(rng, 2, scale=0.4)
        Sigma0 = random_spd(rng, 2, scale=0.4)
        prior = ss.build_gauss_markov_prior(A, Q, Sigma0, K=4)
        oracle = propagated_batch_covariance(A, Q, Sigma0, K=4)
        got = np.linalg.inv(prior.assembled())
        np.testing.assert_allclose(got, oracle, rtol=1e-9, atol=1e-11)

    def test_propagation_sweep(self):
        rng = np.random.default_rng(202)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            K = int(rng.integers(1, 6))
            A = random_stable_system(rng, n)
            Q = random_spd(rng, n, scale=0.5)
            Sigma0 = random_spd(rng, n, scale=0.5)
            prior = ss.build_gauss_markov_prior(A, Q, Sigma0, K=K)
            oracle = propagated_batch_covariance(A, Q, Sigma0, K)
            got = np.linalg.inv(prior.assembled())
            err = np.max(np.abs(got - oracle)) / max(1.0, np.max(np.abs(oracle)))
            assert err <= 1e-9

    def test_mean_propagation(self):
        A = np.array([[0.5, 0.1], [0.0, 0.9]])
        mu0 = np.array([1.0, -2.0])
        prior = ss.build_gauss_markov_prior(A, np.eye(2), np.eye(2), mu0=mu0, K=3)
        np.testing.assert_allclose(prior.mean[:2], mu0)
        np.testing.assert_allclose(prior.mean[2:4], A @ mu0)
        np.testing.assert_allclose(prior.mean[4:], A @ A @ mu0)

    def test_indefinite_noise_raises(self):
        with pytest.raises(ss.NotPositiveDefiniteError):
            ss.build_gauss_markov_prior(
                A=np.eye(1), Q=np.array([[-1.0]]), Sigma0=np.eye(1), K=2
            )


class TestPriorEntropy:
    def test_standard_scalar(self):
        prior = ss.build_dense_prior(1, 1, np.array([[1.0]]))
        assert ss.prior_entropy(prior) == pytest.approx(1.41894, abs=1e-5)

    def test_two_dim_identity(self):
        prior = ss.build_dense_prior(2, 1, np.eye(2))
        assert ss.prior_entropy(prior) == pytest.approx(2.83788, abs=1e-5)

    def test_gauss_markov_matches_dense_oracle(self):
        prior = ss.build_gauss_markov_prior(
            A=np.array([[0.5]]), Q=np.eye(1), Sigma0=np.eye(1), K=2
        )
        cov = np.array([[1.0, 0.5], [0.5, 1.25]])
        oracle = 0.5 * 2 * math.log(2 * math.pi * math.e) + 0.5 * np.linalg.slogdet(cov)[1]
        assert ss.prior_entropy(prior) == pytest.approx(oracle, rel=1e-12)

    def test_invariant_under_form_conversion(self):
        rng = np.random.default_rng(33)
        cov = random_spd(rng, 6, scale=0.4)
        as_cov = ss.build_dense_prior(2, 3, cov, "covariance")
        as_prec = ss.build_dense_prior(2, 3, np.linalg.inv(cov), "precision")
        assert ss.prior_entropy(as_cov) == pytest.approx(
            ss.prior_entropy(as_prec), rel=1e-9
        )


class TestDensify:
    def test_preserves_gaussian_and_representation(self):
        prior = ss.build_tracking_prior(2, 3, marginal_var=1.0, neighbor_corr=0.3)
        dense = ss.densify(prior)
        assert dense.form == ss.PriorForm.COVARIANCE_DENSE
        np.testing.assert_allclose(dense.assembled(), prior.assembled())
        np.testing.assert_allclose(dense.mean, prior.mean)

        gm = ss.build_gauss_markov_prior(np.eye(1) * 0.5, np.eye(1), np.eye(1), K=2)
        assert ss.densify(gm).form == ss.PriorForm.PRECISION_DENSE

    def test_dense_input_is_a_no_op(self):
        prior = ss.build_dense_prior(1, 2, np.eye(2))
        assert ss.densify(prior) is prior


class TestDenseConversion:
    @pytest.mark.parametrize("kind", ["tracking", "gauss_markov"])
    def test_converted_once_and_read_only(self, kind):
        if kind == "tracking":
            prior = ss.build_tracking_prior(2, 3, marginal_var=1.0, neighbor_corr=0.3)
        else:
            prior = ss.build_gauss_markov_prior(np.eye(1) * 0.5, np.eye(1), np.eye(1), K=3)
        for convert in (prior.covariance_dense, prior.precision_dense):
            first = convert()
            assert convert() is first
            assert not first.flags.writeable
        np.testing.assert_allclose(
            prior.covariance_dense() @ prior.precision_dense(), np.eye(prior.dim), atol=1e-12
        )


class TestValidation:
    def test_mean_length_checked(self):
        with pytest.raises(ss.DimensionMismatchError):
            ss.GaussianPrior(
                n=1, K=2, mean=np.zeros(3),
                matrix=np.eye(2), form=ss.PriorForm.COVARIANCE_DENSE,
            )

    def test_sparse_form_requires_block_matrix(self):
        with pytest.raises(ss.DimensionMismatchError):
            ss.GaussianPrior(
                n=1, K=2, mean=np.zeros(2),
                matrix=np.eye(2), form=ss.PriorForm.COVARIANCE_SPARSE,
            )

    def test_stored_matrix_must_be_spd(self):
        with pytest.raises(ss.NotPositiveDefiniteError):
            ss.build_dense_prior(1, 2, np.array([[1.0, 2.0], [2.0, 1.0]]))


def _one_at(shape, index, value):
    out = np.eye(*shape) if len(shape) == 2 else np.zeros(shape)
    out[index] = value
    return out


# each prior input with a NaN or an infinity, and the error naming it; the
# check comes before any arithmetic on the input, so no RuntimeWarning
# (an error under this suite's warning filter) is emitted first
NON_FINITE_PRIOR_INPUTS = {
    "GaussianPrior-mean": (lambda: ss.GaussianPrior(
        n=1, K=2, mean=[0.0, math.nan], matrix=np.eye(2), form=ss.PriorForm.COVARIANCE_DENSE),
        ss.InvalidParamsError, "^mean is not finite$"),
    "tracking-mean": (lambda: ss.build_tracking_prior(
        2, 3, 1.0, 0.4, mean=_one_at((6,), 0, math.nan)),
        ss.InvalidParamsError, "^mean is not finite$"),
    "dense-mean": (lambda: ss.build_dense_prior(1, 2, np.eye(2), mean=[math.inf, 0.0]),
                   ss.InvalidParamsError, "^mean is not finite$"),
    "tracking-marginal_var-nan": (lambda: ss.build_tracking_prior(2, 3, math.nan, 0.4),
                                  ss.NotPositiveDefiniteError,
                                  "^marginal_var must be positive and finite, got nan$"),
    "tracking-marginal_var-inf": (lambda: ss.build_tracking_prior(2, 3, math.inf, 0.4),
                                  ss.NotPositiveDefiniteError,
                                  "^marginal_var must be positive and finite, got inf$"),
    "gauss_markov-A": (lambda: ss.build_gauss_markov_prior(
        _one_at((2, 2), (0, 1), math.inf), np.eye(2), np.eye(2), K=3),
        ss.InvalidParamsError, "^A is not finite$"),
    "gauss_markov-Q": (lambda: ss.build_gauss_markov_prior(
        np.eye(2), _one_at((2, 2), (1, 1), math.nan), np.eye(2), K=3),
        ss.InvalidParamsError, "^Q is not finite$"),
    "gauss_markov-Sigma0": (lambda: ss.build_gauss_markov_prior(
        np.eye(2), np.eye(2), _one_at((2, 2), (0, 0), math.inf), K=3),
        ss.InvalidParamsError, "^Sigma0 is not finite$"),
    "gauss_markov-mu0": (lambda: ss.build_gauss_markov_prior(
        np.eye(2), np.eye(2), np.eye(2), mu0=[math.inf, 0.0], K=3),
        ss.InvalidParamsError, "^mu0 is not finite$"),
    "dense-matrix": (lambda: ss.build_dense_prior(1, 2, [[math.nan, 0.0], [0.0, 1.0]]),
                     ss.InvalidParamsError, "^matrix is not finite$"),
    "sparse-matrix": (lambda: ss.GaussianPrior(
        n=2, K=2, mean=np.zeros(4), form=ss.PriorForm.COVARIANCE_SPARSE,
        matrix=ss.BlockTridiagonalMatrix([np.eye(2), _one_at((2, 2), (1, 1), math.inf)],
                                         [np.zeros((2, 2))])),
        ss.InvalidParamsError, "^matrix is not finite$"),
}


@pytest.mark.parametrize("case", list(NON_FINITE_PRIOR_INPUTS))
def test_non_finite_prior_input_raises_naming_it(case):
    build, error, message = NON_FINITE_PRIOR_INPUTS[case]
    with pytest.raises(error, match=message):
        build()
