import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, solve_triangular
from scipy.stats import multivariate_normal, norm

import kec.lda
from kec.errors import (
    ClassAbsent,
    DimensionMismatch,
    InvalidParams,
    NotFitted,
    SingularCovariance,
)
from kec.lda import LdaModel, discriminant_scores, fit_lda, posterior, predict


def _two_blob_model(rng, m=200, delta=4.0):
    y = np.tile([1, 2], m // 2)
    z = rng.normal(size=(m, 2)) + np.where(y == 1, -delta, delta)[:, None]
    return fit_lda(z, y, 2), z, y


class TestFit:
    def test_symmetric_classes_split_at_midpoint(self):
        rng = np.random.default_rng(0)
        y = np.tile([1, 2], 100)
        z = np.where(y == 1, -1.0, 1.0)[:, None] + 1e-3 * rng.normal(
            size=(200, 1)
        )
        model = fit_lda(z, y, 2)
        assert model.priors.tolist() == [0.5, 0.5]
        assert predict(model, [[-0.1]]).tolist() == [1]
        assert predict(model, [[0.1]]).tolist() == [2]

    def test_identical_means_fall_back_to_priors(self):
        z = np.array([[-1.0], [1.0], [-1.0], [1.0], [-1.0], [1.0]])
        y = np.array([1, 1, 2, 2, 2, 2])
        model = fit_lda(z, y, 2)
        assert np.array_equal(model.means, np.zeros((2, 1)))
        rng = np.random.default_rng(1)
        labels = predict(model, rng.normal(size=(50, 1)))
        assert np.all(labels == 2)  # larger prior wins everywhere

    def test_monte_carlo_recovers_generating_means(self):
        rng = np.random.default_rng(2)
        mu = np.array([[1.0, 2.0], [3.0, 1.0]])
        cov = np.array([[1.0, 0.3], [0.3, 0.8]])
        chol = np.linalg.cholesky(cov)
        y = np.tile([1, 2], 2500)
        z = mu[y - 1] + rng.normal(size=(5000, 2)) @ chol.T
        model = fit_lda(z, y, 2)
        for k in range(2):
            rel = np.linalg.norm(model.means[k] - mu[k]) / np.linalg.norm(mu[k])
            assert rel < 0.05
        assert np.allclose(model.pooled_cov, cov, atol=0.1)

    def test_pooled_cov_symmetric_positive_definite(self):
        rng = np.random.default_rng(3)
        model, _, _ = _two_blob_model(rng)
        assert np.allclose(model.pooled_cov, model.pooled_cov.T, atol=1e-12)
        ridged = model.pooled_cov + model.ridge * np.eye(model.dim)
        assert np.all(np.linalg.eigvalsh(ridged) > 0)

    def test_class_absent(self):
        with pytest.raises(ClassAbsent):
            fit_lda(np.zeros((4, 2)), [1, 1, 1, 1], 2)

    def test_too_few_rows(self):
        with pytest.raises(InvalidParams):
            fit_lda(np.zeros((2, 2)), [1, 2], 2)

    def test_degenerate_data_is_singular(self):
        z = np.ones((10, 2))
        y = np.tile([1, 2], 5)
        with pytest.raises(SingularCovariance):
            fit_lda(z, y, 2)


class TestDerivedState:
    def _model(self, seed=12, k=4, d=4, m=300):
        rng = np.random.default_rng(seed)
        y = np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, m - k)])
        mix = rng.normal(size=(d, d)) + 3.0 * np.eye(d)
        z = rng.normal(size=(m, d)) @ mix + rng.normal(0.0, 2.0, (k, d))[y - 1]
        return fit_lda(z, y, k), rng

    def test_factor_whitening_and_log_priors(self):
        model, _ = self._model()
        d = model.dim
        cov = model.pooled_cov + model.ridge * np.eye(d)
        assert np.array_equal(model.chol, np.tril(model.chol))
        assert np.allclose(model.chol @ model.chol.T, cov, rtol=1e-12, atol=0)
        assert np.allclose(model.whiten @ model.chol, np.eye(d), atol=1e-12)
        assert np.array_equal(model.log_priors, np.log(model.priors))

    @pytest.mark.parametrize("d", [1, 2, 7, 30])
    def test_lower_inverse_matches_triangular_solve(self, d):
        rng = np.random.default_rng(d)
        chol = np.tril(rng.normal(size=(d, d))) + 4.0 * np.eye(d)
        inv = kec.lda._lower_inverse(chol)
        ref = solve_triangular(chol, np.eye(d), lower=True)
        assert np.array_equal(inv, np.tril(inv))
        assert np.allclose(inv, ref, rtol=1e-13, atol=1e-15)

    def test_scores_match_cho_solve_reference(self):
        model, rng = self._model()
        z = rng.normal(0.0, 4.0, size=(50, model.dim))
        factor = cho_factor(model.pooled_cov + model.ridge * np.eye(model.dim))
        ref = np.empty((z.shape[0], model.num_classes))
        for c in range(model.num_classes):
            diff = z - model.means[c]
            maha = np.sum(diff * cho_solve(factor, diff.T).T, axis=1)
            ref[:, c] = np.log(model.priors[c]) - 0.5 * maha
        got = discriminant_scores(model, z)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-10

    def test_rows_score_alone_as_in_a_batch(self):
        model, rng = self._model()
        z = rng.normal(size=(40, model.dim))
        full = posterior(model, z)
        for lo, hi in ((0, 1), (7, 8), (3, 11), (0, 40), (39, 40)):
            assert posterior(model, z[lo:hi]).tobytes() == full[lo:hi].tobytes()

    def test_non_positive_definite_covariance_rejected(self):
        with pytest.raises(SingularCovariance):
            LdaModel(
                means=np.zeros((2, 2)),
                pooled_cov=np.array([[1.0, 2.0], [2.0, 1.0]]),
                priors=np.array([0.5, 0.5]),
                ridge=0.0,
            )

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("priors", np.array([1.0]), DimensionMismatch),
            ("means", np.zeros((1, 2)), DimensionMismatch),
            ("pooled_cov", np.eye(3), DimensionMismatch),
            ("priors", np.array([1.5, -0.5]), InvalidParams),
            ("priors", np.array([0.5, 0.6]), InvalidParams),
            ("means", np.array([[0.0, np.nan], [1.0, 1.0]]), InvalidParams),
            ("ridge", -1.0, InvalidParams),
        ],
    )
    def test_invalid_parameters_rejected(self, field, value, error):
        params = dict(
            means=np.array([[0.0, 0.0], [1.0, 1.0]]),
            pooled_cov=np.eye(2),
            priors=np.array([0.5, 0.5]),
            ridge=0.0,
        )
        LdaModel(**params)
        params[field] = value
        with pytest.raises(error):
            LdaModel(**params)


class TestPosterior:
    def test_rows_are_probabilities(self):
        rng = np.random.default_rng(4)
        model, z, _ = _two_blob_model(rng)
        post = posterior(model, z)
        assert np.all(post >= 0) and np.all(post <= 1)
        assert np.allclose(post.sum(axis=1), 1.0, atol=1e-9)

    def test_class_mean_maps_to_its_class(self):
        rng = np.random.default_rng(5)
        model, _, _ = _two_blob_model(rng)
        post = posterior(model, model.means)
        assert np.argmax(post, axis=1).tolist() == [0, 1]

    def test_equidistant_point_splits_evenly(self):
        # class 2 is the exact negation of class 1, so the origin is
        # Mahalanobis-equidistant from both means with equal priors
        rng = np.random.default_rng(11)
        a = rng.normal(size=(20, 2)) + np.array([2.0, 0.5])
        z = np.vstack([a, -a])
        y = np.array([1] * 20 + [2] * 20)
        model = fit_lda(z, y, 2)
        post = posterior(model, [[0.0, 0.0]])
        assert post[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert post[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_matches_density_ratio_oracle(self):
        rng = np.random.default_rng(6)
        model, _, _ = _two_blob_model(rng, m=60, delta=1.0)
        znew = rng.normal(size=(40, 2)) * 2.0
        cov = model.pooled_cov + model.ridge * np.eye(2)
        dens = np.column_stack(
            [
                model.priors[k]
                * multivariate_normal.pdf(znew, mean=model.means[k], cov=cov)
                for k in range(2)
            ]
        )
        oracle = dens / dens.sum(axis=1, keepdims=True)
        assert np.allclose(posterior(model, znew), oracle, atol=1e-9)

    def test_not_fitted(self):
        with pytest.raises(NotFitted):
            posterior(None, np.zeros((2, 2)))


class TestPredict:
    def test_argmax_semantics_and_tie_break(self):
        rng = np.random.default_rng(7)
        model, _, _ = _two_blob_model(rng)
        post = posterior(model, model.means)
        assert np.argmax(post, axis=1).tolist() == [0, 1]
        # exact tie goes to the smaller class index
        tied = np.array([[0.5, 0.5], [0.1, 0.9]])
        assert (np.argmax(tied, axis=1) + 1).tolist() == [1, 2]
        a = rng.normal(size=(15, 2)) + np.array([1.5, -0.5])
        z = np.vstack([a, -a])
        y = np.array([1] * 15 + [2] * 15)
        m = fit_lda(z, y, 2)
        assert predict(m, [[0.0, 0.0]]).tolist() == [1]

    def test_separable_training_data_has_zero_error(self):
        rng = np.random.default_rng(8)
        model, z, y = _two_blob_model(rng, delta=6.0)
        assert np.array_equal(predict(model, z), y)

    def test_argmax_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(9)
        model, z, _ = _two_blob_model(rng)
        post = posterior(model, z)
        scaled = post * rng.uniform(0.5, 3.0, size=(post.shape[0], 1))
        assert np.array_equal(
            np.argmax(post, axis=1), np.argmax(scaled, axis=1)
        )


class TestBayesOptimality:
    def test_error_close_to_analytic_bayes_error(self):
        # two unit-variance 1-D Gaussians two apart: Bayes error = Phi(-1)
        rng = np.random.default_rng(10)
        n = 10000
        y = rng.integers(1, 3, size=n)
        z = rng.normal(size=(n, 1)) + np.where(y == 1, 0.0, 2.0)[:, None]
        model = fit_lda(z, y, 2)
        y_test = rng.integers(1, 3, size=n)
        z_test = rng.normal(size=(n, 1)) + np.where(y_test == 1, 0.0, 2.0)[:, None]
        err = float(np.mean(predict(model, z_test) != y_test))
        bayes = norm.cdf(-1.0)
        assert abs(err - bayes) < 0.02
