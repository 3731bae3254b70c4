"""Tests for repro.gp.gpr."""

import numpy as np
import pytest

from repro.gp import GPR, RBF
from repro.gp.linalg import CholeskyError


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestFitPredict:
    def test_interpolates_noiseless_data(self, rng):
        x = np.linspace(0, 1, 10)[:, None]
        y = np.sin(4 * x[:, 0])
        model = GPR().fit(x, y, n_restarts=2, rng=rng)
        mu, var = model.predict(x)
        np.testing.assert_allclose(mu, y, atol=1e-2)

    def test_prediction_between_points_is_sane(self, rng):
        x = np.linspace(0, 1, 15)[:, None]
        y = np.sin(4 * x[:, 0])
        model = GPR().fit(x, y, n_restarts=2, rng=rng)
        grid = np.linspace(0, 1, 50)[:, None]
        mu, _ = model.predict(grid)
        np.testing.assert_allclose(mu, np.sin(4 * grid[:, 0]), atol=0.05)

    def test_variance_grows_away_from_data(self, rng):
        x = np.linspace(0.4, 0.6, 8)[:, None]
        y = x[:, 0] ** 2
        model = GPR().fit(x, y, n_restarts=2, rng=rng)
        _, var_in = model.predict(np.array([[0.5]]))
        _, var_out = model.predict(np.array([[3.0]]))
        assert var_out[0] > var_in[0]

    def test_normalization_invariance(self, rng):
        x = rng.random((12, 2))
        y = np.sin(3 * x[:, 0]) + x[:, 1]
        shifted = 1000.0 + 50.0 * y
        model = GPR().fit(x, shifted, n_restarts=2,
                          rng=np.random.default_rng(1))
        mu, _ = model.predict(x)
        np.testing.assert_allclose(mu, shifted, rtol=1e-3)

    def test_predict_mean_matches_predict(self, rng):
        x = rng.random((10, 2))
        y = x[:, 0] + x[:, 1] ** 2
        model = GPR().fit(x, y, n_restarts=1, rng=rng)
        grid = rng.random((20, 2))
        mu, _ = model.predict(grid)
        np.testing.assert_allclose(model.predict_mean(grid), mu, rtol=1e-12)

    def test_single_point_dataset(self, rng):
        model = GPR().fit(np.array([[0.5]]), np.array([2.0]),
                          n_restarts=1, rng=rng)
        mu, var = model.predict(np.array([[0.5]]))
        assert np.isfinite(mu[0]) and var[0] >= 0

    def test_constant_targets(self, rng):
        x = rng.random((8, 1))
        y = np.full(8, 3.14)
        model = GPR().fit(x, y, n_restarts=1, rng=rng)
        mu, _ = model.predict(x)
        np.testing.assert_allclose(mu, 3.14, atol=1e-6)

    def test_include_noise_flag(self, rng):
        x = rng.random((10, 1))
        y = np.sin(x[:, 0])
        model = GPR(noise_variance=1e-2).fit(x, y, optimize=False)
        _, var_noisy = model.predict(x, include_noise=True)
        _, var_clean = model.predict(x, include_noise=False)
        assert np.all(var_noisy > var_clean)

    def test_custom_kernel_used(self, rng):
        kernel = RBF(1, lengthscales=0.2)
        model = GPR(kernel=kernel)
        model.fit(rng.random((6, 1)), rng.random(6), optimize=False)
        assert model.kernel is kernel


class TestTraining:
    def test_training_improves_nlml(self, rng):
        x = np.linspace(0, 1, 20)[:, None]
        y = np.sin(10 * x[:, 0])
        model = GPR(kernel=RBF(1, lengthscales=5.0))
        model.fit(x, y, optimize=False)
        before = model.nlml()
        model.fit(x, y, n_restarts=2, rng=rng)
        assert model.nlml() < before

    def test_train_result_recorded(self, rng):
        model = GPR().fit(rng.random((8, 1)), rng.random(8),
                          n_restarts=1, rng=rng)
        assert model.train_result is not None
        assert np.isfinite(model.train_result.nlml)

    def test_nlml_gradient_matches_fd(self, rng):
        x = rng.random((8, 2))
        y = np.sin(3 * x[:, 0]) + x[:, 1]
        model = GPR()
        model.fit(x, y, optimize=False)
        theta0 = model._full_theta()
        _, analytic = model._nlml_and_grad(theta0)
        eps = 1e-6
        for j in range(theta0.size):
            tp, tm = theta0.copy(), theta0.copy()
            tp[j] += eps
            tm[j] -= eps
            fp, _ = model._nlml_and_grad(tp)
            fm, _ = model._nlml_and_grad(tm)
            numeric = (fp - fm) / (2 * eps)
            assert analytic[j] == pytest.approx(numeric, rel=1e-3, abs=1e-6)

    def test_max_opt_iter_cap(self, rng):
        x = rng.random((15, 2))
        y = np.sin(5 * x[:, 0])
        model = GPR(max_opt_iter=2).fit(x, y, n_restarts=0, rng=rng)
        assert model.train_result is not None  # just runs, capped


def _nan_variance_rbf():
    # The constructor rejects NaN, so it enters through theta, the way an
    # optimizer step or a corrupt state would.
    kernel = RBF(1)
    kernel.theta = [np.nan, 0.0]
    return kernel


class TestEveryRestartFails:
    """A fit whose every Cholesky fails must raise, not cache a NaN
    posterior; finite restarts must still recover from a failed start."""

    x = np.linspace(0.0, 1.0, 8)[:, None]
    y = np.sin(4.0 * x[:, 0])

    def test_nlml_maps_non_finite_kernel_to_penalty(self):
        model = GPR(kernel=_nan_variance_rbf())
        model._set_data(self.x, self.y)
        value, grad = model._nlml_and_grad(model._full_theta())
        assert value == 1e25
        np.testing.assert_array_equal(grad, 0.0)

    def test_single_failing_start_raises(self):
        model = GPR(kernel=_nan_variance_rbf())
        with pytest.raises(CholeskyError):
            model.fit(self.x, self.y, n_restarts=0,
                      rng=np.random.default_rng(0))

    def test_finite_restarts_recover(self):
        model = GPR(kernel=_nan_variance_rbf())
        model.fit(self.x, self.y, n_restarts=2, rng=np.random.default_rng(0))
        assert model.train_result.nlml < 1e25
        assert np.all(np.isfinite(model.kernel.theta))
        mu, var = model.predict(self.x)
        assert np.all(np.isfinite(mu)) and np.all(np.isfinite(var))
        np.testing.assert_allclose(mu, self.y, atol=1e-2)


class TestValidation:
    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            GPR().predict(np.array([[0.0]]))

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError):
            GPR().fit(np.ones((3, 1)), np.ones(4))

    def test_empty_dataset_raises(self):
        with pytest.raises(ValueError):
            GPR().fit(np.empty((0, 1)), np.empty(0))

    def test_nonfinite_data_raises(self):
        with pytest.raises(ValueError):
            GPR().fit(np.array([[np.nan]]), np.array([1.0]))

    def test_bad_constructor_args(self):
        with pytest.raises(ValueError):
            GPR(noise_variance=0.0)
        with pytest.raises(ValueError):
            GPR(max_opt_iter=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_noise_variance_raises(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GPR(noise_variance=bad)

    def test_nlml_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="model has not been fit"):
            GPR().nlml()

    def test_n_train_and_properties(self, rng):
        model = GPR()
        assert model.n_train == 0
        model.fit(rng.random((5, 2)), rng.random(5), optimize=False)
        assert model.n_train == 5
        assert model.x_train.shape == (5, 2)
        assert model.y_train.shape == (5,)
