"""Tests for repro.gp.gpr."""

import numpy as np
import pytest

from repro.core.loop import fit_pairs
from repro.gp import GPR, RBF, nargp_kernel
from repro.gp import gpr as gpr_module
from repro.gp.gpr import Likelihood, fit_hyperparameters
from repro.gp.linalg import CholeskyError


def nlml_and_grad(model, theta):
    """One model's eq. 3 value and gradient at ``theta``."""
    values, grads = Likelihood([model])(np.asarray(theta)[None], np.zeros(1, int))
    return float(values[0]), grads[0]


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
        _, analytic = nlml_and_grad(model, theta0)
        eps = 1e-6
        for j in range(theta0.size):
            tp, tm = theta0.copy(), theta0.copy()
            tp[j] += eps
            tm[j] -= eps
            fp, _ = nlml_and_grad(model, tp)
            fm, _ = nlml_and_grad(model, tm)
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
        value, grad = nlml_and_grad(model, model._full_theta())
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


class TestDuplicateInputs:
    """Exact duplicate training rows make K singular up to the noise
    term; the fit must still end finite, below the 1e25 penalty."""

    @pytest.mark.parametrize("targets", ["equal", "conflicting"])
    def test_duplicate_rows_fit_finite(self, targets):
        rng = np.random.default_rng(7)
        x = rng.random((10, 3))
        x = np.vstack([x, x[:4], x[:2]])
        y = np.sin(3.0 * x).sum(axis=1)
        if targets == "conflicting":
            y[10:] += [0.5, -0.7, 0.3, 0.9, -0.4, 0.6]
        model = GPR().fit(x, y, n_restarts=2, rng=rng)
        assert np.isfinite(model.train_result.nlml)
        assert model.train_result.nlml < 1e25
        mu, var = model.predict(np.vstack([x, rng.random((5, 3))]))
        assert np.all(np.isfinite(mu)) and np.all(var > 0)


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


class TestLockstepFit:
    """``fit_hyperparameters`` trains several models in one lockstep
    search; the stacked likelihood is member-stable, so each model gets
    the bits fitting it alone gives it."""

    def test_fit_pairs_matches_fitting_each_output_alone(self):
        rng = np.random.default_rng(3)
        x_low, x_high = rng.random((12, 3)), rng.random((6, 3))
        weights = rng.standard_normal((3, 3))
        t_low = [np.sin(x_low @ w) for w in weights]
        t_high = [np.sin(x_high @ w) + 0.3 * (x_high @ w) for w in weights]
        low, fused = fit_pairs(
            x_low, t_low, x_high, t_high,
            rng=np.random.default_rng(11), n_restarts=2, max_opt_iter=30,
        )
        low_template = GPR(kernel=RBF(3, lengthscales=0.5))
        high_template = GPR(kernel=nargp_kernel(3))
        for i in range(3):
            # Replay the draws of the outputs before this one.
            alone_rng = np.random.default_rng(11)
            for _ in range(i):
                low_template.hyperparameter_starts(2, alone_rng)
                high_template.hyperparameter_starts(2, alone_rng)
            low_alone = GPR(max_opt_iter=30).fit(
                x_low, t_low[i], n_restarts=2, rng=alone_rng
            )
            augmented = np.column_stack([x_high, low_alone.predict_mean(x_high)])
            high_alone = GPR(kernel=nargp_kernel(3), max_opt_iter=30).fit(
                augmented, t_high[i], n_restarts=2, rng=alone_rng
            )
            for together, alone in (
                (low[i], low_alone), (fused[i].high_model, high_alone)
            ):
                assert together._full_theta().tobytes() == (
                    alone._full_theta().tobytes()
                )
                assert together.train_result.nlml == alone.train_result.nlml
                assert (
                    together.train_result.success == alone.train_result.success
                )

    def test_a_member_that_never_factors_leaves_the_others_untouched(self):
        """One model's first start has a NaN variance, so every Cholesky
        of its search fails (the penalty path); the other models end
        with the bits they get alone, and the failing model recovers
        through its finite restarts."""
        x = TestEveryRestartFails.x
        targets = [np.sin(4.0 * x[:, 0]), np.cos(3.0 * x[:, 0]), x[:, 0] ** 2]

        def model(i):
            kernel = _nan_variance_rbf() if i == 1 else RBF(1)
            gp = GPR(kernel=kernel, max_opt_iter=30)
            gp._set_data(x, targets[i])  # no posterior at the NaN theta
            return gp

        rng = np.random.default_rng(4)
        together = [model(i) for i in range(3)]
        starts = [m.hyperparameter_starts(2, rng) for m in together]
        fit_hyperparameters(together, starts)
        for i in (0, 2):
            alone = model(i)
            fit_hyperparameters([alone], [starts[i]])
            assert together[i]._full_theta().tobytes() == (
                alone._full_theta().tobytes()
            )
            assert together[i].train_result.nlml == alone.train_result.nlml
        failed = together[1]
        values, _ = Likelihood([failed])(starts[1][:1], np.zeros(1, int))
        assert values[0] == 1e25  # the NaN start never factors
        assert failed.train_result.nlml < 1e25
        assert np.all(np.isfinite(failed.kernel.theta))

    def test_success_reports_the_chosen_start(self, monkeypatch):
        """The flag is the chosen start's convergence, not whether any
        improving start converged."""

        def two_searches(fun, x0, lower, upper, maxiter):
            # start 0 converged at 5.0; start 1 hit its cap at 3.0
            return x0, np.array([5.0, 3.0]), np.array([True, False])

        monkeypatch.setattr(gpr_module, "lbfgsb", two_searches)
        x = np.linspace(0.0, 1.0, 6)[:, None]
        model = GPR().fit(x, np.sin(x[:, 0]), n_restarts=1,
                          rng=np.random.default_rng(0))
        assert model.train_result.nlml == 3.0
        assert model.train_result.success is False

    def test_no_outputs_no_models(self):
        x = np.random.default_rng(0).random((5, 2))
        assert fit_pairs(
            x, [], x[:2], [], rng=np.random.default_rng(1), n_restarts=1,
            max_opt_iter=5,
        ) == ([], [])

    def test_models_must_share_size_and_kernel(self):
        small = GPR().fit(np.random.default_rng(0).random((5, 2)), np.ones(5),
                          optimize=False)
        large = GPR().fit(np.random.default_rng(1).random((6, 2)), np.ones(6),
                          optimize=False)
        with pytest.raises(ValueError, match="one training-set size"):
            Likelihood([small, large])
