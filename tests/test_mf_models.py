"""Tests for repro.mf (NARGP + AR1 fusion models)."""

import numpy as np
import pytest

from repro.gp import GPR
from repro.mf import AR1, NARGP
from repro.problems import pedagogical_high, pedagogical_low


@pytest.fixture(scope="module")
def pedagogical_fit():
    """A NARGP trained once on the pedagogical pair (module-scoped: slow)."""
    rng = np.random.default_rng(0)
    x_low = np.sort(rng.random(50))[:, None]
    x_high = np.sort(rng.random(14))[:, None]
    model = NARGP(n_restarts=2, n_mc_samples=64).fit(
        x_low, pedagogical_low(x_low), x_high, pedagogical_high(x_high),
        rng=rng,
    )
    return model, x_low, x_high


class TestNARGP:
    def test_beats_single_fidelity_gp(self, pedagogical_fit):
        model, x_low, x_high = pedagogical_fit
        rng = np.random.default_rng(1)
        grid = np.linspace(0, 1, 150)[:, None]
        truth = pedagogical_high(grid)
        mf_mu, _ = model.predict(grid, rng=rng)
        single = GPR().fit(x_high, pedagogical_high(x_high),
                           n_restarts=2, rng=rng)
        sf_mu, _ = single.predict(grid)
        mf_rmse = np.sqrt(np.mean((mf_mu - truth) ** 2))
        sf_rmse = np.sqrt(np.mean((sf_mu - truth) ** 2))
        assert mf_rmse < 0.5 * sf_rmse

    def test_crn_prediction_is_deterministic(self, pedagogical_fit):
        model, *_ = pedagogical_fit
        grid = np.linspace(0, 1, 20)[:, None]
        z = np.random.default_rng(2).standard_normal(16)
        mu1, var1 = model.predict(grid, z=z)
        mu2, var2 = model.predict(grid, z=z)
        np.testing.assert_array_equal(mu1, mu2)
        np.testing.assert_array_equal(var1, var2)

    def test_mc_variance_exceeds_mean_path_variance(self, pedagogical_fit):
        # MC fusion propagates low-fidelity uncertainty; the mean-path
        # shortcut ignores it, so its variance is (weakly) smaller on
        # average.
        model, *_ = pedagogical_fit
        rng = np.random.default_rng(3)
        grid = np.linspace(0, 1, 50)[:, None]
        _, var_mc = model.predict(grid, rng=rng, n_mc_samples=128)
        _, var_mean_path = model.predict_mean_path(grid)
        assert np.mean(var_mc) >= 0.8 * np.mean(var_mean_path)

    def test_predict_low_passthrough(self, pedagogical_fit):
        model, x_low, _ = pedagogical_fit
        mu, var = model.low_model.predict(x_low)
        np.testing.assert_allclose(mu, pedagogical_low(x_low), atol=0.05)
        assert np.all(var > 0)

    def test_prefit_low_model_reused(self):
        rng = np.random.default_rng(4)
        x_low = np.linspace(0, 1, 25)[:, None]
        x_high = np.sort(rng.random(8))[:, None]
        low_gp = GPR().fit(x_low, pedagogical_low(x_low),
                           n_restarts=1, rng=rng)
        model = NARGP(n_restarts=1).fit(
            x_low, pedagogical_low(x_low),
            x_high, pedagogical_high(x_high),
            rng=rng, low_model=low_gp,
        )
        assert model.low_model is low_gp

    def test_unfit_raises(self):
        with pytest.raises(RuntimeError):
            NARGP().predict(np.array([[0.5]]))

    def test_dim_mismatch_raises(self):
        with pytest.raises(ValueError):
            NARGP().fit(np.ones((3, 2)), np.ones(3),
                        np.ones((2, 3)), np.ones(2))

    def test_invalid_constructor(self):
        with pytest.raises(ValueError):
            NARGP(n_mc_samples=0)

    @pytest.mark.parametrize(
        "draw",
        [
            {"z": np.array([])},
            {"n_mc_samples": 0},
            {"n_mc_samples": -1},
        ],
        ids=["empty-z", "zero-samples", "negative-samples"],
    )
    def test_empty_mc_draw_raises_value_error(self, pedagogical_fit, draw):
        model, *_ = pedagogical_fit
        with pytest.raises(ValueError, match="empty Monte-Carlo draw"):
            model.predict(np.array([[0.3], [0.7]]), **draw)

    def test_variance_positive_everywhere(self, pedagogical_fit):
        model, *_ = pedagogical_fit
        rng = np.random.default_rng(6)
        grid = np.linspace(-0.2, 1.2, 40)[:, None]  # extrapolation too
        _, var = model.predict(grid, rng=rng)
        assert np.all(var > 0)


class TestDegenerateTrainingData:
    """Duplicated high-fidelity rows, and a low-fidelity target so nearly
    constant that eq. 9's ``f_l(x)`` column is flat: both fits must end
    finite, and the fused posterior must stay finite and positive."""

    @staticmethod
    def _assert_finite(model, x_star):
        for gp in (model.low_model, model.high_model):
            assert np.isfinite(gp.train_result.nlml)
            assert gp.train_result.nlml < 1e25
        z = np.random.default_rng(8).standard_normal(16)
        for mu, var in (
            model.predict(x_star, rng=np.random.default_rng(9)),
            model.predict(x_star, z=z),
        ):
            assert np.all(np.isfinite(mu)) and np.all(var > 0)

    def test_duplicated_high_fidelity_rows(self):
        rng = np.random.default_rng(10)
        x_low = np.sort(rng.random(20))[:, None]
        x_high = np.sort(rng.random(6))[:, None]
        x_high = np.vstack([x_high, x_high[:3], x_high[:1]])
        model = NARGP(n_restarts=2).fit(
            x_low, pedagogical_low(x_low),
            x_high, pedagogical_high(x_high),
            rng=rng,
        )
        self._assert_finite(model, np.linspace(0.0, 1.0, 25)[:, None])

    def test_nearly_constant_low_fidelity_column(self):
        rng = np.random.default_rng(11)
        x_low = rng.random((15, 2))
        x_high = rng.random((6, 2))
        y_low = 3.0 + 1e-13 * rng.standard_normal(15)
        model = NARGP(n_restarts=2).fit(
            x_low, y_low, x_high, np.sin(3.0 * x_high).sum(axis=1), rng=rng
        )
        f_low = model.high_model.x_train[:, -1]
        assert np.ptp(f_low) < 1e-10
        self._assert_finite(model, rng.random((12, 2)))


class TestAR1:
    def test_recovers_exact_linear_relation(self):
        rng = np.random.default_rng(0)
        x_low = np.linspace(0, 1, 30)[:, None]
        x_high = np.sort(rng.random(10))[:, None]
        def f_low(x):
            return np.sin(2 * np.pi * x[:, 0])

        def f_high(x):
            return 2.0 * f_low(x) + 1.0
        model = AR1(n_restarts=1).fit(
            x_low, f_low(x_low), x_high, f_high(x_high), rng=rng
        )
        assert model.rho == pytest.approx(2.0, abs=0.3)
        grid = np.linspace(0, 1, 50)[:, None]
        mu, _ = model.predict(grid)
        np.testing.assert_allclose(mu, f_high(grid), atol=0.25)

    def test_fails_on_nonlinear_relation(self):
        # the pedagogical pair is nonlinear; AR1 should do clearly worse
        # than NARGP there (the paper's motivation for §3.1)
        rng = np.random.default_rng(1)
        x_low = np.sort(rng.random(50))[:, None]
        x_high = np.sort(rng.random(14))[:, None]
        ar1 = AR1(n_restarts=1).fit(
            x_low, pedagogical_low(x_low),
            x_high, pedagogical_high(x_high), rng=rng,
        )
        nargp = NARGP(n_restarts=2, n_mc_samples=64).fit(
            x_low, pedagogical_low(x_low),
            x_high, pedagogical_high(x_high), rng=rng,
        )
        grid = np.linspace(0, 1, 100)[:, None]
        truth = pedagogical_high(grid)
        ar1_mu, _ = ar1.predict(grid)
        nargp_mu, _ = nargp.predict(grid, rng=rng)
        ar1_rmse = np.sqrt(np.mean((ar1_mu - truth) ** 2))
        nargp_rmse = np.sqrt(np.mean((nargp_mu - truth) ** 2))
        assert nargp_rmse < ar1_rmse

    def test_variance_positive(self):
        rng = np.random.default_rng(2)
        x = np.linspace(0, 1, 15)[:, None]
        model = AR1(n_restarts=1).fit(
            x, np.sin(x[:, 0]), x[::3], np.cos(x[::3, 0]), rng=rng
        )
        _, var = model.predict(np.linspace(0, 1, 20)[:, None])
        assert np.all(var > 0)

    def test_predict_low(self):
        rng = np.random.default_rng(3)
        x = np.linspace(0, 1, 15)[:, None]
        model = AR1(n_restarts=1).fit(
            x, np.sin(3 * x[:, 0]), x[::3], np.sin(3 * x[::3, 0]), rng=rng
        )
        mu, var = model.low_model.predict(x)
        np.testing.assert_allclose(mu, np.sin(3 * x[:, 0]), atol=0.05)

    def test_unfit_raises(self):
        with pytest.raises(RuntimeError):
            AR1().predict(np.array([[0.5]]))
