"""Tests for repro.gp.kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gp.kernels import RBF, Product, Sum, nargp_kernel

ALL_STATIONARY = [RBF]


def finite_difference_gradients(kernel, x, eps=1e-6):
    """Numeric dK/dtheta for comparison with analytic gradients."""
    theta0 = kernel.theta.copy()
    grads = []
    for j in range(kernel.n_params):
        theta_plus = theta0.copy()
        theta_plus[j] += eps
        kernel.theta = theta_plus
        k_plus = kernel(x)
        theta_minus = theta0.copy()
        theta_minus[j] -= eps
        kernel.theta = theta_minus
        k_minus = kernel(x)
        grads.append((k_plus - k_minus) / (2 * eps))
    kernel.theta = theta0
    return np.stack(grads)


def assert_gradients_match_fd(kernel, x, dense_gradients):
    """The dense gradient oracle and the ``value_and_traces`` contraction
    both agree with central finite differences."""
    numeric = finite_difference_gradients(kernel, x)
    np.testing.assert_allclose(
        dense_gradients(kernel, x), numeric, rtol=1e-5, atol=1e-7
    )
    w = np.random.default_rng(99).standard_normal((x.shape[0], x.shape[0]))
    inner = 0.5 * (w + w.T)
    _, traces = kernel.value_and_traces(x)
    np.testing.assert_allclose(
        traces(inner),
        np.tensordot(numeric, inner, axes=([1, 2], [0, 1])),
        rtol=1e-5,
        atol=1e-7,
    )


class TestStationaryKernels:
    @pytest.mark.parametrize("cls", ALL_STATIONARY)
    def test_diagonal_is_variance(self, cls):
        kernel = cls(3, variance=2.5, lengthscales=[0.5, 1.0, 2.0])
        x = np.random.default_rng(0).random((6, 3))
        np.testing.assert_allclose(kernel.diag(x), 2.5)
        np.testing.assert_allclose(np.diag(kernel(x)), 2.5)

    @pytest.mark.parametrize("cls", ALL_STATIONARY)
    def test_symmetry_and_psd(self, cls):
        kernel = cls(2, variance=1.3, lengthscales=0.7)
        x = np.random.default_rng(1).random((10, 2))
        k = kernel(x)
        np.testing.assert_allclose(k, k.T, atol=1e-12)
        eigenvalues = np.linalg.eigvalsh(k)
        assert eigenvalues.min() > -1e-9

    @pytest.mark.parametrize("cls", ALL_STATIONARY)
    def test_gradients_match_finite_differences(self, cls, dense_gradients):
        kernel = cls(2, variance=1.7, lengthscales=[0.4, 1.3])
        x = np.random.default_rng(2).random((7, 2))
        assert_gradients_match_fd(kernel, x, dense_gradients)

    @pytest.mark.parametrize("cls", ALL_STATIONARY)
    def test_cross_covariance_shape(self, cls):
        kernel = cls(3)
        x1 = np.random.default_rng(3).random((4, 3))
        x2 = np.random.default_rng(4).random((6, 3))
        assert kernel(x1, x2).shape == (4, 6)

    def test_rbf_closed_form(self):
        kernel = RBF(1, variance=2.0, lengthscales=0.5)
        x = np.array([[0.0], [1.0]])
        expected = 2.0 * np.exp(-0.5 * (1.0 / 0.5) ** 2)
        assert kernel(x)[0, 1] == pytest.approx(expected)

    def test_ard_lengthscales_are_independent(self):
        kernel = RBF(2, lengthscales=[0.1, 10.0])
        x = np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.3]])
        k = kernel(x)
        # moving along the short lengthscale decorrelates much faster
        assert k[0, 1] < k[0, 2]

    def test_theta_roundtrip(self):
        kernel = RBF(3, variance=2.0, lengthscales=[0.3, 0.6, 0.9])
        theta = kernel.theta.copy()
        kernel.theta = theta + 0.1
        np.testing.assert_allclose(kernel.theta, theta + 0.1)
        assert len(kernel.param_names) == kernel.n_params == 4

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            RBF(0)
        with pytest.raises(ValueError):
            RBF(2, variance=-1.0)
        with pytest.raises(ValueError):
            RBF(2, lengthscales=[1.0, -1.0])

    @pytest.mark.parametrize("cls", ALL_STATIONARY)
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameters_raise(self, cls, bad):
        # NaN passes a bare ``<= 0`` check.
        with pytest.raises(ValueError, match="finite"):
            cls(2, variance=bad)
        with pytest.raises(ValueError, match="finite"):
            cls(2, lengthscales=[1.0, bad])

    def test_wrong_input_dim_raises(self):
        kernel = RBF(3)
        with pytest.raises(ValueError):
            kernel(np.ones((4, 2)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_property_psd_random_inputs(self, seed):
        rng = np.random.default_rng(seed)
        kernel = RBF(2, variance=float(rng.uniform(0.1, 5)),
                     lengthscales=rng.uniform(0.1, 3, size=2))
        x = rng.random((8, 2))
        eigenvalues = np.linalg.eigvalsh(kernel(x))
        assert eigenvalues.min() > -1e-8


class TestComposition:
    def test_sum_values(self):
        k1, k2 = RBF(2, variance=1.0), RBF(2, variance=2.0, lengthscales=3.0)
        combined = k1 + k2
        assert isinstance(combined, Sum)
        x = np.random.default_rng(0).random((5, 2))
        np.testing.assert_allclose(combined(x), k1(x) + k2(x))
        np.testing.assert_allclose(combined.diag(x), k1.diag(x) + k2.diag(x))

    def test_product_values(self):
        k1, k2 = RBF(2, variance=1.5), RBF(2, variance=0.5, lengthscales=0.4)
        combined = k1 * k2
        assert isinstance(combined, Product)
        x = np.random.default_rng(1).random((5, 2))
        np.testing.assert_allclose(combined(x), k1(x) * k2(x))

    def test_composed_theta_concatenation(self):
        k1, k2 = RBF(2), RBF(1, active_dims=[1])
        combined = k1 + k2
        assert combined.n_params == k1.n_params + k2.n_params
        assert combined.param_names == k1.param_names + k2.param_names

    def test_sum_gradients_match_fd(self, dense_gradients):
        combined = RBF(2, variance=1.2) + RBF(2, variance=0.8, lengthscales=2.0)
        x = np.random.default_rng(2).random((6, 2))
        assert_gradients_match_fd(combined, x, dense_gradients)

    def test_product_gradients_match_fd(self, dense_gradients):
        combined = RBF(2, variance=1.2) * RBF(
            2, variance=0.6, lengthscales=[0.5, 1.5]
        )
        x = np.random.default_rng(3).random((6, 2))
        assert_gradients_match_fd(combined, x, dense_gradients)

    def test_theta_setter_propagates(self):
        combined = RBF(1) + RBF(1)
        theta = combined.theta.copy()
        theta[0] = np.log(9.0)
        combined.theta = theta
        assert combined.left.variance == pytest.approx(9.0)

    def test_nested_theta_write_reaches_every_leaf(self):
        leaves = [RBF(1), RBF(2), RBF(2), RBF(1, active_dims=[0])]
        combined = (leaves[0] * leaves[1]) + (leaves[2] + leaves[3])
        theta = np.arange(combined.n_params, dtype=float) / 10.0
        combined.theta = theta
        np.testing.assert_array_equal(combined.theta, theta)
        np.testing.assert_array_equal(
            np.concatenate([leaf.theta for leaf in leaves]), theta
        )
        with pytest.raises(ValueError):
            combined.theta = theta[:-1]


class TestNARGPKernel:
    def test_structure_and_params(self):
        kernel = nargp_kernel(3)
        # k1 (1 + 1) + k2 (1 + 3) + k3 (1 + 3) = 10 log-parameters
        assert kernel.n_params == 10
        x = np.random.default_rng(0).random((6, 4))  # [x, f_l(x)]
        k = kernel(x)
        assert k.shape == (6, 6)
        assert np.linalg.eigvalsh(k).min() > -1e-9

    def test_gradients_match_fd(self, dense_gradients):
        kernel = nargp_kernel(2)
        x = np.random.default_rng(1).random((5, 3))
        assert_gradients_match_fd(kernel, x, dense_gradients)

    def test_fl_column_matters(self):
        kernel = nargp_kernel(1)
        x1 = np.array([[0.5, 0.0]])
        x2_same_fl = np.array([[0.5, 0.0]])
        x2_diff_fl = np.array([[0.5, 2.0]])
        assert kernel(x1, x2_diff_fl)[0, 0] < kernel(x1, x2_same_fl)[0, 0]

    def test_invalid_dims_raise(self):
        with pytest.raises(ValueError):
            nargp_kernel(0)
