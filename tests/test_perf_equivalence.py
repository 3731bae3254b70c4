"""Equivalence guards for the vectorized/cached hot paths.

Every performance shortcut in the GP stack — kernel workspace caching,
the single-Cholesky NLML gradient, batched NARGP Monte-Carlo fusion,
incremental Cholesky updates and the direct ``setulb`` L-BFGS-B loop —
must produce the same numbers as the straightforward reference
computation. These tests pin that equivalence to tight tolerances, or
bit for bit, on seeded data.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve as scipy_cho_solve
from scipy.linalg import cholesky as scipy_cholesky
from scipy.linalg import solve_triangular as scipy_solve_triangular
from scipy.optimize import minimize

from repro.acquisition import WeightedEI
from repro.core import MFBOptimizer
from repro.gp import GPR
from repro.gp.kernels import RBF, Product, Sum, nargp_kernel
from repro.gp.linalg import (
    JITTER_LADDER,
    CholeskyError,
    chol_append,
    jitter_cholesky,
)
from repro.mf import NARGP
from repro.optim.msp import MSPOptimizer
from repro.problems import ForresterProblem, pedagogical_high, pedagogical_low


# ---------------------------------------------------------------------------
# kernel workspace caching
# ---------------------------------------------------------------------------
KERNELS = pytest.mark.parametrize(
    "make_kernel",
    [
        lambda: RBF(4, variance=1.7, lengthscales=[0.3, 1.0, 2.0, 0.7]),
        lambda: RBF(4, variance=0.9, lengthscales=0.5) * RBF(4) + RBF(4),
        lambda: nargp_kernel(3),
    ],
    ids=["rbf", "composite", "nargp"],
)


@KERNELS
def test_workspace_matches_fresh_evaluation(make_kernel):
    """K(x, x) and its gradient traces from a cached workspace are
    identical to the fresh computation, including after theta updates."""
    kernel = make_kernel()
    rng = np.random.default_rng(0)
    x = rng.random((15, 4))
    w = rng.standard_normal((15, 15))
    inner = 0.5 * (w + w.T)
    workspace = kernel.make_workspace(x)

    def assert_same():
        np.testing.assert_array_equal(kernel(x, workspace=workspace), kernel(x))
        k_ws, traces_ws = kernel.value_and_traces(x, workspace)
        k, traces = kernel.value_and_traces(x)
        assert k_ws.tobytes() == k.tobytes()
        assert traces_ws(inner).tobytes() == traces(inner).tobytes()

    assert_same()
    # The workspace is theta-independent: mutate every hyperparameter and
    # the cached tensors must still reproduce the fresh evaluation.
    kernel.theta = kernel.theta + rng.normal(scale=0.3, size=kernel.n_params)
    assert_same()


@KERNELS
def test_gradient_traces_match_gradient_stack(make_kernel, dense_gradients):
    """The closed-form trace contraction of a ``value_and_traces`` pass,
    whose ``K`` is ``kernel(x)`` bit for bit, equals contracting the full
    (n_params, n, n) gradient stack."""
    kernel = make_kernel()
    rng = np.random.default_rng(14)
    x = rng.random((12, 4))
    w = rng.standard_normal((12, 12))
    inner = 0.5 * (w + w.T)
    reference = np.tensordot(
        dense_gradients(kernel, x), inner, axes=([1, 2], [0, 1])
    )
    k, traces = kernel.value_and_traces(x, kernel.make_workspace(x))
    assert k.tobytes() == kernel(x).tobytes()
    np.testing.assert_allclose(traces(inner), reference, rtol=1e-10, atol=1e-12)


def test_workspace_guarded_by_input_identity():
    """A workspace is keyed to the array it was built from: a different
    array of the same shape must take the fresh-computation path."""
    kernel = RBF(2, lengthscales=[0.4, 0.9])
    rng = np.random.default_rng(15)
    x = rng.random((8, 2))
    other = rng.random((8, 2))
    workspace = kernel.make_workspace(x)
    np.testing.assert_array_equal(
        kernel(other, workspace=workspace), kernel(other)
    )
    assert not np.array_equal(kernel(other, workspace=workspace), kernel(x))


def test_workspace_ignored_for_cross_covariances():
    """A workspace built on the training set must not leak into K(x*, x)."""
    kernel = RBF(2, lengthscales=[0.4, 0.9])
    rng = np.random.default_rng(1)
    x = rng.random((10, 2))
    x_star = rng.random((6, 2))
    workspace = kernel.make_workspace(x)
    np.testing.assert_array_equal(
        kernel(x_star, x, workspace=workspace), kernel(x_star, x)
    )


def test_nlml_and_grad_matches_reference_formulation(dense_gradients):
    """The workspace-cached, single-Cholesky NLML/gradient equals the
    textbook dense-inverse formulation (the seed implementation)."""
    rng = np.random.default_rng(2)
    x = rng.random((25, 3))
    y = np.sin(x @ np.array([2.0, -1.0, 0.5])) + 0.05 * rng.standard_normal(25)
    model = GPR().fit(x, y, n_restarts=1, rng=rng)

    theta = np.concatenate([model.kernel.theta, [np.log(model.noise_variance)]])
    for probe in (theta, theta + 0.2, theta - 0.3):
        nlml, grad = model._nlml_and_grad(probe)

        # reference: fresh kernel evaluation, explicit K^{-1}
        from scipy.linalg import cho_solve as ref_cho_solve

        n = x.shape[0]
        k = model.kernel(x) + model.noise_variance * np.eye(n)
        lower, _ = jitter_cholesky(k)
        y_std = model._y_train
        alpha = ref_cho_solve((lower, True), y_std)
        ref_nlml = 0.5 * (
            float(y_std @ alpha)
            + 2.0 * float(np.sum(np.log(np.diag(lower))))
            + n * np.log(2.0 * np.pi)
        )
        k_inv = ref_cho_solve((lower, True), np.eye(n))
        inner = k_inv - np.outer(alpha, alpha)
        grads = dense_gradients(model.kernel, x)
        ref_grad = np.empty(probe.size)
        for j in range(grads.shape[0]):
            ref_grad[j] = 0.5 * float(np.sum(inner * grads[j]))
        ref_grad[-1] = 0.5 * model.noise_variance * float(np.trace(inner))

        assert nlml == pytest.approx(ref_nlml, rel=1e-10)
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-8, atol=1e-10)


# The oracle: GPR._nlml_and_grad as it was before the direct LAPACK calls
# and the one-pass kernel traces, kept verbatim: scipy.linalg for the
# factorization and the solves, kernel(x) for K, then a separate
# gradient_traces pass with the precomputed K (k=) in which Product
# re-evaluated both factors and Sum passed no K down.
def oracle_rbf_traces(kernel, x, inner, k=None):
    sq_diffs = kernel._sq_diffs(x)
    if k is None:
        k = kernel.variance * np.exp(-0.5 * (sq_diffs @ kernel._inv_sq_lengthscales))
    w = inner * k
    out = np.empty(kernel.n_params)
    out[0] = np.sum(w)
    n2 = w.size
    out[1:] = (w.reshape(n2) @ sq_diffs.reshape(n2, -1)) * (
        kernel._inv_sq_lengthscales
    )
    return out


def oracle_gradient_traces(kernel, x, inner, k=None):
    if isinstance(kernel, RBF):
        return oracle_rbf_traces(kernel, x, inner, k)
    if isinstance(kernel, Sum):
        return np.concatenate(
            [
                oracle_gradient_traces(kernel.left, x, inner),
                oracle_gradient_traces(kernel.right, x, inner),
            ]
        )
    assert isinstance(kernel, Product)
    k_left, k_right = kernel.left(x), kernel.right(x)
    return np.concatenate(
        [
            oracle_gradient_traces(kernel.left, x, inner * k_right, k=k_left),
            oracle_gradient_traces(kernel.right, x, inner * k_left, k=k_right),
        ]
    )


def oracle_jitter_cholesky(a):
    a = np.asarray(a, dtype=float)
    diag_mean = float(np.mean(np.diag(a)))
    scale = diag_mean if diag_mean > 0.0 else 1.0
    a = 0.5 * (a + a.T)
    for level in JITTER_LADDER:
        jitter = level * scale
        try:
            attempt = a if jitter == 0.0 else a + jitter * np.eye(a.shape[0])
            return scipy_cholesky(attempt, lower=True, check_finite=False), jitter
        except np.linalg.LinAlgError:
            continue
    raise CholeskyError("oracle ladder exhausted")


def _oracle_leaves(kernel):
    if isinstance(kernel, (Sum, Product)):
        return _oracle_leaves(kernel.left) + _oracle_leaves(kernel.right)
    return [kernel]


def oracle_nlml_and_grad(model, theta):
    """``model`` is the oracle's own copy; theta is written leaf by leaf
    through the leaf setters, without the combination's slice plan."""
    theta = np.asarray(theta, dtype=float).ravel()
    start = 0
    for leaf in _oracle_leaves(model.kernel):
        leaf.theta = theta[start : start + leaf.n_params]
        start += leaf.n_params
    noise_variance = float(np.exp(float(theta[-1])))
    x, y = model._x_train, model._y_train
    n = x.shape[0]
    eye = np.eye(n)
    k_noise_free = model.kernel(x)
    k = k_noise_free + noise_variance * eye
    try:
        lower, _ = oracle_jitter_cholesky(k)
    except CholeskyError:
        return 1e25, np.zeros_like(theta)
    alpha = scipy_cho_solve((lower, True), y, check_finite=False)
    nlml = 0.5 * (
        float(y @ alpha)
        + 2.0 * float(np.sum(np.log(np.diag(lower))))
        + n * np.log(2.0 * np.pi)
    )
    if not np.isfinite(nlml):
        return 1e25, np.zeros_like(theta)
    lower_inv = scipy_solve_triangular(lower, eye, lower=True, check_finite=False)
    inner = lower_inv.T @ lower_inv - np.outer(alpha, alpha)
    grad = np.empty(theta.size)
    grad[:-1] = 0.5 * oracle_gradient_traces(model.kernel, x, inner, k=k_noise_free)
    grad[-1] = 0.5 * noise_variance * float(np.trace(inner))
    return nlml, grad


@pytest.mark.parametrize("kernel_name", ["rbf", "eq9"])
def test_nlml_and_grad_matches_oracle_bitwise(kernel_name):
    """Value and gradient bytes equal the oracle's at several theta,
    including a near-singular K that climbs the jitter ladder. Every
    call writes a new theta, and the kernel's own theta is also written
    between calls, so factors cached across a theta write would fail."""
    rng = np.random.default_rng(21)
    d, n = 5, 20
    x = rng.random((n, d))
    x[-4:] = x[:4]  # repeated designs, as a BO loop makes them
    y = np.sin(x @ rng.standard_normal(d)) + 0.01 * rng.standard_normal(n)
    if kernel_name == "rbf":
        model = GPR(kernel=RBF(d))
    else:
        model = GPR(kernel=nargp_kernel(d))
        x = np.column_stack([x, np.cos(3.0 * x[:, 0])])
    model.fit(x, y, optimize=False)
    oracle = copy.deepcopy(model)
    bounds = np.array(model._full_bounds())
    theta0 = model._full_theta()
    probes = [theta0, theta0 + 0.3, theta0 - 0.4]
    probes += list(rng.uniform(bounds[:, 0], bounds[:, 1], size=(6, theta0.size)))
    # Repeated designs with a noise far below its bound: rung 0 of the
    # jitter ladder fails.
    near_singular = theta0.copy()
    near_singular[-1] = np.log(1e-20)
    probes += [near_singular, theta0]
    for theta in probes:
        value, grad = model._nlml_and_grad(theta)
        expected_value, expected_grad = oracle_nlml_and_grad(oracle, theta)
        assert float(value) == float(expected_value)
        assert grad.tobytes() == expected_grad.tobytes()
        model.kernel.theta = rng.uniform(bounds[:-1, 0], bounds[:-1, 1])


@pytest.mark.parametrize("make_kernel", [lambda: RBF(3), lambda: nargp_kernel(2)])
def test_traces_belong_to_the_theta_of_their_pass(make_kernel):
    """A theta write after a value_and_traces pass leaves its traces as
    they were: they contract the factors of that pass."""
    kernel = make_kernel()
    rng = np.random.default_rng(22)
    x = rng.random((9, 3))
    w = rng.standard_normal((9, 9))
    inner = 0.5 * (w + w.T)
    k, traces = kernel.value_and_traces(x)
    expected = oracle_gradient_traces(kernel, x, inner, k=kernel(x))
    kernel.theta = kernel.theta + 0.5
    assert traces(inner).tobytes() == expected.tobytes()
    assert k.tobytes() != kernel(x).tobytes()


# ---------------------------------------------------------------------------
# batched NARGP Monte-Carlo fusion
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def fitted_nargp():
    rng = np.random.default_rng(3)
    x_low = np.sort(rng.random(30))[:, None]
    x_high = np.sort(rng.random(9))[:, None]
    return NARGP(n_restarts=1, max_opt_iter=60).fit(
        x_low, pedagogical_low(x_low),
        x_high, pedagogical_high(x_high),
        rng=np.random.default_rng(4),
    )


def test_batched_fusion_matches_per_sample_loop(fitted_nargp):
    """Stacked (n_mc * m) fused prediction equals the per-sample Python
    loop of the seed implementation to rtol 1e-8."""
    model = fitted_nargp
    x_star = np.linspace(0.0, 1.0, 37)[:, None]
    z = np.random.default_rng(5).standard_normal(48)

    mu, var = model.predict(x_star, z=z)

    # reference: one high-fidelity predict per Monte-Carlo sample
    mu_low, var_low = model.low_model.predict(x_star)
    low_samples = mu_low[None, :] + np.sqrt(var_low)[None, :] * z[:, None]
    mean_acc = np.zeros(x_star.shape[0])
    second_acc = np.zeros(x_star.shape[0])
    for sample in low_samples:
        mu_s, var_s = model.high_model.predict(
            np.column_stack([x_star, sample])
        )
        mean_acc += mu_s
        second_acc += var_s + mu_s * mu_s
    ref_mu = mean_acc / z.size
    ref_var = np.maximum(second_acc / z.size - ref_mu * ref_mu, 1e-12)

    np.testing.assert_allclose(mu, ref_mu, rtol=1e-8)
    np.testing.assert_allclose(var, ref_var, rtol=1e-8)


# The oracle: NARGP's fused predictor as it was before the eq. 9 structure
# was resolved once per kernel, kept verbatim (kernel-tree k2/k3 calls,
# the tiled kernel diagonal, np.mean moment matching).
def oracle_fused_predict_batched(model, x_star, low_samples):
    high = model.high_model
    n_mc, n = low_samples.shape
    d = x_star.shape[1]
    kernel = high.kernel
    k1, k2, k3 = kernel.left.left, kernel.left.right, kernel.right
    x_train = high.x_train
    aug_once = np.column_stack([x_star, low_samples[0]])
    k2_x = k2(aug_once, x_train)
    k3_x = k3(aug_once, x_train)
    f_train = x_train[:, d]
    k_star = low_samples.reshape(-1, 1) - f_train[None, :]
    np.multiply(k_star, k_star, out=k_star)
    k_star *= -0.5 * np.exp(-2.0 * k1._log_lengthscales)[0]
    np.exp(k_star, out=k_star)
    k_star *= float(np.exp(k1._log_variance))
    stacked = k_star.reshape(n_mc, n, -1)
    stacked *= k2_x[None, :, :]
    stacked += k3_x[None, :, :]
    prior_diag = np.tile(kernel.diag(aug_once), n_mc)
    mu, var = high.predict_from_cross(
        stacked.reshape(n_mc * n, -1), prior_diag
    )
    return mu.reshape(n_mc, n), var.reshape(n_mc, n)


def oracle_nargp_predict(model, x_star, z):
    x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
    z = np.asarray(z, dtype=float).ravel()
    mu_low, var_low = model.low_model.predict(x_star)
    low_samples = mu_low[None, :] + np.sqrt(var_low)[None, :] * z[:, None]
    mu_s, var_s = oracle_fused_predict_batched(model, x_star, low_samples)
    mu = np.mean(mu_s, axis=0)
    second_moment = np.mean(var_s + mu_s * mu_s, axis=0)
    var = second_moment - mu * mu
    return mu, np.maximum(var, 1e-12)


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@settings(max_examples=25, deadline=None)
@given(
    n_low=st.integers(3, 14),
    n_high=st.integers(2, 6),
    d=st.integers(1, 4),
    n_mc=st.integers(1, 12),
    m=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
def test_fused_prediction_matches_oracle_bitwise(n_low, n_high, d, n_mc, m, seed):
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal(d)
    x_low = rng.random((n_low, d))
    x_high = rng.random((n_high, d))
    y_low = np.sin(3.0 * x_low @ weights)
    y_high = (x_high @ weights) * np.sin(3.0 * x_high @ weights) ** 2
    model = NARGP(n_restarts=1, max_opt_iter=8).fit(
        x_low, y_low, x_high, y_high, rng=rng
    )
    x_star = rng.random((m, d))
    z = rng.standard_normal(n_mc)
    mu_low, var_low = model.low_model.predict(x_star)
    low_samples = mu_low[None, :] + np.sqrt(var_low)[None, :] * z[:, None]

    assert _bits(*model._fused_predict_batched(x_star, low_samples)) == _bits(
        *oracle_fused_predict_batched(model, x_star, low_samples)
    )
    assert _bits(*model.predict(x_star, z=z)) == _bits(
        *oracle_nargp_predict(model, x_star, z)
    )
    # The rng path draws the same samples as the oracle fed with them.
    draws = np.random.default_rng(seed).standard_normal((n_mc, m))
    got = model.predict(x_star, rng=np.random.default_rng(seed), n_mc_samples=n_mc)
    low_samples = mu_low[None, :] + np.sqrt(var_low)[None, :] * draws
    mu_s, var_s = oracle_fused_predict_batched(model, x_star, low_samples)
    mu = np.mean(mu_s, axis=0)
    var = np.maximum(np.mean(var_s + mu_s * mu_s, axis=0) - mu * mu, 1e-12)
    assert _bits(*got) == _bits(mu, var)


def test_refit_resolves_the_new_kernel():
    """A refit swaps in a new high-fidelity kernel; predictions must
    follow it, not a structure resolved for the previous one."""
    rng = np.random.default_rng(8)
    x_star = np.linspace(0.0, 1.0, 7)[:, None]
    z = rng.standard_normal(5)
    model = NARGP(n_restarts=1, max_opt_iter=20)
    for n_high in (5, 8):
        x_low = np.sort(rng.random(20))[:, None]
        x_high = np.sort(rng.random(n_high))[:, None]
        model.fit(
            x_low, pedagogical_low(x_low), x_high, pedagogical_high(x_high),
            rng=rng,
        )
        assert _bits(*model.predict(x_star, z=z)) == _bits(
            *oracle_nargp_predict(model, x_star, z)
        )


def test_predict_multi_matches_stacked_predict(fitted_nargp):
    model = fitted_nargp.high_model
    rng = np.random.default_rng(6)
    batches = rng.random((5, 11, 2))
    mu, var = model.predict_multi(batches)
    assert mu.shape == var.shape == (5, 11)
    for b in range(5):
        mu_b, var_b = model.predict(batches[b])
        np.testing.assert_allclose(mu[b], mu_b, rtol=1e-8)
        np.testing.assert_allclose(var[b], var_b, rtol=1e-8)


# ---------------------------------------------------------------------------
# incremental Cholesky updates
# ---------------------------------------------------------------------------
def _random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def test_chol_append_matches_full_factorization():
    rng = np.random.default_rng(7)
    full = _random_spd(rng, 14)
    n = 10
    lower = np.linalg.cholesky(full[:n, :n])
    extended = chol_append(lower, full[n:, :n], full[n:, n:])
    reference = np.linalg.cholesky(full)
    np.testing.assert_allclose(extended, reference, rtol=1e-8, atol=1e-10)


def test_chol_append_rejects_indefinite_block():
    rng = np.random.default_rng(8)
    spd = _random_spd(rng, 6)
    lower = np.linalg.cholesky(spd)
    cross = rng.standard_normal((1, 6))
    with pytest.raises(CholeskyError):
        chol_append(lower, cross, np.array([[-5.0]]))


def test_gpr_add_points_matches_full_refit():
    """Incremental posterior extension equals a from-scratch rebuild at
    the same hyperparameters."""
    rng = np.random.default_rng(10)
    x = rng.random((20, 3))
    y = np.cos(x @ np.array([3.0, 1.0, -2.0])) + 0.01 * rng.standard_normal(20)
    model = GPR().fit(x[:15], y[:15], n_restarts=1, rng=rng)
    theta_before = model.kernel.theta.copy()

    model.add_points(x[15:], y[15:])

    reference = GPR(kernel=RBF(3), noise_variance=model.noise_variance)
    reference.kernel.theta = theta_before
    reference.fit(x, y, optimize=False)

    np.testing.assert_array_equal(model.kernel.theta, theta_before)
    assert model.n_train == 20
    grid = rng.random((40, 3))
    mu_inc, var_inc = model.predict(grid)
    mu_ref, var_ref = reference.predict(grid)
    np.testing.assert_allclose(mu_inc, mu_ref, rtol=1e-8)
    # atol matches the 1e-12 variance floor of GPR.predict: near-zero
    # variances cancel in the last ulps between the incremental and the
    # refactored Cholesky.
    np.testing.assert_allclose(var_inc, var_ref, rtol=1e-8, atol=1e-12)


# ---------------------------------------------------------------------------
# L-BFGS-B searches through repro.optim.lbfgsb, against scipy's minimize
# ---------------------------------------------------------------------------
def oracle_optimize_hyperparameters(model, n_restarts, rng):
    """The previous ``GPR._optimize_hyperparameters``: one scipy
    ``minimize`` per restart. Returns ``(nlml, theta, success)``."""
    bounds = model._full_bounds()
    starts = [model._full_theta()]
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    for _ in range(max(0, n_restarts)):
        starts.append(rng.uniform(lo, hi))
    best_value, best_theta, any_success = np.inf, starts[0], False
    for start in starts:
        result = minimize(
            model._nlml_and_grad,
            np.clip(start, lo, hi),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": model.max_opt_iter},
        )
        if np.isfinite(result.fun) and result.fun < best_value:
            best_value = float(result.fun)
            best_theta = result.x.copy()
            any_success = any_success or bool(result.success)
    return best_value, best_theta, any_success


def oracle_msp_maximize(optimizer, acquisition, incumbent_low, incumbent_high):
    """The previous ``MSPOptimizer.maximize``: one scipy ``minimize`` per
    polish start. Returns ``(x, value, n_evaluations)``."""
    starts = optimizer.scatter(incumbent_low, incumbent_high)
    values = np.asarray(acquisition(starts), dtype=float).ravel()
    values = np.where(np.isfinite(values), values, -np.inf)
    eval_counter = [starts.shape[0]]
    order = np.argsort(values)[::-1]
    best_x = starts[order[0]].copy()
    best_value = float(values[order[0]])
    negative = optimizer._make_polish_objective(acquisition, eval_counter)
    bounds = [(0.0, 1.0)] * optimizer.dim
    for idx in order[: optimizer.n_polish]:
        result = minimize(
            negative,
            starts[idx],
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 50},
        )
        if np.isfinite(result.fun) and -result.fun > best_value:
            best_value = float(-result.fun)
            best_x = np.clip(result.x, 0.0, 1.0)
    return best_x, best_value, eval_counter[0]


@pytest.fixture(scope="module")
def opamp_shape():
    """One served op-amp iteration in miniature: 20 low / 5 high points in
    d = 5, and the low GP plus fused NARGP of an objective and four
    constraints, fit at the op-amp knobs (one restart, 40 iterations).
    The constraints ``g <= 0`` hold on most of the cube, so wEI is far
    from zero and the polish runs for many steps."""
    rng = np.random.default_rng(21)
    x_low, x_high = rng.random((20, 5)), rng.random((5, 5))
    low_models, fused_models = [], []
    for i, w in enumerate(rng.standard_normal((5, 5))):
        shift = 0.0 if i == 0 else 0.8
        y_low = np.sin(x_low @ w) - shift
        low = GPR(max_opt_iter=40).fit(x_low, y_low, n_restarts=1, rng=rng)
        fused = NARGP(n_restarts=1, max_opt_iter=40).fit(
            x_low, y_low,
            x_high, 1.5 * np.sin(x_high @ w) + 0.2 * (x_high @ w) ** 2 - shift,
            rng=rng, low_model=low,
        )
        low_models.append(low)
        fused_models.append(fused)
    return x_low, x_high, low_models, fused_models, rng.standard_normal(10)


def _recorded(fun, log):
    def wrapped(x):
        log.append(np.asarray(x).tobytes())
        return fun(x)

    return wrapped


@pytest.mark.parametrize("n_restarts", [1, 3])
@pytest.mark.parametrize("kernel_name", ["rbf", "eq9"])
def test_gpr_fit_matches_minimize_oracle_bitwise(
    opamp_shape, kernel_name, n_restarts
):
    """Each restart evaluates eq. 3 at the same thetas in the same order
    as the minimize loop, so the fit keeps the same bits."""
    x_low, _, low_models, fused_models, _ = opamp_shape
    high = fused_models[1].high_model
    if kernel_name == "rbf":
        x, y = x_low, low_models[1].y_train
    else:
        x, y = high.x_train, high.y_train

    def fresh():
        kernel = None if kernel_name == "rbf" else nargp_kernel(5)
        return GPR(kernel=kernel, max_opt_iter=40).fit(x, y, optimize=False)

    oracle_log, log = [], []
    oracle = fresh()
    oracle._nlml_and_grad = _recorded(oracle._nlml_and_grad, oracle_log)
    nlml, theta, success = oracle_optimize_hyperparameters(
        oracle, n_restarts, np.random.default_rng(5)
    )
    model = fresh()
    model._nlml_and_grad = _recorded(model._nlml_and_grad, log)
    model.fit(x, y, n_restarts=n_restarts, rng=np.random.default_rng(5))
    assert log == oracle_log and len(log) > n_restarts + 1
    assert model.train_result.nlml == nlml
    assert model.train_result.theta.tobytes() == theta.tobytes()
    assert model.train_result.success == success
    assert model._full_theta().tobytes() == theta.tobytes()


@pytest.mark.parametrize("fidelity", ["low", "fused"])
def test_msp_maximize_matches_minimize_oracle_bitwise(opamp_shape, fidelity):
    """Both polish starts query wEI (eq. 6) at the same stencils in the
    same order as the minimize loop: same point, value and count."""
    x_low, x_high, low_models, fused_models, z = opamp_shape
    if fidelity == "low":
        predictors = [m.predict for m in low_models]
    else:
        predictors = [lambda x, m=m: m.predict(x, z=z) for m in fused_models]
    acquisition = WeightedEI(predictors[0], predictors[1:], tau=0.0)
    incumbents = x_low[3], x_high[2]

    def optimizer():
        return MSPOptimizer(
            dim=5, n_starts=60, n_polish=2, rng=np.random.default_rng(9)
        )

    oracle_log, log = [], []
    oracle = oracle_msp_maximize(
        optimizer(), _recorded(acquisition, oracle_log), *incumbents
    )
    result = optimizer().maximize(_recorded(acquisition, log), *incumbents)
    assert log == oracle_log and len(log) > 10
    assert result.x.tobytes() == oracle[0].tobytes()
    assert result.value == oracle[1]
    assert result.n_evaluations == oracle[2]


# ---------------------------------------------------------------------------
# MSP batched polish
# ---------------------------------------------------------------------------
def test_msp_batched_jac_polish_finds_smooth_optimum():
    optimum = np.array([0.3, 0.7])

    calls = {"n": 0, "points": 0}

    def acquisition(x):
        x = np.atleast_2d(x)
        calls["n"] += 1
        calls["points"] += x.shape[0]
        return -np.sum((x - optimum) ** 2, axis=1)

    opt = MSPOptimizer(dim=2, n_starts=60, n_polish=3,
                       rng=np.random.default_rng(11))
    result = opt.maximize(acquisition)
    np.testing.assert_allclose(result.x, optimum, atol=1e-3)
    # The polish phase batches each finite-difference stencil into a
    # single acquisition call: d+1 points per call, so the number of
    # points dominates the number of calls.
    assert result.n_evaluations == calls["points"]
    assert calls["points"] > calls["n"]


def test_history_x_unit_matrix_tracks_records():
    problem = ForresterProblem()
    opt = MFBOptimizer(
        problem, budget=6.0, n_init_low=5, n_init_high=2,
        seed=13, msp_starts=20, n_restarts=1,
    )
    opt.run()
    stack = opt.history.x_unit_matrix
    assert stack.shape == (len(opt.history), problem.dim)
    reference = np.vstack([r.x_unit for r in opt.history.records])
    np.testing.assert_array_equal(stack, reference)
