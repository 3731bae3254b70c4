"""Equivalence guards for the vectorized/cached hot paths.

Every performance shortcut in the GP stack — kernel workspace caching,
the single-Cholesky NLML gradient, batched NARGP Monte-Carlo fusion,
incremental Cholesky updates, the stacked likelihood and the lockstep
``setulb`` L-BFGS-B loop — must produce the same numbers as the
straightforward reference computation. These tests pin that equivalence
to tight tolerances, or bit for bit, on seeded data.
"""

import copy
from collections import defaultdict

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
from repro.gp import gpr as gpr_module
from repro.gp.gpr import Likelihood, _stack_like
from repro.gp.kernels import RBF, Product, Sum, nargp_kernel
from repro.gp.linalg import (
    JITTER_LADDER,
    CholeskyError,
    cho_solve,
    chol_append,
    jitter_cholesky,
    log_det_from_chol,
    solve_lower,
)
from repro.mf import NARGP
from repro.optim import lbfgsb as lbfgsb_module
from repro.optim.msp import MSPOptimizer
from repro.problems import ForresterProblem, pedagogical_high, pedagogical_low


# ---------------------------------------------------------------------------
# stacked kernel passes and the stacked likelihood
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


def _stack_pass(kernel, x, thetas):
    """K and the traces function of a stacked pass over ``thetas``."""
    sq_diffs = [sq[None] for sq in kernel.sq_diffs_by_leaf(x)]
    return kernel.stack_value_and_traces(np.asarray(thetas), sq_diffs)


def _symmetric(rng, n):
    w = rng.standard_normal((n, n))
    return 0.5 * (w + w.T)


@KERNELS
def test_workspace_matches_fresh_evaluation(make_kernel):
    """K(x, x) and its gradient traces from the squared-difference
    workspace (``sq_diffs_by_leaf``, which a likelihood builds once per
    fit and reuses at every theta) are identical to a pass over freshly
    built squared differences, including after theta updates and after
    earlier passes; and each member's K equals ``kernel(x)`` at its
    theta (the SE formula evaluated per member instead of on the
    (n, n, d) tensor)."""
    kernel = make_kernel()
    rng = np.random.default_rng(0)
    x = rng.random((15, 4))
    inner = np.stack([_symmetric(rng, 15).ravel() for _ in range(4)])
    workspace = [sq[None] for sq in kernel.sq_diffs_by_leaf(x)]

    def assert_same(thetas):
        k_ws, traces_ws = kernel.stack_value_and_traces(thetas, workspace)
        k, traces = _stack_pass(kernel, x, thetas)
        assert k_ws.tobytes() == k.tobytes()
        assert traces_ws(inner).tobytes() == traces(inner).tobytes()
        for theta, k_member in zip(thetas, k):
            kernel.theta = theta
            np.testing.assert_allclose(
                k_member.reshape(15, 15), kernel(x), rtol=1e-13, atol=1e-300
            )

    assert_same(kernel.theta + rng.normal(scale=0.3, size=(4, kernel.n_params)))
    # The workspace is theta-independent: new thetas, and a new theta in
    # the kernel itself, must still reproduce the fresh evaluation.
    kernel.theta = kernel.theta + rng.normal(scale=0.3, size=kernel.n_params)
    assert_same(kernel.theta + rng.normal(scale=0.3, size=(4, kernel.n_params)))


@KERNELS
def test_stacked_pass_is_member_stable(make_kernel):
    """A member's K and traces are the same bits alone, first, last or in
    the middle of a stack, and with shared or per-member inputs."""
    kernel = make_kernel()
    rng = np.random.default_rng(1)
    x = rng.random((11, 4))
    thetas = kernel.theta + rng.normal(scale=0.4, size=(5, kernel.n_params))
    inner = np.stack([_symmetric(rng, 11).ravel() for _ in range(5)])
    k, traces = _stack_pass(kernel, x, thetas)
    together = k.copy(), traces(inner)
    per_member = [_stack_like([sq] * 5) for sq in kernel.sq_diffs_by_leaf(x)]
    k_own, traces_own = kernel.stack_value_and_traces(thetas, per_member)
    assert k_own.tobytes() == together[0].tobytes()
    assert traces_own(inner).tobytes() == together[1].tobytes()
    for i in range(5):
        for rows in ([i], [i, (i + 1) % 5], [(i + 2) % 5, (i + 4) % 5, i]):
            k_sub, traces_sub = _stack_pass(kernel, x, thetas[rows])
            at = rows.index(i)
            assert k_sub[at].tobytes() == together[0][i].tobytes()
            assert (
                traces_sub(inner[rows])[at].tobytes()
                == together[1][i].tobytes()
            )


@KERNELS
def test_gradient_traces_match_gradient_stack(make_kernel, dense_gradients):
    """The closed-form trace contraction of a stacked pass equals
    contracting the full (n_params, n, n) gradient stack."""
    kernel = make_kernel()
    rng = np.random.default_rng(14)
    x = rng.random((12, 4))
    inner = _symmetric(rng, 12)
    reference = np.tensordot(
        dense_gradients(kernel, x), inner, axes=([1, 2], [0, 1])
    )
    _, traces = _stack_pass(kernel, x, kernel.theta[None])
    np.testing.assert_allclose(
        traces(inner.reshape(1, -1))[0], reference, rtol=1e-10, atol=1e-12
    )


def test_workspace_guarded_by_input_identity():
    """A likelihood shares a leaf's squared-difference workspace only
    between models whose inputs to that leaf are equal: a model on a
    different array of the same shape gets its own tensors, and each
    member keeps the bits of its model's own likelihood. Eq. 9's GPs
    share the x-part (``k2``, ``k3``) and keep ``k1``'s per model."""
    rng = np.random.default_rng(15)
    x = rng.random((8, 2))
    other = rng.random((8, 2))
    y = rng.standard_normal(8)
    f_low = [np.sin(3.0 * x[:, 0]), np.cos(2.0 * x[:, 1])]

    def model(x_train, kernel=None):
        return GPR(kernel=kernel).fit(x_train, y, optimize=False)

    cases = [
        ([model(x), model(x.copy())], [1]),
        ([model(x), model(other)], [2]),
        (
            [model(np.column_stack([x, f]), nargp_kernel(2)) for f in f_low],
            [2, 1, 1],
        ),
    ]
    for models, stack_sizes in cases:
        likelihood = Likelihood(models)
        assert [sq.shape[0] for sq in likelihood._sq_diffs] == stack_sizes
        theta = models[0]._full_theta() + 0.1
        values, grads = likelihood(np.stack([theta, theta]), np.array([0, 1]))
        for i, member in enumerate(models):
            alone = Likelihood([member])(theta[None], np.zeros(1, int))
            assert values[i] == alone[0][0]
            assert grads[i].tobytes() == alone[1][0].tobytes()
        if stack_sizes != [1]:
            assert values[0] != values[1]


def test_workspace_ignored_for_cross_covariances():
    """A fit builds the training set's squared-difference workspace and
    evaluates eq. 3 on it at every theta; none of it may leak into
    K(x*, x). After the fit, the model's cross covariances and
    predictions are those of a fresh kernel at the fitted theta, at test
    points of the training set's own shape."""
    rng = np.random.default_rng(1)
    x = rng.random((10, 2))
    y = np.sin(3.0 * x).sum(axis=1)
    x_star = rng.random((10, 2))
    model = GPR(kernel=RBF(2, lengthscales=[0.4, 0.9]), max_opt_iter=20)
    model.fit(x, y, n_restarts=1, rng=rng)
    fresh_kernel = RBF(2)
    fresh_kernel.theta = model.kernel.theta
    k_star = fresh_kernel(x_star, x)
    assert model.kernel(x_star, x).tobytes() == k_star.tobytes()
    assert not np.array_equal(k_star, fresh_kernel(x))
    fresh = GPR(kernel=fresh_kernel)
    fresh._set_full_theta(model._full_theta())
    fresh.fit(x, y, optimize=False)
    assert _bits(*model.predict(x_star)) == _bits(*fresh.predict(x_star))


@pytest.mark.parametrize("make_kernel", [lambda: RBF(3), lambda: nargp_kernel(2)])
def test_traces_belong_to_the_theta_of_their_pass(make_kernel):
    """A theta write after a stacked pass leaves its traces as they were:
    they contract the factors of that pass. The pass reads the theta it
    is given, never the kernel's own."""
    kernel = make_kernel()
    rng = np.random.default_rng(22)
    x = rng.random((9, 3))
    thetas = kernel.theta + rng.normal(scale=0.3, size=(2, kernel.n_params))
    inner = np.stack([_symmetric(rng, 9).ravel() for _ in range(2)])
    k, traces = _stack_pass(kernel, x, thetas)
    expected = k.copy(), traces(inner)
    kernel.theta = kernel.theta + 0.5
    k_again, traces_again = _stack_pass(kernel, x, thetas)
    assert k_again.tobytes() == expected[0].tobytes()
    assert traces_again(inner).tobytes() == expected[1].tobytes()
    assert traces(inner).tobytes() == expected[1].tobytes()


def _nlml_at(model, theta):
    """One model's likelihood at one theta, through the stacked pass."""
    values, grads = Likelihood([model])(np.asarray(theta)[None], np.zeros(1, int))
    return float(values[0]), grads[0]


def test_nlml_and_grad_matches_reference_formulation(dense_gradients):
    """The stacked NLML/gradient equals the textbook dense-inverse
    formulation (the seed implementation)."""
    rng = np.random.default_rng(2)
    x = rng.random((25, 3))
    y = np.sin(x @ np.array([2.0, -1.0, 0.5])) + 0.05 * rng.standard_normal(25)
    model = GPR().fit(x, y, n_restarts=1, rng=rng)

    theta = np.concatenate([model.kernel.theta, [np.log(model.noise_variance)]])
    for probe in (theta, theta + 0.2, theta - 0.3):
        nlml, grad = _nlml_at(model, probe)

        # reference: fresh kernel evaluation, explicit K^{-1}
        from scipy.linalg import cho_solve as ref_cho_solve

        model._set_full_theta(probe)
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


# The likelihood oracle: GPR._nlml_and_grad and Kernel.value_and_traces
# as they were before the stacked likelihood, kept verbatim (with the
# kernel workspace, which only cached _sq_diffs, inlined): one model, one
# theta written into the model, scipy-exact LAPACK calls.
def reference_value_and_traces(kernel, x):
    if isinstance(kernel, RBF):
        sq_diffs = kernel._sq_diffs(x)
        k = kernel._from_sq_diffs(sq_diffs)
        inv_sq = kernel._inv_sq_lengthscales

        def traces(inner):
            w = inner * k
            n2 = w.size
            out = np.empty(1 + inv_sq.size)
            out[0] = w.sum()
            out[1:] = (w.reshape(n2) @ sq_diffs.reshape(n2, -1)) * inv_sq
            return out

        return k, traces
    k_left, left_traces = reference_value_and_traces(kernel.left, x)
    k_right, right_traces = reference_value_and_traces(kernel.right, x)
    if isinstance(kernel, Sum):
        return k_left + k_right, lambda inner: np.concatenate(
            [left_traces(inner), right_traces(inner)]
        )
    return k_left * k_right, lambda inner: np.concatenate(
        [left_traces(inner * k_right), right_traces(inner * k_left)]
    )


def reference_nlml_and_grad(model, theta):
    model._set_full_theta(theta)
    y = model._y_train
    k_noise_free, traces = reference_value_and_traces(model.kernel, model._x_train)
    try:
        lower, _ = jitter_cholesky(k_noise_free + model.noise_variance * model._eye)
    except CholeskyError:
        return 1e25, np.zeros_like(theta)
    alpha = cho_solve(lower, y)
    nlml = 0.5 * (
        float(y @ alpha) + log_det_from_chol(lower) + y.size * np.log(2.0 * np.pi)
    )
    if not np.isfinite(nlml):
        return 1e25, np.zeros_like(theta)
    lower_inv = solve_lower(lower, model._eye)
    inner = lower_inv.T @ lower_inv - alpha[:, None] * alpha
    grad = np.empty(theta.size)
    grad[:-1] = 0.5 * traces(inner)
    grad[-1] = 0.5 * model.noise_variance * float(inner.trace())
    return nlml, grad


# The reference's own oracle: the likelihood as it was before the direct
# LAPACK calls and the one-pass kernel traces: scipy.linalg for the
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


def _likelihood_probes(kernel_name):
    """A model on a training set with repeated designs, and thetas: the
    default, shifted ones, draws over the box, and a near-singular K
    (a noise far below its bound) that climbs the jitter ladder."""
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
    bounds = np.array(model._full_bounds())
    theta0 = model._full_theta()
    probes = [theta0, theta0 + 0.3, theta0 - 0.4]
    probes += list(rng.uniform(bounds[:, 0], bounds[:, 1], size=(6, theta0.size)))
    near_singular = theta0.copy()
    near_singular[-1] = np.log(1e-20)
    probes += [near_singular, theta0]
    return model, probes


@pytest.mark.parametrize("kernel_name", ["rbf", "eq9"])
def test_nlml_and_grad_matches_oracle_bitwise(kernel_name):
    """The likelihood reference (the single-model ``_nlml_and_grad``,
    moved here) has the oracle's value and gradient bytes at several
    theta, including a near-singular K that climbs the jitter ladder.
    Every call writes a new theta, and the kernel's own theta is also
    written between calls, so factors cached across a theta write would
    fail."""
    model, probes = _likelihood_probes(kernel_name)
    oracle = copy.deepcopy(model)
    rng = np.random.default_rng(23)
    bounds = np.array(model._full_bounds())
    for theta in probes:
        value, grad = reference_nlml_and_grad(model, theta)
        expected_value, expected_grad = oracle_nlml_and_grad(oracle, theta)
        assert float(value) == float(expected_value)
        assert grad.tobytes() == expected_grad.tobytes()
        model.kernel.theta = rng.uniform(bounds[:-1, 0], bounds[:-1, 1])


@pytest.mark.parametrize("kernel_name", ["rbf", "eq9"])
def test_stacked_likelihood_matches_reference(kernel_name):
    """The stacked likelihood equals the reference to ``10 kappa eps``
    relative, value and gradient alike, member by member in one stack
    of every probe, where ``kappa`` is the condition number of the
    probe's covariance and ``eps`` machine epsilon.

    The two compute the same quantities from the same inputs and differ
    only in how the float operations are grouped: per-member mat-vecs
    for K, numpy's Cholesky, ``dtrtri`` for L^-1 and ``||L^-1 y||^2``
    for ``y^T K^-1 y``. Backward-stable rearrangements of a solve with
    K agree to about ``kappa eps`` relative, so that is the bound; the
    probes' differences stay within 2 ``kappa eps``. At the near-singular
    probe (kappa ~ 1e19) the gradient has no correct digits in either,
    and only the value is pinned by the bound.
    """
    model, probes = _likelihood_probes(kernel_name)
    reference = copy.deepcopy(model)
    values, grads = Likelihood([model])(
        np.array(probes), np.zeros(len(probes), int)
    )
    eps = np.finfo(float).eps
    for theta, value, grad in zip(probes, values, grads):
        expected_value, expected_grad = reference_nlml_and_grad(reference, theta)
        n = reference.n_train
        k = reference.kernel(reference.x_train) + reference.noise_variance * np.eye(n)
        bound = 10.0 * np.linalg.cond(k) * eps
        assert abs(value - expected_value) <= bound * max(1.0, abs(expected_value))
        scale = max(1.0, float(np.abs(expected_grad).max()))
        assert float(np.abs(grad - expected_grad).max()) <= bound * scale


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
def oracle_optimize_hyperparameters(model, n_restarts, rng, logs):
    """The sequential fit: one scipy ``minimize`` per restart over the
    stacked likelihood at r = 1, logging start ``s``'s thetas in
    ``logs[s]``. Returns the chosen start's ``(nlml, theta, success)``."""
    likelihood = Likelihood([model])
    bounds = model._full_bounds()
    starts = [model._full_theta()]
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    for _ in range(max(0, n_restarts)):
        starts.append(rng.uniform(lo, hi))
    best_value, best_theta, best_success = np.inf, starts[0], False
    for start, log in zip(starts, logs):

        def fun(theta, log=log):
            log.append(theta.tobytes())
            values, grads = likelihood(theta[None], np.zeros(1, int))
            return float(values[0]), grads[0]

        result = minimize(
            fun,
            np.clip(start, lo, hi),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": model.max_opt_iter},
        )
        if np.isfinite(result.fun) and result.fun < best_value:
            best_value = float(result.fun)
            best_theta = result.x.copy()
            best_success = bool(result.success)
    return best_value, best_theta, best_success


def oracle_polish_objective(acquisition, dim, eval_counter):
    """The previous one-start MSP polish objective, verbatim: negated
    acquisition with a (d + 1)-point forward-difference stencil."""
    step = float(np.sqrt(np.finfo(float).eps))

    def negative_and_grad(x_flat):
        x0 = np.asarray(x_flat, dtype=float).ravel()
        steps = np.where(x0 + step <= 1.0, step, -step)
        batch = np.vstack([x0[None, :], x0[None, :] + np.diag(steps)])
        eval_counter[0] += batch.shape[0]
        values = np.asarray(acquisition(batch), dtype=float).ravel()
        f0 = values[0]
        if not np.isfinite(f0):
            return 1e25, np.zeros(dim)
        grad = (values[1:] - f0) / steps
        grad[~np.isfinite(grad)] = 0.0
        return -float(f0), -grad

    return negative_and_grad


def oracle_msp_maximize(optimizer, acquisition, incumbent_low, incumbent_high):
    """The sequential ``MSPOptimizer.maximize``: one scipy ``minimize``
    per polish start. Returns ``(x, value, n_evaluations)``."""
    starts = optimizer.scatter(incumbent_low, incumbent_high)
    values = np.asarray(acquisition(starts), dtype=float).ravel()
    values = np.where(np.isfinite(values), values, -np.inf)
    eval_counter = [starts.shape[0]]
    order = np.argsort(values)[::-1]
    best_x = starts[order[0]].copy()
    best_value = float(values[order[0]])
    negative = oracle_polish_objective(acquisition, optimizer.dim, eval_counter)
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


def _recording_lbfgsb(monkeypatch, module):
    """Route ``module``'s lockstep searches through a wrapper that logs
    each search's evaluated points; returns the per-search logs."""
    logs = defaultdict(list)
    real = lbfgsb_module.lbfgsb

    def recording(fun, *args):
        def wrapped(x, rows):
            for point, row in zip(x, rows):
                logs[int(row)].append(point.tobytes())
            return fun(x, rows)

        return real(wrapped, *args)

    monkeypatch.setattr(module, "lbfgsb", recording)
    return logs


@pytest.mark.parametrize("n_restarts", [1, 3])
@pytest.mark.parametrize("kernel_name", ["rbf", "eq9"])
def test_gpr_fit_matches_minimize_oracle_bitwise(
    opamp_shape, kernel_name, n_restarts, monkeypatch
):
    """Each restart evaluates eq. 3 at the same thetas in the same order
    as its own minimize run over the stacked likelihood at r = 1, so the
    lockstep fit keeps the same bits and reports the chosen start."""
    x_low, _, low_models, fused_models, _ = opamp_shape
    high = fused_models[1].high_model
    if kernel_name == "rbf":
        x, y = x_low, low_models[1].y_train
    else:
        x, y = high.x_train, high.y_train

    def fresh():
        kernel = None if kernel_name == "rbf" else nargp_kernel(5)
        return GPR(kernel=kernel, max_opt_iter=40).fit(x, y, optimize=False)

    oracle_logs = [[] for _ in range(n_restarts + 1)]
    nlml, theta, success = oracle_optimize_hyperparameters(
        fresh(), n_restarts, np.random.default_rng(5), oracle_logs
    )
    logs = _recording_lbfgsb(monkeypatch, gpr_module)
    model = fresh()
    model.fit(x, y, n_restarts=n_restarts, rng=np.random.default_rng(5))
    assert [logs[s] for s in range(n_restarts + 1)] == oracle_logs
    assert all(len(log) > 1 for log in oracle_logs)
    assert model.train_result.nlml == nlml
    assert model.train_result.theta.tobytes() == theta.tobytes()
    assert model.train_result.success == success
    assert model._full_theta().tobytes() == theta.tobytes()


@pytest.mark.parametrize("fidelity", ["low", "fused"])
def test_msp_maximize_matches_minimize_oracle_bitwise(opamp_shape, fidelity):
    """With one polish start, the polish queries wEI (eq. 6) at the same
    stencils in the same order as the minimize loop: same point, value
    and count."""
    x_low, x_high, low_models, fused_models, z = opamp_shape
    if fidelity == "low":
        predictors = [m.predict for m in low_models]
    else:
        predictors = [lambda x, m=m: m.predict(x, z=z) for m in fused_models]
    acquisition = WeightedEI(predictors[0], predictors[1:], tau=0.0)
    incumbents = x_low[3], x_high[2]

    def optimizer():
        return MSPOptimizer(
            dim=5, n_starts=60, n_polish=1, rng=np.random.default_rng(9)
        )

    oracle_log, log = [], []
    oracle = oracle_msp_maximize(
        optimizer(), _recorded(acquisition, oracle_log), *incumbents
    )
    result = optimizer().maximize(_recorded(acquisition, log), *incumbents)
    # the scatter, then at least five polish steps
    assert log == oracle_log and len(log) > 6
    assert result.x.tobytes() == oracle[0].tobytes()
    assert result.value == oracle[1]
    assert result.n_evaluations == oracle[2]


def test_msp_lockstep_polish_matches_sequential_polish_bitwise():
    """On an acquisition whose rows do not depend on each other, the
    lockstep polish of three starts ends where three sequential minimize
    polishes do: same point, value and evaluation count."""
    centers = np.array([[0.3, 0.7, 0.2], [0.8, 0.1, 0.5]])

    def acquisition(x):
        x = np.atleast_2d(x)
        bumps = [np.exp(-8.0 * ((x - c) ** 2).sum(axis=1)) for c in centers]
        return bumps[0] + 0.8 * bumps[1] + 0.05 * np.sin(7.0 * x).sum(axis=1)

    def optimizer():
        return MSPOptimizer(
            dim=3, n_starts=40, n_polish=3, rng=np.random.default_rng(17)
        )

    oracle = oracle_msp_maximize(optimizer(), acquisition, None, None)
    result = optimizer().maximize(acquisition)
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
