"""Nonlinear two-fidelity Gaussian process fusion (NARGP).

Implements §3.1-§3.2 of the paper, following Perdikaris et al. (2017):

1. A standard GP ``f_l`` is trained on the low-fidelity data.
2. A second GP ``f_h`` is trained on **augmented** high-fidelity inputs
   ``[x, f_l(x)]`` with the fusion kernel of eq. (9)::

       k_h = k1(f_l(x1), f_l(x2)) * k2(x1, x2) + k3(x1, x2)

3. At prediction time the low-fidelity posterior is *integrated out* by
   Monte-Carlo (paper eq. 10): low-fidelity posterior samples are pushed
   through the high-fidelity GP and the resulting Gaussian mixture is
   moment-matched.
"""

from __future__ import annotations

import numpy as np

from ..gp.gpr import GPR
from ..gp.kernels import nargp_kernel
from ..obs import span
from ..rng import ensure_rng

__all__ = ["NARGP"]


class NARGP:
    """Two-fidelity nonlinear auto-regressive GP model.

    Parameters
    ----------
    n_mc_samples:
        Number of Monte-Carlo samples used to integrate out the
        low-fidelity posterior in :meth:`predict`.
    n_restarts:
        Hyperparameter-training restarts for both internal GPs.
    max_opt_iter:
        L-BFGS-B iteration cap per restart of both internal GPs.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.mf import NARGP
    >>> rng = np.random.default_rng(0)
    >>> xl = np.linspace(0, 1, 20)[:, None]
    >>> xh = xl[::5]
    >>> f_low = lambda x: np.sin(8 * np.pi * x[:, 0])
    >>> f_high = lambda x: (x[:, 0] - np.sqrt(2)) * f_low(x) ** 2
    >>> model = NARGP(n_restarts=1).fit(xl, f_low(xl), xh, f_high(xh), rng=rng)
    >>> mu, var = model.predict(xl)
    >>> mu.shape, var.shape
    ((20,), (20,))
    """

    def __init__(
        self,
        n_mc_samples: int = 64,
        n_restarts: int = 3,
        max_opt_iter: int = 100,
    ):
        if n_mc_samples < 1:
            raise ValueError("n_mc_samples must be >= 1")
        self.n_mc_samples = int(n_mc_samples)
        self.n_restarts = int(n_restarts)
        self.max_opt_iter = int(max_opt_iter)
        self.low_model: GPR | None = None
        self.high_model: GPR | None = None
        self._dim: int | None = None

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(
        self,
        x_low: np.ndarray,
        y_low: np.ndarray,
        x_high: np.ndarray,
        y_high: np.ndarray,
        rng: np.random.Generator | None = None,
        low_model: GPR | None = None,
    ) -> "NARGP":
        """Train the low-fidelity GP and the fused high-fidelity GP.

        ``x_low``/``x_high`` need not share rows; the low-fidelity
        posterior mean provides ``f_l`` at the high-fidelity sites
        (paper §3.2).

        Parameters
        ----------
        low_model:
            An already-trained low-fidelity :class:`~repro.gp.GPR` to
            reuse (the BO loop fits the low GP once per iteration for the
            low-fidelity acquisition and shares it here). When omitted a
            fresh GP is fit on ``(x_low, y_low)``.
        """
        rng = ensure_rng(rng)
        x_low = np.atleast_2d(np.asarray(x_low, dtype=float))
        x_high = np.atleast_2d(np.asarray(x_high, dtype=float))
        if x_low.shape[1] != x_high.shape[1]:
            raise ValueError(
                "low- and high-fidelity inputs must share dimensionality"
            )
        self._dim = x_low.shape[1]

        if low_model is not None:
            self.low_model = low_model
        else:
            self.low_model = GPR(max_opt_iter=self.max_opt_iter)
            self.low_model.fit(x_low, y_low, n_restarts=self.n_restarts, rng=rng)

        mu_low_at_high = self.low_model.predict_mean(x_high)
        augmented = np.column_stack([x_high, mu_low_at_high])
        self.high_model = GPR(
            kernel=nargp_kernel(self._dim), max_opt_iter=self.max_opt_iter
        )
        with span("nargp.fit", n_high=int(x_high.shape[0])):
            self.high_model.fit(
                augmented, y_high, n_restarts=self.n_restarts, rng=rng
            )
        return self

    def _require_fit(self) -> None:
        if self.low_model is None or self.high_model is None:
            raise RuntimeError("model has not been fit")

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict(
        self,
        x_star: np.ndarray,
        rng: np.random.Generator | None = None,
        n_mc_samples: int | None = None,
        z: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """High-fidelity posterior via Monte-Carlo fusion (paper eq. 10).

        Low-fidelity posterior samples ``y_l ~ N(mu_l, var_l)`` are pushed
        through the high-fidelity GP; the resulting mixture of Gaussians
        is moment-matched to return a mean and variance per test point.

        Parameters
        ----------
        z:
            Optional fixed standard-normal draws of shape ``(n_mc,)``
            (common random numbers). Passing the same ``z`` makes the
            prediction a deterministic function of ``x_star``, which the
            acquisition optimizer requires within one BO iteration.
        """
        self._require_fit()
        if z is not None:
            z = np.asarray(z, dtype=float).ravel()
            n_mc = z.size
        else:
            n_mc = n_mc_samples if n_mc_samples is not None else self.n_mc_samples
        if n_mc < 1:
            raise ValueError(
                f"empty Monte-Carlo draw: {n_mc} low-fidelity samples "
                "requested, fused prediction needs at least one"
            )
        x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
        mu_low, var_low = self.low_model.predict(x_star)
        if z is not None:
            draws = z[:, None]  # one draw per sample, shared by every point
        else:
            draws = ensure_rng(rng).standard_normal((n_mc, x_star.shape[0]))
        low_samples = mu_low[None, :] + np.sqrt(var_low)[None, :] * draws

        mu_s, var_s = self._fused_predict_batched(x_star, low_samples)
        # Sum then divide is what np.mean does, without its per-call
        # argument handling.
        mu = mu_s.sum(axis=0) / n_mc
        second_moment = (var_s + mu_s * mu_s).sum(axis=0) / n_mc
        var = second_moment - mu * mu
        return mu, np.maximum(var, 1e-12)

    def _fused_predict_batched(
        self, x_star: np.ndarray, low_samples: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """High-fidelity posterior for a ``(n_mc, m)`` stack of
        low-fidelity samples, as one batched linear-algebra pass.

        The high GP's kernel is eq. 9's ``k1(f, f') * k2(x, x') +
        k3(x, x')`` as :func:`~repro.gp.kernels.nargp_kernel` builds it.
        The x-dependent factors ``k2``/``k3`` are identical across all
        Monte-Carlo samples and are evaluated once on ``(m, n_train)``
        instead of ``n_mc`` times; only the cheap 1-D ``k1`` factor is
        evaluated on the full stack.
        """
        high = self.high_model
        n_mc, n = low_samples.shape
        d = x_star.shape[1]
        kernel = high.kernel
        k1, k2, k3 = kernel.left.left, kernel.left.right, kernel.right
        x_train = high.x_train  # augmented training inputs (n_h, d + 1)
        # k2 and k3 share their active dims, hence one (m, n_h, d)
        # squared-difference tensor; the f column never enters it.
        sq_diffs = k2._sq_diffs(x_star, x_train)
        k2_x = k2._from_sq_diffs(sq_diffs)
        k3_x = k3._from_sq_diffs(sq_diffs)
        f_train = x_train[:, d]  # low-fidelity outputs at training sites
        # k1 factor over all samples, assembled in place: exp work is the
        # irreducible cost, everything else reuses the one buffer.
        k_star = low_samples.reshape(-1, 1) - f_train[None, :]  # (n_mc*n, n_h)
        np.multiply(k_star, k_star, out=k_star)
        k_star *= -0.5 * k1._inv_sq_lengthscales[0]
        np.exp(k_star, out=k_star)
        k_star *= k1.variance
        stacked = k_star.reshape(n_mc, n, -1)
        stacked *= k2_x[None, :, :]
        stacked += k3_x[None, :, :]
        # Stationary factors: diag k_h = v1 * v2 + v3 at every point.
        prior_diag = np.full(n_mc * n, k1.variance * k2.variance + k3.variance)
        # Pass the mutated array, not k_star: reshape aliases today, but
        # correctness must not hinge on contiguity.
        mu, var = high.predict_from_cross(
            stacked.reshape(n_mc * n, -1), prior_diag
        )
        return mu.reshape(n_mc, n), var.reshape(n_mc, n)

    def predict_mean_path(
        self, x_star: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic fusion: push only the low-fidelity *mean* through
        the high-fidelity GP.

        Ignores low-fidelity uncertainty, so it under-estimates the
        predictive variance, but it is ``n_mc`` times cheaper and is what
        the acquisition optimizer uses for its many inner evaluations.
        """
        self._require_fit()
        x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
        mu_low = self.low_model.predict_mean(x_star)
        augmented = np.column_stack([x_star, mu_low])
        return self.high_model.predict(augmented)
