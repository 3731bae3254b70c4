"""Exact Gaussian process regression with marginal-likelihood training.

Implements §2.3 of the paper: a zero-mean GP with a user-supplied kernel
and Gaussian observation noise, trained by minimizing the negative log
marginal likelihood (paper eq. 3) with analytic gradients and
multi-restart L-BFGS-B.

Targets are standardized internally (zero mean, unit variance over the
training set) so kernel hyperparameter bounds behave uniformly across
problems; predictions are mapped back to the original scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..obs import span
from ..optim.lbfgsb import lbfgsb
from ..rng import ensure_rng
from .kernels import RBF, Kernel
from .linalg import (
    CholeskyError,
    cho_solve,
    chol_append,
    jitter_cholesky,
    log_det_from_chol,
    solve_lower,
)

__all__ = ["GPR", "TrainResult"]

_LOG_NOISE_BOUNDS = (np.log(1e-8), np.log(1.0))
_LOG_2PI = np.log(2.0 * np.pi)


@dataclass
class TrainResult:
    """Outcome of one hyperparameter optimization run."""

    nlml: float
    theta: np.ndarray
    n_restarts: int
    success: bool


class GPR:
    """Exact GP regression model.

    Parameters
    ----------
    kernel:
        Covariance function. Defaults to an ARD :class:`RBF` sized on the
        first call to :meth:`fit`.
    noise_variance:
        Initial observation-noise variance (standardized-target units).
    max_opt_iter:
        L-BFGS-B iteration cap per hyperparameter-training restart;
        lower it for cheap-and-cheerful fits inside tight BO loops.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.gp import GPR
    >>> x = np.linspace(0, 1, 8)[:, None]
    >>> y = np.sin(4 * x[:, 0])
    >>> model = GPR().fit(x, y, n_restarts=2, rng=np.random.default_rng(0))
    >>> mu, var = model.predict(x)
    >>> bool(np.allclose(mu, y, atol=0.1))
    True
    """

    def __init__(
        self,
        kernel: Kernel | None = None,
        noise_variance: float = 1e-4,
        max_opt_iter: int = 100,
    ) -> None:
        if not 0.0 < noise_variance < math.inf:
            raise ValueError("noise_variance must be positive and finite")
        if max_opt_iter < 1:
            raise ValueError("max_opt_iter must be >= 1")
        self.max_opt_iter = int(max_opt_iter)
        self.kernel = kernel
        self._set_log_noise(float(np.log(noise_variance)))
        self._x_train: np.ndarray | None = None
        self._y_raw: np.ndarray | None = None
        self._y_train: np.ndarray | None = None
        self._y_shift = 0.0
        self._y_scale = 1.0
        self._chol: np.ndarray | None = None
        self._alpha: np.ndarray | None = None
        self._lower_inv: np.ndarray | None = None
        self._jitter = 0.0
        self._workspace: dict | None = None
        self.train_result: TrainResult | None = None

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def noise_variance(self) -> float:
        """Observation-noise variance in standardized-target units."""
        return self._noise_variance

    def _set_log_noise(self, log_noise: float) -> None:
        """Store the log noise variance and derive the variance once per
        write; the likelihood and every prediction read it."""
        self._log_noise = log_noise
        self._noise_variance = float(np.exp(log_noise))

    @property
    def x_train(self) -> np.ndarray:
        if self._x_train is None:
            raise RuntimeError("model has not been fit")
        return self._x_train

    @property
    def y_train(self) -> np.ndarray:
        """Training targets in their original (unstandardized) scale."""
        if self._y_raw is None:
            raise RuntimeError("model has not been fit")
        return self._y_raw

    @property
    def n_train(self) -> int:
        return 0 if self._x_train is None else self._x_train.shape[0]

    # ------------------------------------------------------------------
    # data handling
    # ------------------------------------------------------------------
    def _set_data(self, x: np.ndarray, y: np.ndarray) -> None:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError(
                f"x has {x.shape[0]} rows but y has {y.shape[0]} entries"
            )
        if x.shape[0] == 0:
            raise ValueError("cannot fit a GP on an empty dataset")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("training data must be finite")
        self._x_train = x
        self._y_raw = y.copy()
        self._eye = np.eye(x.shape[0])
        self._y_shift = float(np.mean(y))
        scale = float(np.std(y))
        self._y_scale = scale if scale > 1e-12 else 1.0
        self._y_train = (y - self._y_shift) / self._y_scale
        if self.kernel is None:
            self.kernel = RBF(x.shape[1], lengthscales=0.5)
        self._workspace = None

    def _get_workspace(self) -> dict:
        """Theta-independent kernel workspace for the current training set,
        built lazily and reused across every objective/gradient call of
        one hyperparameter search."""
        if self._workspace is None:
            self._workspace = self.kernel.make_workspace(self._x_train)
        return self._workspace

    # ------------------------------------------------------------------
    # marginal likelihood
    # ------------------------------------------------------------------
    def _full_theta(self) -> np.ndarray:
        return np.concatenate([self.kernel.theta, [self._log_noise]])

    def _set_full_theta(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float).ravel()
        self.kernel.theta = theta[:-1]
        self._set_log_noise(float(theta[-1]))

    def _full_bounds(self) -> list[tuple[float, float]]:
        return self.kernel.bounds + [_LOG_NOISE_BOUNDS]

    def _nlml_and_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Negative log marginal likelihood (eq. 3) and its gradient.

        One kernel pass yields ``K`` and the trace contraction over the
        same factor matrices, and one Cholesky factorization serves the
        likelihood value and every gradient term; the theta-independent
        kernel workspace is shared across all calls of one L-BFGS-B run.
        """
        self._set_full_theta(theta)
        y = self._y_train
        k_noise_free, traces = self.kernel.value_and_traces(
            self._x_train, self._get_workspace()
        )
        try:
            lower, _ = jitter_cholesky(k_noise_free + self.noise_variance * self._eye)
        except CholeskyError:
            return 1e25, np.zeros_like(theta)
        alpha = cho_solve(lower, y)
        nlml = 0.5 * (
            float(y @ alpha) + log_det_from_chol(lower) + y.size * _LOG_2PI
        )
        if not math.isfinite(nlml):
            return 1e25, np.zeros_like(theta)
        # dNLML/dtheta_j = 0.5 tr((K^-1 - alpha alpha^T) dK/dtheta_j)
        # (Rasmussen & Williams 2006, eq. 5.9), with K^-1 = L^-T L^-1
        # assembled from one triangular solve and the trace contracted
        # kernel-side without materializing dK stacks.
        lower_inv = solve_lower(lower, self._eye)
        inner = lower_inv.T @ lower_inv - alpha[:, None] * alpha
        grad = np.empty(theta.size)
        grad[:-1] = 0.5 * traces(inner)
        # noise term: dK/d log(sigma_n^2) = sigma_n^2 * I
        grad[-1] = 0.5 * self.noise_variance * float(inner.trace())
        return nlml, grad

    def nlml(self) -> float:
        """Negative log marginal likelihood at the current hyperparameters."""
        if self._x_train is None:
            raise RuntimeError("model has not been fit")
        value, _ = self._nlml_and_grad(self._full_theta())
        return value

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        n_restarts: int = 3,
        rng: np.random.Generator | None = None,
        optimize: bool = True,
    ) -> "GPR":
        """Set training data and (optionally) optimize hyperparameters.

        Parameters
        ----------
        x, y:
            Training inputs ``(n, d)`` and scalar targets ``(n,)``.
        n_restarts:
            Number of random restarts *in addition to* the current
            hyperparameters.
        rng:
            Random generator for restart sampling.
        optimize:
            If ``False``, only the posterior cache is rebuilt.
        """
        self._set_data(x, y)
        if optimize:
            # Only the hyperparameter search gets a span: constant-liar
            # refits call fit(optimize=False) many times per batch and
            # must stay unobserved even when tracing is on.
            with span("gp.fit", n=int(x.shape[0]), restarts=int(n_restarts)):
                self._optimize_hyperparameters(n_restarts, rng)
        self._update_posterior_cache()
        return self

    def _optimize_hyperparameters(
        self, n_restarts: int, rng: np.random.Generator | None
    ) -> None:
        rng = ensure_rng(rng)
        bounds = self._full_bounds()
        starts = [self._full_theta()]
        lo = np.array([b[0] for b in bounds])
        hi = np.array([b[1] for b in bounds])
        for _ in range(max(0, n_restarts)):
            starts.append(rng.uniform(lo, hi))
        best_value, best_theta, any_success = np.inf, starts[0], False
        for start in starts:
            theta, value, success = lbfgsb(
                self._nlml_and_grad, start, lo, hi, self.max_opt_iter
            )
            if np.isfinite(value) and value < best_value:
                best_value = value
                best_theta = theta
                any_success = any_success or success
        self._set_full_theta(best_theta)
        # The workspace is only needed while L-BFGS-B hammers the
        # objective; drop the O(n^2 d) tensors now (rebuilt lazily).
        self._workspace = None
        self.train_result = TrainResult(
            nlml=best_value,
            theta=best_theta,
            n_restarts=n_restarts,
            success=any_success,
        )

    def _update_posterior_cache(self) -> None:
        x, y = self._x_train, self._y_train
        k = self.kernel(x) + self.noise_variance * self._eye
        chol, self._jitter = jitter_cholesky(k)
        # Canonicalize cache layout to C order: LAPACK/BLAS pick their
        # accumulation order from the memory layout, so a checkpoint
        # restored from JSON (C-ordered) must hold bit-identical *and*
        # identically laid out arrays to reproduce the live trajectory.
        self._chol = np.ascontiguousarray(chol)
        self._alpha = cho_solve(self._chol, y)
        # Cached triangular L^-1 turns every predictive-variance query
        # into one GEMM instead of a per-call triangular solve, while
        # keeping the numerically stable ||L^-1 k*||^2 quad form (an
        # explicit K^-1 loses accuracy exactly where the GP is confident).
        self._lower_inv = np.ascontiguousarray(
            solve_lower(self._chol, np.eye(self._chol.shape[0]))
        )

    # ------------------------------------------------------------------
    # incremental updates
    # ------------------------------------------------------------------
    def add_points(self, x_new: np.ndarray, y_new: np.ndarray) -> "GPR":
        """Append training points **without** re-optimizing hyperparameters.

        The posterior Cholesky factor is extended with an incremental
        block update (:func:`repro.gp.linalg.chol_append`, ``O(n^2)`` per
        point) instead of the ``O(n^3)`` full refactorization — the cheap
        path a Bayesian-optimization loop takes on iterations where it
        skips hyperparameter refitting. Falls back to a full
        refactorization if the appended block is numerically indefinite.
        """
        if self._chol is None:
            raise RuntimeError("model has not been fit")
        x_new = np.atleast_2d(np.asarray(x_new, dtype=float))
        y_new = np.asarray(y_new, dtype=float).ravel()
        if x_new.shape[1] != self._x_train.shape[1]:
            raise ValueError(
                f"expected {self._x_train.shape[1]} input dims, got "
                f"{x_new.shape[1]}"
            )
        old_chol, old_x = self._chol, self._x_train
        x_all = np.vstack([old_x, x_new])
        y_all = np.concatenate([self._y_raw, y_new])
        # Kernel hyperparameters are untouched, so the existing factor of
        # K(old, old) stays valid; only the new rows must be factored.
        cross = self.kernel(x_new, old_x)
        block = self.kernel(x_new) + (self.noise_variance + self._jitter) * np.eye(
            x_new.shape[0]
        )
        self._set_data(x_all, y_all)
        try:
            old_lower_inv = self._lower_inv
            n_old, m = old_x.shape[0], x_new.shape[0]
            self._chol = chol_append(old_chol, cross, block)
            self._alpha = cho_solve(self._chol, self._y_train)
            # Extend L^-1 with the block-inverse identity in O(n^2 m):
            # [[L, 0], [L21, L22]]^-1 =
            # [[L^-1, 0], [-L22^-1 L21 L^-1, L22^-1]].
            l21 = self._chol[n_old:, :n_old]
            l22 = self._chol[n_old:, n_old:]
            l22_inv = solve_lower(l22, np.eye(m))
            # np.zeros (not zeros_like) keeps the cache C-ordered — see
            # the layout note in _update_posterior_cache.
            lower_inv = np.zeros(self._chol.shape)
            lower_inv[:n_old, :n_old] = old_lower_inv
            lower_inv[n_old:, n_old:] = l22_inv
            lower_inv[n_old:, :n_old] = -l22_inv @ (l21 @ old_lower_inv)
            self._lower_inv = lower_inv
        except CholeskyError:
            self._update_posterior_cache()
        return self

    # ------------------------------------------------------------------
    # serialization (checkpoint format)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the fitted model.

        Besides training data and hyperparameters the *posterior caches*
        (Cholesky factor, ``alpha``, ``L^-1``, jitter) are stored
        verbatim: a cache built through incremental :meth:`add_points`
        appends differs in the last bits from a fresh factorization, and
        checkpoint/resume must reproduce subsequent predictions exactly.
        """
        if self._chol is None:
            raise RuntimeError("model has not been fit")
        return {
            "x_train": self._x_train.tolist(),
            "y_raw": self._y_raw.tolist(),
            "theta": self._full_theta().tolist(),
            "jitter": float(self._jitter),
            "chol": self._chol.tolist(),
            "alpha": self._alpha.tolist(),
            "lower_inv": self._lower_inv.tolist(),
        }

    def load_state_dict(self, state: dict) -> "GPR":
        """Restore a model saved with :meth:`state_dict`.

        The kernel must already have the right structure (the default ARD
        :class:`RBF` is built automatically from the training data when
        none is set); only its ``theta`` vector is overwritten.
        """
        x = np.asarray(state["x_train"], dtype=float)
        y = np.asarray(state["y_raw"], dtype=float)
        self._set_data(x, y)
        self._set_full_theta(np.asarray(state["theta"], dtype=float))
        self._chol = np.asarray(state["chol"], dtype=float)
        self._alpha = np.asarray(state["alpha"], dtype=float)
        self._lower_inv = np.asarray(state["lower_inv"], dtype=float)
        self._jitter = float(state["jitter"])
        return self

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict(
        self, x_star: np.ndarray, include_noise: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at test points (paper eq. 4).

        Parameters
        ----------
        x_star:
            Test inputs, shape ``(m, d)`` (a single point may be 1-D).
        include_noise:
            Add the observation-noise variance to the predictive variance,
            matching eq. (4) of the paper.

        Returns
        -------
        (mu, var):
            Arrays of shape ``(m,)`` in the original target scale.
        """
        if self._chol is None:
            raise RuntimeError("model has not been fit")
        x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
        k_star = self.kernel(x_star, self._x_train)
        return self.predict_from_cross(
            k_star, self.kernel.diag(x_star), include_noise=include_noise
        )

    def predict_from_cross(
        self,
        k_star: np.ndarray,
        prior_diag: np.ndarray,
        include_noise: bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior from a caller-supplied cross covariance.

        Lets callers that can assemble ``K(x*, X)`` more cheaply than a
        generic kernel evaluation (e.g. the structured NARGP fusion
        kernel, whose x-dependent factors repeat across Monte-Carlo
        samples) reuse the posterior algebra, target scaling and variance
        flooring in one place.

        Parameters
        ----------
        k_star:
            Cross covariance ``K(x*, X_train)`` of shape ``(m, n)``.
        prior_diag:
            Prior variances ``diag(K(x*, x*))`` of shape ``(m,)``.
        """
        if self._chol is None:
            raise RuntimeError("model has not been fit")
        mu = k_star @ self._alpha
        v = self._lower_inv @ k_star.T
        var = prior_diag - np.einsum("ij,ij->j", v, v)
        if include_noise:
            var = var + self.noise_variance
        var = np.maximum(var, 1e-12)
        # The zero prior mean (paper §2.3). Keep the + 0.0: it turns -0.0
        # into +0.0, and the bitwise trajectory pins see the sign of zero.
        mu = mu * self._y_scale + self._y_shift + 0.0
        var = var * self._y_scale**2
        return mu, var

    def predict_multi(
        self, x_batches: np.ndarray, include_noise: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Posterior at a stack of test batches in one linear-algebra pass.

        Flattens a ``(b, m, d)`` stack into one ``(b·m, d)`` kernel
        evaluation and one triangular solve, so ``b`` related predictions
        cost one BLAS call instead of ``b`` Python-level round trips.

        Parameters
        ----------
        x_batches:
            Test inputs of shape ``(b, m, d)``.

        Returns
        -------
        (mu, var):
            Arrays of shape ``(b, m)`` in the original target scale.
        """
        x_batches = np.asarray(x_batches, dtype=float)
        if x_batches.ndim != 3:
            raise ValueError(
                f"expected a (b, m, d) stack, got shape {x_batches.shape}"
            )
        b, m, d = x_batches.shape
        flat = x_batches.reshape(b * m, d)
        mu, var = self.predict(flat, include_noise=include_noise)
        return mu.reshape(b, m), var.reshape(b, m)

    def predict_mean(self, x_star: np.ndarray) -> np.ndarray:
        """Posterior mean only (cheaper than :meth:`predict`)."""
        if self._chol is None:
            raise RuntimeError("model has not been fit")
        x_star = np.atleast_2d(np.asarray(x_star, dtype=float))
        k_star = self.kernel(x_star, self._x_train)
        mu = k_star @ self._alpha
        # + 0.0: the zero prior mean, as in predict_from_cross.
        return mu * self._y_scale + self._y_shift + 0.0
