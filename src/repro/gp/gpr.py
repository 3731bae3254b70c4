"""Exact Gaussian process regression with marginal-likelihood training.

Implements §2.3 of the paper: a zero-mean GP with a user-supplied kernel
and Gaussian observation noise, trained by minimizing the negative log
marginal likelihood (paper eq. 3) with analytic gradients and
multi-restart L-BFGS-B. :func:`fit_hyperparameters` trains several GPs
of one training-set size at once: every restart of every model is its
own L-BFGS-B search, the searches advance in lockstep, and one stacked
:class:`Likelihood` pass serves all of them per round.

Targets are standardized internally (zero mean, unit variance over the
training set) so kernel hyperparameter bounds behave uniformly across
problems; predictions are mapped back to the original scale.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..obs import is_enabled, span
from ..optim.lbfgsb import lbfgsb
from ..rng import ensure_rng
from .kernels import RBF, Kernel
from .linalg import (
    CholeskyError,
    cho_solve,
    chol_append,
    cholesky_stack,
    invert_lower_stack,
    jitter_cholesky,
    log_det_from_chol,
    solve_lower,
)

__all__ = ["GPR", "Likelihood", "TrainResult", "fit_hyperparameters"]

_LOG_NOISE_BOUNDS = (np.log(1e-8), np.log(1.0))
_LOG_2PI = np.log(2.0 * np.pi)


#: The value (with a zero gradient) of a theta whose covariance cannot
#: be factored or whose likelihood is not finite.
PENALTY = 1e25
#: The owner index of a one-model likelihood call.
_OWN = np.zeros(1, dtype=np.intp)


@dataclass
class TrainResult:
    """Outcome of one hyperparameter optimization run: the chosen
    start's NLML, theta and convergence flag."""

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

    # ------------------------------------------------------------------
    # hyperparameters
    # ------------------------------------------------------------------
    def _full_theta(self) -> np.ndarray:
        return np.concatenate([self.kernel.theta, [self._log_noise]])

    def _set_full_theta(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float).ravel()
        self.kernel.theta = theta[:-1]
        self._set_log_noise(float(theta[-1]))

    def _full_bounds(self) -> list[tuple[float, float]]:
        return self.kernel.bounds + [_LOG_NOISE_BOUNDS]

    def nlml(self) -> float:
        """Negative log marginal likelihood at the current hyperparameters."""
        if self._x_train is None:
            raise RuntimeError("model has not been fit")
        values, _ = Likelihood([self])(self._full_theta()[None], _OWN)
        return float(values[0])

    def hyperparameter_starts(
        self, n_restarts: int, rng: np.random.Generator
    ) -> np.ndarray:
        """The starts of an eq. 3 search: the current hyperparameters,
        then ``n_restarts`` draws uniform over their box, as a
        ``(1 + n_restarts, n_params + 1)`` stack."""
        bounds = np.array(self._full_bounds())
        starts = [self._full_theta()]
        for _ in range(max(0, n_restarts)):
            starts.append(rng.uniform(bounds[:, 0], bounds[:, 1]))
        return np.array(starts)

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
            starts = self.hyperparameter_starts(n_restarts, ensure_rng(rng))
            fit_hyperparameters([self], [starts])
        else:
            self._update_posterior_cache()
        return self

    def _update_posterior_cache(self) -> None:
        x, y = self._x_train, self._y_train
        k = self.kernel(x) + self.noise_variance * self._eye
        chol, self._jitter = jitter_cholesky(k)
        # Keep the factor C-ordered: LAPACK/BLAS pick their accumulation
        # order from the memory layout, so every solve and product on
        # the cache, and with them the pinned trajectories, depend on it
        # (gp/linalg.py solves a C-ordered factor transposed).
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
        path the Bayesian-optimization loop takes when it believes a
        batch member or an in-flight suggestion at its posterior mean
        (constant liar). Falls back to a full refactorization if the
        appended block is numerically indefinite.
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


class Likelihood:
    """Eq. 3's negative log marginal likelihood and its gradient for a
    stack of GPs, as a pure function of theta.

    ``models`` share a kernel structure and a training-set size, and each
    holds its training data. A call evaluates an ``(r, n_params + 1)``
    theta stack (kernel parameters, then the log noise variance) whose
    row ``i`` belongs to model ``owners[i]``, and writes nothing into
    any model.

    Each leaf kernel's squared differences are computed once, by
    ``RBF._sq_diffs`` as every prediction computes them, and shared by
    every model whose inputs to that leaf are equal: the five low GPs of
    an op-amp iteration share all of theirs, and its five eq. 9 GPs share
    the ``k2``/``k3`` tensors while ``k1``'s are per output.

    The pass is member-stable: every product, factorization and
    reduction runs per member, so a member's value and gradient are the
    same bits whichever members share its call. A member whose
    covariance cannot be factored on its jitter ladder, or whose NLML is
    not finite, gets :data:`PENALTY` and a zero gradient.
    """

    def __init__(self, models: Sequence["GPR"]) -> None:
        first = models[0]
        n, n_params = first.n_train, first.kernel.n_params
        for model in models:
            if model.n_train != n or model.kernel.n_params != n_params:
                raise ValueError(
                    "a likelihood stack needs one training-set size and one "
                    f"kernel structure; got n={model.n_train}, "
                    f"{model.kernel.n_params} kernel parameters against "
                    f"n={n}, {n_params}"
                )
        self._kernel = first.kernel
        self._n = n
        self._y = np.stack([model._y_train for model in models])
        per_model = [m.kernel.sq_diffs_by_leaf(m.x_train) for m in models]
        self._sq_diffs = [
            tensors[0][None]
            if all(np.array_equal(t, tensors[0]) for t in tensors[1:])
            else _stack_like(tensors)
            for tensors in zip(*per_model)
        ]

    def __call__(
        self, theta: np.ndarray, owners: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(nlml (r,), grad (r, n_params + 1))`` at the theta stack."""
        r, n = theta.shape[0], self._n
        sq_diffs = [
            sq if sq.shape[0] == 1 else sq[owners] for sq in self._sq_diffs
        ]
        k, traces = self._kernel.stack_value_and_traces(theta[:, :-1], sq_diffs)
        noise = np.exp(theta[:, -1])
        a = k.reshape(r, n, n).copy()
        a.reshape(r, n * n)[:, :: n + 1] += noise[:, None]
        lower = cholesky_stack(a)
        y = self._y[owners][:, :, None]
        with np.errstate(over="ignore", invalid="ignore"):
            lower_inv = invert_lower_stack(lower)
            lower_inv_t = lower_inv.transpose(0, 2, 1)
            u = np.matmul(lower_inv, y)  # L^-1 y
            alpha = np.matmul(lower_inv_t, u)  # K^-1 y
            nlml = 0.5 * (
                (u * u).sum(axis=(1, 2)) + log_det_from_chol(lower) + n * _LOG_2PI
            )
            # dNLML/dtheta_j = 0.5 tr((K^-1 - alpha alpha^T) dK/dtheta_j)
            # (Rasmussen & Williams 2006, eq. 5.9), with K^-1 = L^-T L^-1
            # and the trace contracted kernel-side without materializing
            # dK stacks.
            inner = np.matmul(lower_inv_t, lower_inv)
            inner -= alpha * alpha.transpose(0, 2, 1)
            grad = np.empty((r, theta.shape[1]))
            grad[:, :-1] = 0.5 * traces(inner.reshape(r, n * n))
            # noise term: dK/d log(sigma_n^2) = sigma_n^2 * I
            grad[:, -1] = 0.5 * noise * np.trace(inner, axis1=1, axis2=2)
        # A factor that failed, or is not finite, gives a non-finite NLML.
        failed = ~np.isfinite(nlml)
        if failed.any():
            nlml[failed] = PENALTY
            grad[failed] = 0.0
        return nlml, grad


def _stack_like(tensors: Sequence[np.ndarray]) -> np.ndarray:
    """Stack same-shape 2-D arrays so that every member keeps the first
    one's memory layout (C- or Fortran-ordered): a member's products then
    get the bits they get unstacked."""
    if tensors[0].flags.c_contiguous:
        return np.stack(tensors)
    return np.stack([t.T for t in tensors]).transpose(0, 2, 1)


def fit_hyperparameters(
    models: Sequence[GPR], starts: Sequence[np.ndarray]
) -> None:
    """Train every model's hyperparameters (eq. 3) in one lockstep search.

    The models share a kernel structure, a training-set size and
    ``max_opt_iter``, and each holds its training data. ``starts[i]`` is
    model ``i``'s stack of starting thetas
    (:meth:`GPR.hyperparameter_starts`). Every start of every model is
    its own L-BFGS-B search, with scipy's exact algorithm; the searches
    advance in lockstep (:func:`repro.optim.lbfgsb.lbfgsb`), so each
    round makes one stacked :class:`Likelihood` call. The pass is
    member-stable, so each model ends with the bits a search over its
    own starts alone would give it.

    Each model keeps the theta of its best start (the first, on a tie),
    records a :class:`TrainResult` for it and rebuilds its posterior
    cache.
    """
    if not models:
        return
    first = models[0]
    if any(model.max_opt_iter != first.max_opt_iter for model in models):
        raise ValueError("models in one search must share max_opt_iter")
    likelihood = Likelihood(models)
    owner = np.repeat(np.arange(len(models)), [len(s) for s in starts])
    bounds = np.array(first._full_bounds())
    lower, upper = bounds[:, 0], bounds[:, 1]
    counts = [0, 0]  # lockstep rounds, likelihood evaluations

    def objective(
        theta: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        counts[0] += 1
        counts[1] += rows.size
        return likelihood(theta, owner[rows])

    # Only the hyperparameter search gets a span: constant-liar refits
    # call fit(optimize=False) many times per batch and must stay
    # unobserved even when tracing is on.
    with span(
        "gp.fit", n=first.n_train, models=len(models), starts=int(owner.size)
    ) as fit_span:
        thetas, values, converged = lbfgsb(
            objective, np.concatenate(starts), lower, upper, first.max_opt_iter
        )
        results: list[TrainResult] = []
        begin = 0
        for model, model_starts in zip(models, starts):
            end = begin + len(model_starts)
            best_value, best = np.inf, begin
            for i in range(begin, end):
                if np.isfinite(values[i]) and values[i] < best_value:
                    best_value, best = float(values[i]), i
            model._set_full_theta(thetas[best])
            result = TrainResult(
                nlml=best_value,
                theta=thetas[best],
                n_restarts=len(model_starts) - 1,
                success=bool(np.isfinite(best_value) and converged[best]),
            )
            model.train_result = result
            results.append(result)
            begin = end
        if is_enabled():
            chosen = np.array([result.theta for result in results])
            on_bound = ((chosen == lower) | (chosen == upper)).any(axis=1)
            fit_span.set(
                rounds=counts[0],
                evaluations=counts[1],
                on_bound=int(on_bound.sum()),
                converged=sum(result.success for result in results),
            )
    for model in models:
        model._update_posterior_cache()
