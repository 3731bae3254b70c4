"""Multi-objective acquisition functions: EHVI and ParEGO.

Both reuse the single-objective predictor convention of
:mod:`repro.acquisition`: a *predictor* is a callable
``x -> (mu, var)`` over ``(n, d)`` unit-cube batches, and acquisitions
are batch callables where **larger is better**.

Expected hypervolume improvement
--------------------------------
For two objectives the EHVI has a closed form. With the front sorted
ascending in the first objective, ``a_1 < ... < a_n`` /
``b_1 > ... > b_n``, sentinels ``a_{n+1} = r_1``, ``b_0 = r_2``,
``b_{n+1} = -inf``, and the partial expected improvement

    psi(a, b, mu, s) = E[(a - y) 1{y < b}]
                     = s * phi((b - mu)/s) + (a - mu) * Phi((b - mu)/s)

the improvement region decomposes into vertical strips such that

    EHVI = sum_{j=1}^{n+1} psi(a_j, a_j, mu_1, s_1) *
           [ (b_{j-1} - b_j) Phi((b_j - mu_2)/s_2)
             + psi(b_{j-1}, b_{j-1}, mu_2, s_2)
             - psi(b_{j-1}, b_j,     mu_2, s_2) ]

(Emmerich-style decomposition; independent Gaussian marginals per
objective, the GP-per-objective model of :mod:`repro.moo.optimizer`).
With an empty front this collapses to
``E[(r_1 - y_1)^+] * E[(r_2 - y_2)^+]``. For three or more objectives
the expectation is taken by Monte Carlo with **common random numbers**:
fixed standard-normal draws ``z`` are reused across every candidate so
the acquisition surface is deterministic within one BO iteration, the
same trick the fused NARGP posterior uses.

ParEGO
------
:class:`ParEGOScalarizer` implements the augmented Tchebycheff
scalarization ``max_i(w_i f_i) + rho * sum_i(w_i f_i)`` on objectives
normalized to the observed ``[ideal, nadir]`` box. Each BO iteration
draws a fresh simplex weight vector, scalarizes the history, and reuses
the existing single-objective machinery (GP + fused model + wEI) on the
scalarized target.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..acquisition.functions import (
    _norm_cdf,
    _norm_pdf,
    probability_of_feasibility,
)
from .hypervolume import mean_exclusive_hypervolume
from .pareto import non_dominated_mask

__all__ = [
    "ExpectedHypervolumeImprovement",
    "ParEGOScalarizer",
    "draw_simplex_weights",
    "ehvi_2d",
]

Predictor = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

_MIN_STD = 1e-12


def _psi(
    a: np.ndarray, b: np.ndarray, mu: np.ndarray, sigma: np.ndarray
) -> np.ndarray:
    """Partial expected improvement ``E[(a - y) 1{y < b}]``."""
    lam = (b - mu) / sigma
    return sigma * _norm_pdf(lam) + (a - mu) * _norm_cdf(lam)


def ehvi_2d(
    mu: np.ndarray,
    var: np.ndarray,
    front: np.ndarray,
    ref: np.ndarray,
) -> np.ndarray:
    """Closed-form bi-objective EHVI for a batch of Gaussian candidates.

    Parameters
    ----------
    mu, var:
        Posterior means/variances of the two objectives, shape
        ``(n_candidates, 2)``; the marginals are treated as independent.
    front:
        Current non-dominated set, shape ``(n_front, 2)`` (may be
        empty). Dominated or out-of-box rows are filtered here.
    ref:
        Reference point ``(2,)``.
    """
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    sigma = np.sqrt(np.maximum(np.atleast_2d(np.asarray(var, dtype=float)), 0.0))
    sigma = np.maximum(sigma, _MIN_STD)
    ref = np.asarray(ref, dtype=float).ravel()
    front = np.atleast_2d(np.asarray(front, dtype=float))
    if front.size:
        front = front[np.all(front < ref[None, :], axis=1)]
    if front.size:
        front = front[non_dominated_mask(front)]
        front = front[np.argsort(front[:, 0])]

    # Strip bounds: a_j for j = 1..n+1, b_{j-1} and b_j alongside.
    a = np.append(front[:, 0] if front.size else np.empty(0), ref[0])
    b_prev = np.concatenate(
        ([ref[1]], front[:, 1] if front.size else np.empty(0))
    )
    b_next = np.append(front[:, 1] if front.size else np.empty(0), -np.inf)

    mu1, s1 = mu[:, 0:1], sigma[:, 0:1]
    mu2, s2 = mu[:, 1:2], sigma[:, 1:2]

    term1 = _psi(a[None, :], a[None, :], mu1, s1)
    lam_next = (b_next[None, :] - mu2) / s2  # -inf in the last column
    cdf_next = _norm_cdf(lam_next)
    psi_prev_prev = _psi(b_prev[None, :], b_prev[None, :], mu2, s2)
    psi_prev_next = s2 * _norm_pdf(lam_next) + (b_prev[None, :] - mu2) * cdf_next
    gap = np.where(np.isfinite(b_next), b_prev - b_next, 0.0)
    term2 = gap[None, :] * cdf_next + psi_prev_prev - psi_prev_next

    return np.maximum(np.sum(term1 * term2, axis=1), 0.0)


class ExpectedHypervolumeImprovement:
    """EHVI acquisition over one posterior predictor per objective.

    Parameters
    ----------
    objective_predictors:
        One ``x -> (mu, var)`` callable per (minimized) objective.
    front:
        Current feasible non-dominated objective vectors ``(n, m)``
        (may be empty before any feasible design is known).
    ref_point:
        Hypervolume reference point ``(m,)``.
    constraint_predictors:
        Optional constraint posteriors; the EHVI is multiplied by the
        product of their feasibility probabilities (the eq. 6 treatment
        carried over to the multi-objective acquisition).
    z:
        Fixed standard-normal draws ``(n_mc, m)`` for the Monte-Carlo
        path, **required** when ``m >= 3`` so the acquisition stays
        deterministic across the MSP search of one iteration.
    """

    def __init__(
        self,
        objective_predictors: Sequence[Predictor],
        front: np.ndarray,
        ref_point: np.ndarray,
        constraint_predictors: Sequence[Predictor] = (),
        z: np.ndarray | None = None,
    ) -> None:
        if len(objective_predictors) < 2:
            raise ValueError("EHVI needs at least two objective predictors")
        self.objective_predictors = list(objective_predictors)
        self.constraint_predictors = list(constraint_predictors)
        self.ref_point = np.asarray(ref_point, dtype=float).ravel()
        m = len(self.objective_predictors)
        if self.ref_point.size != m:
            raise ValueError(
                f"reference point has {self.ref_point.size} coordinates "
                f"for {m} objectives"
            )
        front = np.atleast_2d(np.asarray(front, dtype=float))
        if front.size == 0:
            front = np.empty((0, m))
        if front.shape[1] != m:
            raise ValueError(
                f"front has {front.shape[1]} objectives, expected {m}"
            )
        self.front = front
        if m > 2:
            if z is None:
                raise ValueError(
                    "EHVI with 3+ objectives integrates by Monte Carlo; "
                    "pass fixed draws z of shape (n_mc, n_objectives)"
                )
            z = np.atleast_2d(np.asarray(z, dtype=float))
            if z.shape[1] != m:
                raise ValueError(
                    f"z draws have {z.shape[1]} columns for {m} objectives"
                )
            if z.shape[0] == 0:
                raise ValueError("z needs at least one Monte-Carlo draw")
        self.z = z

    def _posterior(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mus, sigmas = [], []
        for predictor in self.objective_predictors:
            mu, var = predictor(x)
            mus.append(np.asarray(mu, dtype=float).ravel())
            sigmas.append(
                np.maximum(
                    np.sqrt(np.maximum(np.asarray(var, dtype=float), 0.0)),
                    _MIN_STD,
                ).ravel()
            )
        return np.column_stack(mus), np.column_stack(sigmas)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        mu, sigma = self._posterior(x)
        if mu.shape[1] == 2:
            value = ehvi_2d(mu, sigma**2, self.front, self.ref_point)
        else:
            value = self._monte_carlo(mu, sigma)
        for predictor in self.constraint_predictors:
            mu_c, var_c = predictor(x)
            value = value * probability_of_feasibility(mu_c, var_c)
        return value

    def _monte_carlo(self, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """Common-random-number MC EHVI for three or more objectives."""
        assert self.z is not None  # required for 3+ objectives by __init__
        samples = mu[:, None, :] + sigma[:, None, :] * self.z[None, :, :]
        return mean_exclusive_hypervolume(samples, self.front, self.ref_point)


def draw_simplex_weights(
    n_objectives: int, rng: np.random.Generator
) -> np.ndarray:
    """One weight vector drawn uniformly from the probability simplex."""
    if n_objectives < 2:
        raise ValueError("need at least two objectives")
    return rng.dirichlet(np.ones(n_objectives))


class ParEGOScalarizer:
    """Augmented Tchebycheff scalarization on normalized objectives.

    ``scalarize`` maps ``(n, m)`` objective vectors to the scalar
    ``max_i(w_i g_i) + rho * sum_i(w_i g_i)`` with
    ``g = (f - ideal) / (nadir - ideal)`` — a minimization target whose
    minimizers sweep the (possibly non-convex) Pareto front as the
    weights sweep the simplex.

    Parameters
    ----------
    weights:
        Simplex weight vector ``(m,)`` (see :func:`draw_simplex_weights`).
    ideal, nadir:
        Normalization bounds, typically the componentwise min/max of all
        objectives observed so far (both fidelities). Degenerate spans
        fall back to 1 so constant objectives do not produce NaNs.
    rho:
        Augmentation coefficient (Knowles' ParEGO uses 0.05).
    """

    def __init__(
        self,
        weights: np.ndarray,
        ideal: np.ndarray,
        nadir: np.ndarray,
        rho: float = 0.05,
    ) -> None:
        self.weights = np.asarray(weights, dtype=float).ravel()
        self.ideal = np.asarray(ideal, dtype=float).ravel()
        span = np.asarray(nadir, dtype=float).ravel() - self.ideal
        self.span = np.where(span > 1e-12, span, 1.0)
        if not (self.weights.size == self.ideal.size == self.span.size):
            raise ValueError("weights/ideal/nadir dimensions disagree")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")
        self.rho = float(rho)

    def scalarize(self, objectives: np.ndarray) -> np.ndarray:
        """Scalarized value per row of ``(n, m)`` objectives (minimize)."""
        f = np.atleast_2d(np.asarray(objectives, dtype=float))
        normalized = (f - self.ideal[None, :]) / self.span[None, :]
        weighted = self.weights[None, :] * normalized
        return weighted.max(axis=1) + self.rho * weighted.sum(axis=1)
