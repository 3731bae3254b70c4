"""Acquisition functions for (constrained) Bayesian optimization.

Implements §2.4 of the paper: Expected Improvement (eq. 5), probability
of feasibility, the weighted Expected Improvement wEI (eq. 6) used by both
the proposed method and the WEIBO baseline, the lower confidence bound
used by the GASPAD baseline, and the constraint-violation objective of
eq. (13) used to locate a first feasible point.

All acquisition objects share one calling convention: they wrap
*predictors* — callables ``x -> (mu, var)`` over ``(n, d)`` arrays — and
are themselves callables ``x -> values`` where **larger values are
better** (the acquisition optimizer maximizes). Minimization of the
underlying objective is the canonical direction throughout the
repository.

The standard normal CDF and PDF are computed the way ``scipy.stats.norm``
computes them inside, ``ndtr(x)`` and ``exp(-x**2/2) / sqrt(2*pi)``. Every
value matches ``norm.cdf``/``norm.pdf`` bit for bit, without the
distribution object's per-call argument handling (at acquisition batch
sizes it costs far more than the ufuncs themselves) and without importing
``scipy.stats`` at all. ``tests/test_acquisition.py`` checks the match
against the ``scipy.stats``-based formulas it keeps as the oracle.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr

__all__ = [
    "expected_improvement",
    "probability_of_improvement",
    "probability_of_feasibility",
    "lower_confidence_bound",
    "ExpectedImprovement",
    "WeightedEI",
    "LCB",
    "ViolationAcquisition",
]

Predictor = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

_MIN_STD = 1e-12
_SQRT_2PI = np.sqrt(2 * np.pi)


def _norm_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, bit for bit ``scipy.stats.norm.cdf(x)``."""
    return ndtr(x)


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    """Standard normal PDF, bit for bit ``scipy.stats.norm.pdf(x)`` at
    every non-NaN ``x`` (a NaN maps to a NaN whose sign bit may differ)."""
    return np.exp(-(x**2) / 2.0) / _SQRT_2PI


def expected_improvement(
    mu: np.ndarray, var: np.ndarray, tau: float
) -> np.ndarray:
    """EI over the incumbent ``tau`` for a minimization problem (eq. 5).

    ``EI(x) = sigma(x) * (lambda * Phi(lambda) + phi(lambda))`` with
    ``lambda = (tau - mu) / sigma``.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.sqrt(np.maximum(np.asarray(var, dtype=float), 0.0))
    sigma = np.maximum(sigma, _MIN_STD)
    lam = (tau - mu) / sigma
    return sigma * (lam * _norm_cdf(lam) + _norm_pdf(lam))


def probability_of_improvement(
    mu: np.ndarray, var: np.ndarray, tau: float
) -> np.ndarray:
    """PI over the incumbent ``tau`` for a minimization problem."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.maximum(np.sqrt(np.maximum(var, 0.0)), _MIN_STD)
    return _norm_cdf((tau - mu) / sigma)


def probability_of_feasibility(mu: np.ndarray, var: np.ndarray) -> np.ndarray:
    """``PF(x) = Phi(-mu / sigma)`` for a constraint ``c(x) < 0`` (eq. 6)."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.maximum(np.sqrt(np.maximum(var, 0.0)), _MIN_STD)
    return _norm_cdf(-mu / sigma)


def lower_confidence_bound(
    mu: np.ndarray, var: np.ndarray, beta: float = 2.0
) -> np.ndarray:
    """``LCB(x) = mu - beta * sigma`` (smaller is more promising)."""
    sigma = np.sqrt(np.maximum(np.asarray(var, dtype=float), 0.0))
    return np.asarray(mu, dtype=float) - beta * sigma


class ExpectedImprovement:
    """EI acquisition wrapping a posterior predictor.

    Parameters
    ----------
    predictor:
        Callable ``x -> (mu, var)``.
    tau:
        Current best (smallest) observed objective.
    """

    def __init__(self, predictor: Predictor, tau: float):
        self.predictor = predictor
        self.tau = float(tau)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        mu, var = self.predictor(np.atleast_2d(x))
        return expected_improvement(mu, var, self.tau)


class WeightedEI:
    """Weighted Expected Improvement (paper eq. 6).

    ``wEI(x) = EI(x) * prod_i PF_i(x)`` where the product runs over the
    constraint predictors. With no constraints this reduces to plain EI.

    Parameters
    ----------
    objective_predictor:
        Posterior of the objective, ``x -> (mu, var)``.
    constraint_predictors:
        One posterior per constraint ``c_i(x) < 0``.
    tau:
        Incumbent objective value. When no feasible point is known yet,
        pass ``None``: the EI factor is dropped and the acquisition is the
        pure feasibility probability, which steers the search toward the
        feasible region.
    """

    def __init__(
        self,
        objective_predictor: Predictor,
        constraint_predictors: Sequence[Predictor] = (),
        tau: float | None = None,
    ):
        self.objective_predictor = objective_predictor
        self.constraint_predictors = list(constraint_predictors)
        self.tau = None if tau is None else float(tau)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        if self.tau is not None:
            mu, var = self.objective_predictor(x)
            value = expected_improvement(mu, var, self.tau)
        else:
            value = np.ones(x.shape[0])
        for predictor in self.constraint_predictors:
            mu_c, var_c = predictor(x)
            value = value * probability_of_feasibility(mu_c, var_c)
        return value


class LCB:
    """Negated lower confidence bound (so that larger is better).

    Used by the GASPAD baseline to rank evolutionary candidates
    (paper §5: "lower confidence bound works as the acquisition
    function").
    """

    def __init__(self, predictor: Predictor, beta: float = 2.0):
        if beta < 0:
            raise ValueError("beta must be non-negative")
        self.predictor = predictor
        self.beta = float(beta)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        mu, var = self.predictor(np.atleast_2d(x))
        return -lower_confidence_bound(mu, var, self.beta)


class ViolationAcquisition:
    """First-feasible-point search objective (paper eq. 13).

    ``-sum_i max(0, mu_i(x))`` over the constraint posteriors — maximizing
    this acquisition minimizes the predicted total constraint violation,
    pushing the next query toward the feasible region when the dataset
    contains no feasible point yet (§4.2).
    """

    def __init__(self, constraint_predictors: Sequence[Predictor]):
        if not constraint_predictors:
            raise ValueError("need at least one constraint predictor")
        self.constraint_predictors = list(constraint_predictors)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(x)
        total = np.zeros(x.shape[0])
        for predictor in self.constraint_predictors:
            mu, _ = predictor(x)
            total += np.maximum(0.0, mu)
        return -total
