"""WEIBO: single-fidelity GP Bayesian optimization with weighted EI.

The state-of-the-art baseline the paper compares against (Lyu et al.,
TCAS-I 2018, ref. [17]): a plain GP surrogate per output, the weighted
Expected Improvement acquisition (eq. 6) and a multiple-starting-point
acquisition search. All simulations run at the highest fidelity.

WEIBO is the one-stage, one-fidelity case of
:class:`repro.core.loop.BOLoop`, with a budget that counts simulations.
``suggest(k > 1)`` and suggestions still in flight are believed at the
posterior mean (kriging believer) before the next search.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.history import History
from ..core.loop import BOLoop, Stage
from ..gp.gpr import GPR, fit_hyperparameters
from ..problems.base import Problem

__all__ = ["WEIBO"]


class WEIBO(BOLoop):
    """Single-fidelity constrained BO baseline.

    Parameters
    ----------
    problem:
        Any :class:`repro.problems.Problem`; only its highest fidelity is
        used.
    budget:
        Number of (high-fidelity) simulations, including the initial
        design — matching the paper's protocol ("WEIBO is initialized
        with 40 high-fidelity data points and limited with 150
        simulations").
    n_init:
        Initial Latin-hypercube design size.
    """

    algorithm_name = "WEIBO"
    strategy_id = "weibo"
    rng_stream_names = ("init", "gp", "acq", "dedup")

    def __init__(
        self,
        problem: Problem,
        *,
        budget: int = 150,
        n_init: int = 40,
        n_restarts: int = 2,
        gp_max_opt_iter: int = 100,
        msp_starts: int = 100,
        msp_polish: int = 3,
        ball_stddev: float = 0.03,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        callback: Callable[[int, History], None] | None = None,
    ):
        if budget < n_init:
            raise ValueError("budget must cover the initial design")
        if n_init < 1:
            raise ValueError("n_init must be >= 1")
        self.n_init = int(n_init)
        self._fidelity = problem.highest_fidelity
        self._setup_loop(
            problem,
            {self._fidelity: self.n_init},
            budget=int(budget),
            n_restarts=n_restarts,
            gp_max_opt_iter=gp_max_opt_iter,
            msp_starts=msp_starts,
            msp_polish=msp_polish,
            ball_stddev=ball_stddev,
            seed=seed,
            rng=rng,
            callback=callback,
        )

    # ------------------------------------------------------------------
    # BOLoop hooks
    # ------------------------------------------------------------------
    def _fit(self) -> list[GPR]:
        """One GP per output, all trained in one lockstep search."""
        x, y, constraints = self.history.data(self._fidelity)
        models = [
            GPR(max_opt_iter=self.gp_max_opt_iter).fit(x, t, optimize=False)
            for t in [y, *constraints.T]
        ]
        rng = self._rng_streams["gp"]
        fit_hyperparameters(
            models, [m.hyperparameter_starts(self.n_restarts, rng) for m in models]
        )
        return models

    def _stages(self, models: list[GPR]) -> list[Stage]:
        tau, incumbent = self._incumbent(self._fidelity)
        return [(self._wei([m.predict for m in models], tau), None, incumbent)]

    def _believe(
        self, models: list[GPR], x: np.ndarray, fidelity: str, pending: bool
    ) -> list[GPR]:
        """Kriging believer: pretend the posterior mean was observed so
        the next search explores elsewhere. The believing surrogates are
        local to this refill; the next one refits from real data."""
        x2 = x[None, :]
        for gp in models:
            gp.add_points(x2, gp.predict_mean(x2))
        return models

    def config_dict(self) -> dict:
        return {**super().config_dict(), "n_init": self.n_init}
