"""The proposed multi-fidelity Bayesian optimizer: paper Algorithm 1.

Per iteration (the loop itself is :class:`repro.core.loop.BOLoop`):

1. refit every GP's hyperparameters (§2.3): one low-fidelity GP per
   output (objective, then each constraint) on the coarse data, and one
   fused NARGP (eq. 9) per output on the fine data, reusing the low GPs;
2. maximize the **low-fidelity** wEI with the MSP strategy to obtain
   ``x_l*``;
3. maximize the **fused** wEI (eq. 10 Monte-Carlo posterior with common
   random numbers) seeded with ``x_l*`` to obtain the query ``x_t``;
4. pick the evaluation fidelity with the eq. 11/12 criterion
   (:class:`repro.core.FidelitySelector`);
5. simulate, log the cost, repeat until the equivalent-high-fidelity
   budget is exhausted.

While no feasible point is known at a fidelity, that fidelity's
acquisition is the first-feasible-point search of §4.2 (minimizing the
predicted total constraint violation, eq. 13).

The optimizer is an ask/tell strategy (:mod:`repro.session`): steps 1-4
run in :meth:`MFBOptimizer.suggest`, step 5 is the caller's, and
:meth:`MFBOptimizer.observe` feeds the result back. ``suggest(k)`` with
``k > 1`` returns a batch: each picked candidate is believed at its
posterior mean (constant liar / kriging believer) before the next one is
searched. Suggestions still in flight on an asynchronous evaluator are
believed the same way. The models live for one iteration, so a
checkpoint holds no model state: a resumed run refits from the history.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from ..gp.gpr import GPR
from ..problems.base import FIDELITY_HIGH, FIDELITY_LOW, Problem
from .history import History
from .loop import BOLoop, Stage

__all__ = ["MFBOptimizer"]


@dataclass
class _Models:
    """One iteration's models and the training arrays beliefs extend."""

    low: list[GPR]
    fused: list
    #: common random numbers of the fused Monte-Carlo posterior
    z: np.ndarray
    #: ``(x_low, targets_low, x_high, targets_high)``
    data: tuple


class MFBOptimizer(BOLoop):
    """Multi-fidelity constrained Bayesian optimizer (the paper's method).

    Parameters
    ----------
    problem:
        A two-fidelity :class:`repro.problems.Problem`.
    budget:
        Total simulation budget in **equivalent high-fidelity
        simulations** (the unit of Tables 1-2).
    n_init_low, n_init_high:
        Initial space-filling design sizes per fidelity (paper §5:
        10 low + 5 high for the PA, 30 low + 10 high for the charge
        pump).
    gamma:
        Fidelity-selection threshold of eq. 11/12 (paper: 0.01).
    n_mc_samples:
        Monte-Carlo samples for fused posterior prediction (eq. 10).
    n_restarts:
        Hyperparameter-training restarts per GP fit.
    msp_starts, msp_polish, ball_stddev:
        MSP acquisition-optimizer settings (§4.1); incumbent-biased
        fractions follow the paper (10% around ``tau_l``, 40% around
        ``tau_h``).
    max_iterations:
        Hard iteration cap, a safety net on top of the cost budget.
    seed, rng:
        Seed (or ready generator) for the *root* RNG. The root is split
        with ``Generator.spawn`` into independent per-component streams
        — initial sampling, GP restarts, Monte-Carlo fusion draws,
        acquisition scatter, duplicate nudges — so components never race
        each other for draws and checkpoint/resume and batched
        evaluation stay bit-reproducible.
    callback:
        Optional ``callback(iteration, history)`` invoked after every
        evaluation.

    Examples
    --------
    >>> from repro.problems import ForresterProblem
    >>> from repro.core import MFBOptimizer
    >>> result = MFBOptimizer(
    ...     ForresterProblem(), budget=12.0, n_init_low=8, n_init_high=3,
    ...     seed=0, msp_starts=40, n_restarts=1,
    ... ).run()
    >>> result.feasible
    True

    Ask/tell, driving the evaluation yourself:

    >>> optimizer = MFBOptimizer(
    ...     ForresterProblem(), budget=6.0, n_init_low=6, n_init_high=2,
    ...     seed=0, msp_starts=20, msp_polish=0, n_restarts=1,
    ... )
    >>> while not optimizer.is_done:
    ...     batch = optimizer.suggest()
    ...     if not batch:
    ...         break
    ...     for x, fidelity in batch:
    ...         evaluation = optimizer.problem.evaluate_unit(x, fidelity)
    ...         _ = optimizer.observe(x, fidelity, evaluation)
    >>> optimizer.result().feasible
    True
    """

    algorithm_name = "MF-BO (ours)"
    strategy_id = "mfbo"
    rng_stream_names = ("init", "gp", "mc", "acq", "dedup")
    #: 2: no fitted models in the checkpoint, three config keys fewer
    state_version = 2

    def __init__(
        self,
        problem: Problem,
        *,
        budget: float = 50.0,
        n_init_low: int = 10,
        n_init_high: int = 5,
        gamma: float = 0.01,
        n_mc_samples: int = 20,
        n_restarts: int = 2,
        msp_starts: int = 100,
        msp_polish: int = 3,
        ball_stddev: float = 0.03,
        gp_max_opt_iter: int = 100,
        max_iterations: int = 10_000,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        callback: Callable[[int, History], None] | None = None,
    ) -> None:
        self._setup_two_fidelity(
            problem,
            budget=budget,
            n_init_low=n_init_low,
            n_init_high=n_init_high,
            gamma=gamma,
            n_mc_samples=n_mc_samples,
            max_iterations=max_iterations,
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
    def _fit(self) -> _Models:
        """Per-output low GPs and fused NARGPs, refit from scratch, plus
        this iteration's Monte-Carlo draws.

        Output order: objective first, then one model per constraint.
        """
        x_low, y_low, c_low = self.history.data(FIDELITY_LOW)
        x_high, y_high, c_high = self.history.data(FIDELITY_HIGH)
        data = (x_low, [y_low, *c_low.T], x_high, [y_high, *c_high.T])
        low, fused = self._fit_pairs(*data)
        z = self._rng_streams["mc"].standard_normal(self.n_mc_samples)
        return _Models(low, fused, z, data)

    def _stages(self, models: _Models) -> list[Stage]:
        """Algorithm 1 l.5-6: low-fidelity wEI -> ``x_l*``, then the
        fused wEI seeded with it."""
        tau_low, x_low = self._incumbent(FIDELITY_LOW)
        tau_high, x_high = self._incumbent(FIDELITY_HIGH)
        fused = [partial(m.predict, z=models.z) for m in models.fused]
        return [
            (self._wei([m.predict for m in models.low], tau_low), x_low, x_high),
            (self._wei(fused, tau_high), x_low, x_high),
        ]

    def _believe(
        self, models: _Models, x: np.ndarray, fidelity: str, pending: bool
    ) -> _Models:
        """Constant liar: believe the posterior mean at ``x``.

        The believed outcome is appended to the training arrays and to
        this iteration's models in place, at fixed hyperparameters: no
        hyperparameter search, no RNG draw. A low-fidelity belief extends
        each low GP with an incremental Cholesky append and, since the
        low posterior moved, rebuilds the fused GP's posterior on the
        refreshed augmented inputs ``[x, f_l(x)]``. A high-fidelity
        belief appends one augmented point to each fused GP.
        """
        x2 = x[None, :]
        x_low, t_low, x_high, t_high = models.data
        if fidelity == FIDELITY_LOW:
            values = [float(m.predict_mean(x2)[0]) for m in models.low]
            x_low = np.vstack([x_low, x2])
            t_low = [np.append(t, v) for t, v in zip(t_low, values)]
            for low_gp, fused, v, t in zip(models.low, models.fused, values, t_high):
                low_gp.add_points(x2, np.array([v]))
                augmented = np.column_stack([x_high, low_gp.predict_mean(x_high)])
                fused.high_model.fit(augmented, t, optimize=False)
        else:
            values = [float(f.predict_mean_path(x2)[0][0]) for f in models.fused]
            x_high = np.vstack([x_high, x2])
            t_high = [np.append(t, v) for t, v in zip(t_high, values)]
            for low_gp, fused, v in zip(models.low, models.fused, values):
                augmented = np.column_stack([x2, low_gp.predict_mean(x2)])
                fused.high_model.add_points(augmented, np.array([v]))
        models.data = (x_low, t_low, x_high, t_high)
        return models
