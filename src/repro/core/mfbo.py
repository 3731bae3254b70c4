"""The proposed multi-fidelity Bayesian optimizer: paper Algorithm 1.

Per iteration (the loop itself is :class:`repro.core.loop.BOLoop`):

1. fit one low-fidelity GP per output (objective, then each constraint)
   on the coarse data, and one fused NARGP (or AR1) per output on the
   fine data, reusing the low GPs;
2. maximize the **low-fidelity** wEI with the MSP strategy to obtain
   ``x_l*``;
3. maximize the **fused** wEI (Monte-Carlo posterior with common random
   numbers) seeded with ``x_l*`` to obtain the query ``x_t``;
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
posterior mean (constant liar / kriging believer) on copies of the
models before the next one is searched. Suggestions still in flight on
an asynchronous evaluator are believed the same way.
"""

from __future__ import annotations

import copy
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
    fusion:
        ``"nargp"`` (paper) or ``"ar1"`` (Kennedy-O'Hagan linear fusion,
        for the abl1 ablation).
    fused_prediction:
        ``"mc"`` uses the Monte-Carlo fused posterior inside the
        acquisition (the paper's method); ``"mean_path"`` pushes only the
        low-fidelity mean through (cheaper, for ablations).
    refit_every:
        Full hyperparameter re-optimization cadence. ``1`` (default)
        re-optimizes every iteration, the paper's protocol.
        With ``k > 1``, iterations between full refits keep the current
        hyperparameters and only update the posterior caches: the GP of
        the fidelity that received the new point is extended with an
        incremental O(n^2) Cholesky append
        (:meth:`repro.gp.GPR.add_points`), and dependent fused models are
        re-cached without any L-BFGS-B work.
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
        fusion: str = "nargp",
        fused_prediction: str = "mc",
        refit_every: int = 1,
        gp_max_opt_iter: int = 100,
        max_iterations: int = 10_000,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        callback: Callable[[int, History], None] | None = None,
    ) -> None:
        if fused_prediction not in ("mc", "mean_path"):
            raise ValueError("fused_prediction must be 'mc' or 'mean_path'")
        if refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        self.fused_prediction = fused_prediction
        self.refit_every = int(refit_every)
        self._setup_two_fidelity(
            problem,
            budget=budget,
            n_init_low=n_init_low,
            n_init_high=n_init_high,
            gamma=gamma,
            n_mc_samples=n_mc_samples,
            fusion=fusion,
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
        self._low_models: list[GPR] | None = None
        self._fused_models: list | None = None

    # ------------------------------------------------------------------
    # BOLoop hooks
    # ------------------------------------------------------------------
    def _fit(self) -> _Models:
        """Per-output low GPs and fused models, plus this iteration's
        Monte-Carlo draws.

        Output order: objective first, then one model per constraint.
        Every ``refit_every``-th iteration performs the full
        hyperparameter optimization; in between, the cached models are
        extended with the cheap incremental path.
        """
        x_low, y_low, c_low = self.history.data(FIDELITY_LOW)
        x_high, y_high, c_high = self.history.data(FIDELITY_HIGH)
        data = (x_low, [y_low, *c_low.T], x_high, [y_high, *c_high.T])
        if (
            self._low_models is None
            or self._fused_models is None
            or (self._iteration - 1) % self.refit_every == 0
        ):
            self._low_models, self._fused_models = self._fit_pairs(*data)
        else:
            self._update_models(self._low_models, self._fused_models, *data)
        z = self._rng_streams["mc"].standard_normal(self.n_mc_samples)
        return _Models(self._low_models, self._fused_models, z, data)

    def _stages(self, models: _Models) -> list[Stage]:
        """Algorithm 1 l.5-6: low-fidelity wEI -> ``x_l*``, then the
        fused wEI seeded with it."""
        tau_low, x_low = self._incumbent(FIDELITY_LOW)
        tau_high, x_high = self._incumbent(FIDELITY_HIGH)
        if self.fused_prediction == "mean_path":
            fused = [m.predict_mean_path for m in models.fused]
        else:
            fused = [partial(m.predict, z=models.z) for m in models.fused]
        return [
            (self._wei([m.predict for m in models.low], tau_low), x_low, x_high),
            (self._wei(fused, tau_high), x_low, x_high),
        ]

    def _believe(
        self, models: _Models, x: np.ndarray, fidelity: str, pending: bool
    ) -> _Models:
        """Constant liar: believe the posterior mean at ``x``.

        The first belief of an iteration copies the models, so the
        cached ones stay clean. The believed outcome is appended to the
        training arrays and pushed through the same incremental update
        the ``refit_every`` path uses: no hyperparameter search, no RNG
        draw.
        """
        if models.low is self._low_models:
            models.low, models.fused = copy.deepcopy((models.low, models.fused))
        x2 = x[None, :]
        x_low, t_low, x_high, t_high = models.data
        if fidelity == FIDELITY_LOW:
            values = [float(m.predict_mean(x2)[0]) for m in models.low]
            x_low = np.vstack([x_low, x2])
            t_low = [np.append(t, v) for t, v in zip(t_low, values)]
        else:
            values = [float(f.predict_mean_path(x2)[0][0]) for f in models.fused]
            x_high = np.vstack([x_high, x2])
            t_high = [np.append(t, v) for t, v in zip(t_high, values)]
        models.data = (x_low, t_low, x_high, t_high)
        self._update_models(models.low, models.fused, *models.data)
        return models

    def _update_models(
        self,
        low_models: list[GPR],
        fused_models: list,
        x_low: np.ndarray,
        targets_low: list[np.ndarray],
        x_high: np.ndarray,
        targets_high: list[np.ndarray],
    ) -> None:
        """Cheap posterior-cache update between full refits.

        The GP at the fidelity that received new data is extended with an
        incremental Cholesky append; when the low-fidelity posterior
        moved, the fused model's augmented training inputs are re-cached
        (one factorization, no hyperparameter search). Operates on the
        model lists it is given, so beliefs can apply the same update to
        their copies.
        """
        for low_gp, fused, t_low, t_high in zip(
            low_models, fused_models, targets_low, targets_high
        ):
            n_low_old = low_gp.n_train
            low_grew = x_low.shape[0] > n_low_old
            if low_grew:
                low_gp.add_points(x_low[n_low_old:], t_low[n_low_old:])
            if self.fusion == "nargp":
                high_gp = fused.high_model
                n_high_old = high_gp.n_train
                if low_grew:
                    # The low posterior shifted, so every augmented input
                    # [x, f_l(x)] is stale: rebuild the posterior cache at
                    # fixed hyperparameters.
                    augmented = np.column_stack(
                        [x_high, low_gp.predict_mean(x_high)]
                    )
                    high_gp.fit(augmented, t_high, optimize=False)
                elif x_high.shape[0] > n_high_old:
                    x_new = x_high[n_high_old:]
                    augmented_new = np.column_stack(
                        [x_new, low_gp.predict_mean(x_new)]
                    )
                    high_gp.add_points(augmented_new, t_high[n_high_old:])
            else:
                mu_low = low_gp.predict_mean(x_high)
                residual = t_high - fused.rho * mu_low
                fused.delta_model.fit(x_high, residual, optimize=False)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def config_dict(self) -> dict:
        return {
            **super().config_dict(),
            "fused_prediction": self.fused_prediction,
            "refit_every": self.refit_every,
        }

    def _extra_state(self) -> dict:
        """Cached surrogate models (the ``refit_every > 1`` fast path).

        Serialized with their exact posterior caches so a resumed run
        keeps predicting bit-identically; on full-refit iterations the
        cache is rebuilt from scratch anyway.
        """
        if self._low_models is None:
            return {"models": None}
        fused = []
        for model in self._fused_models:
            fused.append(
                {"type": self.fusion, **model.state_dict(include_low=False)}
            )
        return {
            "models": {
                "low": [m.state_dict() for m in self._low_models],
                "fused": fused,
            }
        }

    def _load_extra_state(self, extra: dict) -> None:
        models = extra.get("models")
        if models is None:
            self._low_models = None
            self._fused_models = None
            return
        low_models = [
            GPR(max_opt_iter=self.gp_max_opt_iter).load_state_dict(state)
            for state in models["low"]
        ]
        fused_models = [
            self._fused_model(state["type"]).load_state_dict(state, low_model=low_gp)
            for state, low_gp in zip(models["fused"], low_models)
        ]
        self._low_models = low_models
        self._fused_models = fused_models
