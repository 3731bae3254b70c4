"""The proposed multi-fidelity Bayesian optimizer — paper Algorithm 1.

Per iteration:

1. fit one low-fidelity GP per output (objective + each constraint) on
   the coarse data;
2. fit one fused NARGP per output on the fine data, reusing the low GPs;
3. maximize the **low-fidelity** wEI acquisition with the MSP strategy
   to obtain ``x_l*``;
4. maximize the **fused** wEI acquisition (Monte-Carlo posterior with
   common random numbers) seeded with ``x_l*`` to obtain the query
   ``x_t``;
5. pick the evaluation fidelity with the eq. 11/12 criterion
   (:class:`repro.core.FidelitySelector`);
6. simulate, log the cost, repeat until the equivalent-high-fidelity
   budget is exhausted.

If no feasible point is known at a fidelity level, the corresponding
acquisition switches to the first-feasible-point search of §4.2
(minimizing predicted total constraint violation, eq. 13).

The optimizer is an **ask/tell strategy** (:mod:`repro.session`): steps
1-5 live in :meth:`MFBOptimizer.suggest`, step 6 is the caller's —
:meth:`MFBOptimizer.observe` feeds the result back. :meth:`run` is the
legacy blocking loop, now a thin driver over an
:class:`repro.session.OptimizationSession` with a serial evaluator.
``suggest(k)`` with ``k > 1`` produces a *batch* of distinct candidates
via constant-liar fantasization: each picked candidate is temporarily
added to copies of the models with its posterior-mean ("kriging
believer") outcome before the next one is searched, so a parallel
evaluator can simulate the whole batch at once.
"""

from __future__ import annotations

import copy
import time
from typing import Callable, Sequence

import numpy as np

from ..deprecation import keyword_only_config
from ..acquisition.functions import ViolationAcquisition, WeightedEI
from ..design.sampling import maximin_latin_hypercube
from ..gp.gpr import GPR
from ..mf.ar1 import AR1
from ..mf.nargp import NARGP
from ..optim.msp import MSPOptimizer
from ..problems.base import FIDELITY_HIGH, FIDELITY_LOW, Problem
from ..session.protocol import Suggestion
from .fidelity import FidelitySelector
from .history import History
from .strategy import StrategyBase

__all__ = ["MFBOptimizer"]


class MFBOptimizer(StrategyBase):
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

    @keyword_only_config
    def __init__(
        self,
        problem: Problem,
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
        if len(problem.fidelities) != 2:
            raise ValueError(
                "MFBOptimizer needs a two-fidelity problem; got "
                f"{problem.fidelities}"
            )
        if budget <= 0:
            raise ValueError("budget must be positive")
        if n_init_low < 1 or n_init_high < 1:
            raise ValueError("initial designs need at least one point each")
        if fusion not in ("nargp", "ar1"):
            raise ValueError("fusion must be 'nargp' or 'ar1'")
        if fused_prediction not in ("mc", "mean_path"):
            raise ValueError("fused_prediction must be 'mc' or 'mean_path'")
        if refit_every < 1:
            raise ValueError("refit_every must be >= 1")
        if n_mc_samples < 1:
            raise ValueError("n_mc_samples must be >= 1")
        self.budget = float(budget)
        self.n_init_low = int(n_init_low)
        self.n_init_high = int(n_init_high)
        self.n_mc_samples = int(n_mc_samples)
        self.n_restarts = int(n_restarts)
        self.msp_starts = int(msp_starts)
        self.msp_polish = int(msp_polish)
        self.ball_stddev = float(ball_stddev)
        self.fusion = fusion
        self.fused_prediction = fused_prediction
        self.refit_every = int(refit_every)
        self.gp_max_opt_iter = int(gp_max_opt_iter)
        self.max_iterations = int(max_iterations)
        self._setup_base(problem, seed, rng, callback)
        self.selector = FidelitySelector(gamma=gamma)
        self.acq_optimizer = MSPOptimizer(
            dim=problem.dim,
            n_starts=msp_starts,
            n_polish=msp_polish,
            frac_around_low=0.10,
            frac_around_high=0.40,
            ball_stddev=ball_stddev,
            rng=self._rng_streams["acq"],
        )
        self._low_models: list[GPR] | None = None
        self._fused_models: list | None = None

    # ------------------------------------------------------------------
    # initialization
    # ------------------------------------------------------------------
    def _initial_suggestions(self) -> list[Suggestion]:
        rng = self._rng_streams["init"]
        init_low = maximin_latin_hypercube(
            self.n_init_low, self.problem.dim, rng
        )
        init_high = maximin_latin_hypercube(
            self.n_init_high, self.problem.dim, rng
        )
        return [Suggestion(u, FIDELITY_LOW) for u in init_low] + [
            Suggestion(u, FIDELITY_HIGH) for u in init_high
        ]

    def _initialize(self) -> None:
        """Evaluate the whole initial design in-process (eagerly)."""
        for x_unit, fidelity in self.suggest(self.n_init_low + self.n_init_high):
            self.observe(
                x_unit, fidelity, self.problem.evaluate_unit(x_unit, fidelity)
            )

    # ------------------------------------------------------------------
    # model fitting
    # ------------------------------------------------------------------
    def _fit_models(self, iteration: int = 1) -> tuple[list[GPR], list]:
        """Fit per-output low GPs and fused high models.

        Output order: objective first, then one model per constraint.
        Every ``refit_every``-th iteration performs the full
        hyperparameter optimization; in between, cached models are
        extended with the cheap incremental path.
        """
        rng = self._rng_streams["gp"]
        x_low, y_low, c_low = self.history.data(FIDELITY_LOW)
        x_high, y_high, c_high = self.history.data(FIDELITY_HIGH)
        targets_low = [y_low] + [c_low[:, i] for i in range(c_low.shape[1])]
        targets_high = [y_high] + [c_high[:, i] for i in range(c_high.shape[1])]

        full_refit = (
            self._low_models is None
            or (iteration - 1) % self.refit_every == 0
        )
        if not full_refit:
            self._update_models(
                self._low_models, self._fused_models,
                x_low, targets_low, x_high, targets_high,
            )
            return self._low_models, self._fused_models

        low_models: list[GPR] = []
        fused_models: list = []
        for t_low, t_high in zip(targets_low, targets_high):
            low_gp = GPR(max_opt_iter=self.gp_max_opt_iter).fit(
                x_low, t_low, n_restarts=self.n_restarts, rng=rng
            )
            low_models.append(low_gp)
            if self.fusion == "nargp":
                fused = NARGP(
                    n_mc_samples=self.n_mc_samples,
                    n_restarts=self.n_restarts,
                    max_opt_iter=self.gp_max_opt_iter,
                )
                fused.fit(
                    x_low, t_low, x_high, t_high,
                    rng=rng, low_model=low_gp,
                )
            else:
                fused = AR1(n_restarts=self.n_restarts)
                fused.fit(
                    x_low, t_low, x_high, t_high,
                    rng=rng, low_model=low_gp,
                )
            fused_models.append(fused)
        self._low_models, self._fused_models = low_models, fused_models
        return low_models, fused_models

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
        model lists it is given, so the constant-liar batch path can
        apply the same update to fantasy copies.
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
    # acquisition assembly
    # ------------------------------------------------------------------
    @staticmethod
    def _gp_predictor(
        model: GPR,
    ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
        return lambda x: model.predict(x)

    def _fused_predictor(
        self, model: NARGP | AR1, z: np.ndarray
    ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
        if self.fused_prediction == "mean_path":
            return lambda x: model.predict_mean_path(x)
        return lambda x: model.predict(x, z=z)

    def _build_acquisition(
        self,
        predictors: Sequence,
        tau: float | None,
        any_feasible: bool,
    ) -> WeightedEI | ViolationAcquisition:
        """wEI when a feasible incumbent exists, else eq. 13 / pure PF."""
        objective_predictor = predictors[0]
        constraint_predictors = list(predictors[1:])
        if any_feasible or not constraint_predictors:
            return WeightedEI(objective_predictor, constraint_predictors, tau)
        return ViolationAcquisition(constraint_predictors)

    # ------------------------------------------------------------------
    # suggestion (Algorithm 1, lines 4-7)
    # ------------------------------------------------------------------
    def _propose(
        self, low_models: list[GPR], fused_models: list, z: np.ndarray,
        avoid: list[np.ndarray],
    ) -> tuple[np.ndarray, float]:
        """One acquisition round: MSP low search, then the fused search.

        Returns the deduplicated candidate and the fused acquisition
        value at the (pre-dedup) optimum — the latter feeds telemetry
        only, never the trajectory.
        """
        best_low = self.history.incumbent(FIDELITY_LOW)
        best_high = self.history.incumbent(FIDELITY_HIGH)
        feasible_low = self.history.best_feasible(FIDELITY_LOW)
        feasible_high = self.history.best_feasible(FIDELITY_HIGH)

        # --- step 1: low-fidelity acquisition -> x_l* (Algorithm 1 l.5)
        low_predictors = [self._gp_predictor(m) for m in low_models]
        low_acq = self._build_acquisition(
            low_predictors,
            feasible_low.objective if feasible_low is not None else None,
            feasible_low is not None,
        )
        low_result = self.acq_optimizer.maximize(
            low_acq,
            incumbent_low=None if best_low is None else best_low.x_unit,
            incumbent_high=None if best_high is None else best_high.x_unit,
        )

        # --- step 2: fused acquisition seeded with x_l* (l.6)
        fused_predictors = [
            self._fused_predictor(m, z) for m in fused_models
        ]
        high_acq = self._build_acquisition(
            fused_predictors,
            feasible_high.objective if feasible_high is not None else None,
            feasible_high is not None,
        )
        high_result = self.acq_optimizer.maximize(
            high_acq,
            incumbent_low=None if best_low is None else best_low.x_unit,
            incumbent_high=None if best_high is None else best_high.x_unit,
            extra_starts=low_result.x,
        )
        return self._dedup(high_result.x, avoid=avoid), float(high_result.value)

    def _refill(self, k: int) -> None:
        """One Algorithm-1 iteration producing up to ``k`` candidates.

        The first candidate follows the paper exactly. Further candidates
        use constant-liar fantasization: the picked point is added to
        *copies* of the models with its posterior-mean outcome, and the
        acquisition search repeats — yielding distinct batch members
        without spending any simulation budget.

        Suggestions still in flight on an asynchronous evaluator are
        fantasized the same way before the batch loop (and their cost
        counted against the budget), so an out-of-order refill neither
        re-proposes nor re-budgets them; once the real evaluation lands,
        :meth:`observe` retracts the pending entry and the next refill
        replaces the fantasy with the truth. With an empty pending set —
        every synchronous driver — this block is a no-op and the
        trajectory is bit-identical to the serial path.
        """
        self._iteration += 1
        fit_start = time.perf_counter()
        low_models, fused_models = self._fit_models(self._iteration)
        fit_elapsed = time.perf_counter() - fit_start
        z = self._rng_streams["mc"].standard_normal(self.n_mc_samples)

        propose_start = time.perf_counter()
        chosen: list[str] = []
        first_acq: float | None = None
        cur_low, cur_fused = low_models, fused_models
        fantasy = None  # lazily created copies + growing data arrays
        projected = self.history.total_cost + self.pending_cost
        avoid: list[np.ndarray] = []
        if self._pending:
            cur_low, cur_fused = copy.deepcopy((low_models, fused_models))
            fantasy = self._fantasy_data()
            for s in self._pending:
                x_pending = np.asarray(s.x_unit, dtype=float).ravel()
                self._fantasize(
                    cur_low, cur_fused, fantasy, x_pending, s.fidelity
                )
                avoid.append(x_pending)
        for j in range(k):
            x_next, acq_value = self._propose(cur_low, cur_fused, z, avoid)
            if first_acq is None:
                first_acq = acq_value

            # --- step 3: fidelity selection (l.7, eq. 11/12)
            fidelity = self.selector.select(x_next, cur_low)
            remaining = self.budget - projected
            if self.problem.cost(fidelity) > remaining + 1e-9:
                if self.problem.cost(FIDELITY_LOW) <= remaining + 1e-9:
                    # Not enough budget left for a fine simulation; spend
                    # the remainder on the coarse simulator instead of
                    # overshooting.
                    fidelity = FIDELITY_LOW
                else:
                    # Not even a coarse simulation fits: stop here so the
                    # reported cost respects the equivalent-cost budget
                    # the tables are keyed on.
                    self._stopped = True
                    break
            self._queue.append(Suggestion(x_next, fidelity))
            chosen.append(fidelity)
            avoid.append(x_next)
            projected += self.problem.cost(fidelity)
            if j < k - 1:
                if fantasy is None:
                    cur_low, cur_fused = copy.deepcopy(
                        (low_models, fused_models)
                    )
                    fantasy = self._fantasy_data()
                self._fantasize(cur_low, cur_fused, fantasy, x_next, fidelity)
        self._emit_telemetry(
            "iteration",
            fit_s=fit_elapsed,
            propose_s=time.perf_counter() - propose_start,
            fidelity=chosen[0] if chosen else None,
            n_suggested=len(chosen),
            acq=first_acq,
            budget_spent=float(projected),
        )

    def _fantasy_data(self) -> dict:
        """Mutable copies of the per-fidelity training arrays."""
        x_low, y_low, c_low = self.history.data(FIDELITY_LOW)
        x_high, y_high, c_high = self.history.data(FIDELITY_HIGH)
        return {
            "x_low": x_low,
            "t_low": [y_low] + [c_low[:, i] for i in range(c_low.shape[1])],
            "x_high": x_high,
            "t_high": [y_high] + [c_high[:, i] for i in range(c_high.shape[1])],
        }

    def _fantasize(
        self,
        low_models: list[GPR],
        fused_models: list,
        fantasy: dict,
        x: np.ndarray,
        fidelity: str,
    ) -> None:
        """Constant-liar update: believe the posterior mean at ``x``.

        Appends the fantasized outcome to the fantasy data arrays and
        pushes it through the same incremental posterior-cache update the
        ``refit_every`` path uses — no hyperparameter search, no RNG
        consumption.
        """
        x2 = x[None, :]
        if fidelity == FIDELITY_LOW:
            values = [float(m.predict_mean(x2)[0]) for m in low_models]
            fantasy["x_low"] = np.vstack([fantasy["x_low"], x2])
            fantasy["t_low"] = [
                np.append(t, v) for t, v in zip(fantasy["t_low"], values)
            ]
        else:
            values = [
                float(f.predict_mean_path(x2)[0][0]) for f in fused_models
            ]
            fantasy["x_high"] = np.vstack([fantasy["x_high"], x2])
            fantasy["t_high"] = [
                np.append(t, v) for t, v in zip(fantasy["t_high"], values)
            ]
        self._update_models(
            low_models, fused_models,
            fantasy["x_low"], fantasy["t_low"],
            fantasy["x_high"], fantasy["t_high"],
        )

    def _done(self) -> bool:
        return (
            self.history.total_cost >= self.budget - 1e-9
            or self._iteration >= self.max_iterations
        )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def config_dict(self) -> dict:
        return {
            "budget": self.budget,
            "n_init_low": self.n_init_low,
            "n_init_high": self.n_init_high,
            "gamma": self.selector.gamma,
            "n_mc_samples": self.n_mc_samples,
            "n_restarts": self.n_restarts,
            "msp_starts": self.msp_starts,
            "msp_polish": self.msp_polish,
            "ball_stddev": self.ball_stddev,
            "fusion": self.fusion,
            "fused_prediction": self.fused_prediction,
            "refit_every": self.refit_every,
            "gp_max_opt_iter": self.gp_max_opt_iter,
            "max_iterations": self.max_iterations,
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
        fused_models = []
        for state, low_gp in zip(models["fused"], low_models):
            if state["type"] == "nargp":
                fused = NARGP(
                    n_mc_samples=self.n_mc_samples,
                    n_restarts=self.n_restarts,
                    max_opt_iter=self.gp_max_opt_iter,
                )
            else:
                fused = AR1(n_restarts=self.n_restarts)
            fused.load_state_dict(state, low_model=low_gp)
            fused_models.append(fused)
        self._low_models = low_models
        self._fused_models = fused_models
