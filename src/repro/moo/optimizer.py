"""Multi-objective multi-fidelity Bayesian optimizer.

:class:`MOMFBOptimizer` lifts the paper's Algorithm-1 machinery to
vector objectives: one fused NARGP/AR1 model per objective (and per
constraint) on top of the shared two-fidelity data, the eq. 11/12
fidelity-selection rule over the low-fidelity models of *all* outputs,
and the MSP low-then-fused acquisition search — with the scalar wEI
replaced by a multi-objective acquisition:

``acquisition="ehvi"``
    Expected hypervolume improvement over the current Pareto archive
    (closed form for two objectives, common-random-number Monte Carlo
    for three or more), multiplied by the constraint feasibility
    probabilities.
``acquisition="parego"``
    Knowles' ParEGO: each iteration draws a simplex weight vector,
    scalarizes the observed objectives with the augmented Tchebycheff
    function, and runs the existing single-objective wEI path on the
    scalarized target.

The optimizer is an ask/tell :class:`repro.session.Strategy`: it
checkpoints and resumes through :class:`repro.session.OptimizationSession`
bit-for-bit, and ``suggest(k > 1)`` produces distinct batch candidates
via constant-liar fantasization (EHVI: the predicted outcome of each
picked candidate is appended to the working front; ParEGO: every batch
member optimizes a freshly drawn weight vector). The Pareto archive is
a pure function of the evaluation history, so resume rebuilds it
instead of serializing it.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..deprecation import keyword_only_config
from ..acquisition.functions import ViolationAcquisition, WeightedEI
from ..core.fidelity import FidelitySelector
from ..core.history import History, Record
from ..core.strategy import StrategyBase
from ..design.sampling import maximin_latin_hypercube
from ..gp.gpr import GPR
from ..mf.ar1 import AR1
from ..mf.nargp import NARGP
from ..optim.msp import MSPOptimizer
from ..problems.base import FIDELITY_HIGH, FIDELITY_LOW
from ..problems.multi import MultiObjectiveProblem
from ..session.protocol import Suggestion
from .acquisition import (
    ExpectedHypervolumeImprovement,
    ParEGOScalarizer,
    Predictor,
    draw_simplex_weights,
)
from .hypervolume import hypervolume, hypervolume_contributions
from .pareto import ParetoArchive, non_dominated_mask

__all__ = ["MOMFBOptimizer"]


class MOMFBOptimizer(StrategyBase):
    """Constrained multi-objective multi-fidelity Bayesian optimizer.

    Parameters
    ----------
    problem:
        A two-fidelity :class:`repro.problems.MultiObjectiveProblem`.
    budget:
        Total simulation budget in equivalent high-fidelity simulations.
    n_init_low, n_init_high:
        Initial space-filling design sizes per fidelity.
    acquisition:
        ``"ehvi"`` (default) or ``"parego"``.
    ref_point:
        Hypervolume reference point (one coordinate per objective, all
        minimized). ``None`` infers it after the initial design as the
        observed nadir plus a 10% span margin; the inferred point is
        frozen for the rest of the run (and checkpointed) so the
        hypervolume-vs-cost trace stays comparable across iterations.
    gamma:
        Fidelity-promotion threshold of eq. 11/12, applied across the
        low-fidelity models of every objective and constraint.
    n_mc_samples:
        Monte-Carlo draws for the fused NARGP posterior (eq. 10).
    ehvi_mc_samples:
        Monte-Carlo draws for the EHVI integral when the problem has
        three or more objectives (two-objective EHVI is closed-form).
    rho:
        ParEGO augmented-Tchebycheff coefficient.
    fusion:
        ``"nargp"`` (paper) or ``"ar1"`` per-output fusion model.
    Other parameters match :class:`repro.core.MFBOptimizer`.

    Examples
    --------
    >>> from repro.problems import ZDT1Problem
    >>> from repro.moo import MOMFBOptimizer
    >>> optimizer = MOMFBOptimizer(
    ...     ZDT1Problem(), budget=6.0, n_init_low=8, n_init_high=3,
    ...     seed=0, msp_starts=20, msp_polish=0, n_restarts=1,
    ... )
    >>> _ = optimizer.run()
    >>> optimizer.archive.front().shape[1]
    2
    """

    algorithm_name = "MO-MFBO"
    strategy_id = "momfbo"
    rng_stream_names = ("init", "gp", "mc", "acq", "dedup", "scalar")

    @keyword_only_config
    def __init__(
        self,
        problem: MultiObjectiveProblem,
        budget: float = 50.0,
        n_init_low: int = 10,
        n_init_high: int = 5,
        acquisition: str = "ehvi",
        ref_point: list | np.ndarray | None = None,
        gamma: float = 0.01,
        n_mc_samples: int = 20,
        ehvi_mc_samples: int = 16,
        rho: float = 0.05,
        n_restarts: int = 2,
        msp_starts: int = 100,
        msp_polish: int = 3,
        ball_stddev: float = 0.03,
        fusion: str = "nargp",
        gp_max_opt_iter: int = 100,
        max_iterations: int = 10_000,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        callback: Callable[[int, History], None] | None = None,
    ) -> None:
        if not isinstance(problem, MultiObjectiveProblem):
            raise TypeError(
                "MOMFBOptimizer needs a MultiObjectiveProblem; got "
                f"{type(problem).__name__}"
            )
        if len(problem.fidelities) != 2:
            raise ValueError(
                "MOMFBOptimizer needs a two-fidelity problem; got "
                f"{problem.fidelities}"
            )
        if budget <= 0:
            raise ValueError("budget must be positive")
        if n_init_low < 1 or n_init_high < 1:
            raise ValueError("initial designs need at least one point each")
        if acquisition not in ("ehvi", "parego"):
            raise ValueError("acquisition must be 'ehvi' or 'parego'")
        if fusion not in ("nargp", "ar1"):
            raise ValueError("fusion must be 'nargp' or 'ar1'")
        if ehvi_mc_samples < 1:
            raise ValueError("ehvi_mc_samples must be >= 1")
        if n_mc_samples < 1:
            raise ValueError("n_mc_samples must be >= 1")
        self.budget = float(budget)
        self.n_init_low = int(n_init_low)
        self.n_init_high = int(n_init_high)
        self.acquisition = acquisition
        self.ref_point_config = (
            None
            if ref_point is None
            else [float(v) for v in np.asarray(ref_point, dtype=float).ravel()]
        )
        if self.ref_point_config is not None and len(
            self.ref_point_config
        ) != problem.n_objectives:
            raise ValueError(
                f"reference point needs {problem.n_objectives} coordinates"
            )
        self.n_mc_samples = int(n_mc_samples)
        self.ehvi_mc_samples = int(ehvi_mc_samples)
        self.rho = float(rho)
        self.n_restarts = int(n_restarts)
        self.msp_starts = int(msp_starts)
        self.msp_polish = int(msp_polish)
        self.ball_stddev = float(ball_stddev)
        self.fusion = fusion
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
        self.archive = ParetoArchive(problem.n_objectives)
        self._ref_point: np.ndarray | None = None

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

    # ------------------------------------------------------------------
    # data plumbing
    # ------------------------------------------------------------------
    def _moo_data(
        self, fidelity: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Training arrays ``(x, objectives, constraints)`` at one fidelity."""
        records = self.history.records_at(fidelity)
        if not records:
            raise ValueError(f"no evaluations at fidelity {fidelity!r}")
        x = np.vstack([r.x_unit for r in records])
        objectives = np.vstack([r.evaluation.objectives for r in records])
        if records[0].evaluation.constraints.size:
            constraints = np.vstack(
                [r.evaluation.constraints for r in records]
            )
        else:
            constraints = np.empty((len(records), 0))
        return x, objectives, constraints

    def _all_objectives(self) -> np.ndarray:
        return np.vstack(
            [r.evaluation.objectives for r in self.history.records]
        )

    def _infer_ref_point(self) -> np.ndarray:
        """Config override, else observed nadir plus a 10% span margin."""
        if self.ref_point_config is not None:
            return np.asarray(self.ref_point_config, dtype=float)
        observed = self._all_objectives()
        observed = observed[np.all(np.isfinite(observed), axis=1)]
        if observed.shape[0] == 0:
            raise RuntimeError(
                "cannot infer a reference point: no finite objectives "
                "observed; pass ref_point explicitly"
            )
        nadir = observed.max(axis=0)
        span = observed.max(axis=0) - observed.min(axis=0)
        return nadir + 0.1 * np.where(span > 1e-12, span, 1.0)

    def _fidelity_front(
        self, fidelity: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Feasible non-dominated ``(x, objectives)`` at one fidelity."""
        records = [
            r for r in self.history.records_at(fidelity) if r.feasible
        ]
        m = self.problem.n_objectives
        if not records:
            return np.empty((0, self.problem.dim)), np.empty((0, m))
        x = np.vstack([r.x_unit for r in records])
        objectives = np.vstack([r.evaluation.objectives for r in records])
        mask = non_dominated_mask(objectives)
        return x[mask], objectives[mask]

    def _front_incumbent(
        self, x_front: np.ndarray, objectives: np.ndarray
    ) -> np.ndarray | None:
        """Representative incumbent: the max-contribution front member."""
        if x_front.shape[0] == 0 or self._ref_point is None:
            return None
        contributions = hypervolume_contributions(objectives, self._ref_point)
        return x_front[int(np.argmax(contributions))]

    # ------------------------------------------------------------------
    # model fitting
    # ------------------------------------------------------------------
    def _fit_pairs(
        self,
        x_low: np.ndarray,
        targets_low: list[np.ndarray],
        x_high: np.ndarray,
        targets_high: list[np.ndarray],
    ) -> tuple[list[GPR], list]:
        """One (low GP, fused model) pair per target column."""
        rng = self._rng_streams["gp"]
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
            else:
                fused = AR1(n_restarts=self.n_restarts)
            fused.fit(
                x_low, t_low, x_high, t_high, rng=rng, low_model=low_gp
            )
            fused_models.append(fused)
        return low_models, fused_models

    def _fit_objective_models(self) -> tuple[list[GPR], list]:
        """EHVI path: objectives first, then one pair per constraint."""
        x_low, f_low, c_low = self._moo_data(FIDELITY_LOW)
        x_high, f_high, c_high = self._moo_data(FIDELITY_HIGH)
        targets_low = [f_low[:, i] for i in range(f_low.shape[1])] + [
            c_low[:, i] for i in range(c_low.shape[1])
        ]
        targets_high = [f_high[:, i] for i in range(f_high.shape[1])] + [
            c_high[:, i] for i in range(c_high.shape[1])
        ]
        return self._fit_pairs(x_low, targets_low, x_high, targets_high)

    def _make_scalarizer(self, weights: np.ndarray) -> ParEGOScalarizer:
        observed = self._all_objectives()
        observed = observed[np.all(np.isfinite(observed), axis=1)]
        return ParEGOScalarizer(
            weights,
            ideal=observed.min(axis=0),
            nadir=observed.max(axis=0),
            rho=self.rho,
        )

    def _fit_constraint_models(self) -> tuple[list[GPR], list]:
        """One (low GP, fused) pair per constraint; independent of the
        ParEGO weight vector, so fit once per iteration and shared by
        every batch member."""
        x_low, _, c_low = self._moo_data(FIDELITY_LOW)
        x_high, _, c_high = self._moo_data(FIDELITY_HIGH)
        targets_low = [c_low[:, i] for i in range(c_low.shape[1])]
        targets_high = [c_high[:, i] for i in range(c_high.shape[1])]
        return self._fit_pairs(x_low, targets_low, x_high, targets_high)

    def _fit_scalarized_models(
        self,
        scalarizer: ParEGOScalarizer,
        constraint_pairs: tuple[list[GPR], list],
    ) -> tuple[list[GPR], list]:
        """ParEGO path: the scalarized target, then the shared
        constraint models."""
        x_low, f_low, _ = self._moo_data(FIDELITY_LOW)
        x_high, f_high, _ = self._moo_data(FIDELITY_HIGH)
        obj_low, obj_fused = self._fit_pairs(
            x_low, [scalarizer.scalarize(f_low)],
            x_high, [scalarizer.scalarize(f_high)],
        )
        con_low, con_fused = constraint_pairs
        return obj_low + con_low, obj_fused + con_fused

    # ------------------------------------------------------------------
    # acquisition assembly
    # ------------------------------------------------------------------
    @staticmethod
    def _gp_predictor(model: GPR) -> Predictor:
        return lambda x: model.predict(x)

    @staticmethod
    def _fused_predictor(model: NARGP | AR1, z: np.ndarray) -> Predictor:
        return lambda x: model.predict(x, z=z)

    def _build_ehvi(
        self,
        predictors: list,
        front: np.ndarray,
        any_feasible: bool,
        z_ehvi: np.ndarray | None,
    ) -> ExpectedHypervolumeImprovement | ViolationAcquisition:
        """EHVI over the feasible front, or eq. 13 while none exists."""
        m = self.problem.n_objectives
        objective_predictors = predictors[:m]
        constraint_predictors = predictors[m:]
        if constraint_predictors and not any_feasible:
            return ViolationAcquisition(constraint_predictors)
        return ExpectedHypervolumeImprovement(
            objective_predictors,
            front,
            self._ref_point,
            constraint_predictors=constraint_predictors,
            z=z_ehvi,
        )

    def _build_wei(
        self, predictors: list, tau: float | None, any_feasible: bool
    ) -> WeightedEI | ViolationAcquisition:
        objective_predictor = predictors[0]
        constraint_predictors = predictors[1:]
        if any_feasible or not constraint_predictors:
            return WeightedEI(objective_predictor, constraint_predictors, tau)
        return ViolationAcquisition(constraint_predictors)

    # ------------------------------------------------------------------
    # suggestion
    # ------------------------------------------------------------------
    def _propose_ehvi(
        self,
        low_models: list[GPR],
        fused_models: list,
        z_fused: np.ndarray,
        z_ehvi: np.ndarray | None,
        fantasy_front: list[np.ndarray],
        avoid: list[np.ndarray],
    ) -> tuple[np.ndarray, float]:
        x_low_front, f_low_front = self._fidelity_front(FIDELITY_LOW)
        x_high_front, f_high_front = (
            self._archive_x_front(),
            self.archive.front(),
        )
        if fantasy_front:
            f_high_front = (
                np.vstack([f_high_front, *fantasy_front])
                if f_high_front.size
                else np.vstack(fantasy_front)
            )
        incumbent_low = self._front_incumbent(x_low_front, f_low_front)
        incumbent_high = self._front_incumbent(
            x_high_front, self.archive.front()
        )

        low_predictors = [self._gp_predictor(m) for m in low_models]
        low_acq = self._build_ehvi(
            low_predictors, f_low_front, f_low_front.shape[0] > 0, z_ehvi
        )
        low_result = self.acq_optimizer.maximize(
            low_acq,
            incumbent_low=incumbent_low,
            incumbent_high=incumbent_high,
        )

        fused_predictors = [
            self._fused_predictor(m, z_fused) for m in fused_models
        ]
        high_acq = self._build_ehvi(
            fused_predictors,
            f_high_front,
            self.archive.has_feasible,
            z_ehvi,
        )
        high_result = self.acq_optimizer.maximize(
            high_acq,
            incumbent_low=incumbent_low,
            incumbent_high=incumbent_high,
            extra_starts=low_result.x,
        )
        return self._dedup(high_result.x, avoid=avoid), float(high_result.value)

    def _archive_x_front(self) -> np.ndarray:
        entries = self.archive.front_entries()
        if not entries:
            return np.empty((0, self.problem.dim))
        return np.vstack([e.x_unit for e in entries])

    def _propose_parego(
        self,
        scalarizer: ParEGOScalarizer,
        low_models: list[GPR],
        fused_models: list,
        z_fused: np.ndarray,
        avoid: list[np.ndarray],
    ) -> tuple[np.ndarray, float]:
        def best_scalarized(
            fidelity: str,
        ) -> tuple[float | None, np.ndarray | None]:
            records = [
                r
                for r in self.history.records_at(fidelity)
                if r.feasible
            ]
            if not records:
                return None, None
            values = scalarizer.scalarize(
                np.vstack([r.evaluation.objectives for r in records])
            )
            best = int(np.argmin(values))
            return float(values[best]), records[best].x_unit

        tau_low, incumbent_low = best_scalarized(FIDELITY_LOW)
        tau_high, incumbent_high = best_scalarized(FIDELITY_HIGH)

        low_predictors = [self._gp_predictor(m) for m in low_models]
        low_acq = self._build_wei(low_predictors, tau_low, tau_low is not None)
        low_result = self.acq_optimizer.maximize(
            low_acq,
            incumbent_low=incumbent_low,
            incumbent_high=incumbent_high,
        )

        fused_predictors = [
            self._fused_predictor(m, z_fused) for m in fused_models
        ]
        high_acq = self._build_wei(
            fused_predictors, tau_high, tau_high is not None
        )
        high_result = self.acq_optimizer.maximize(
            high_acq,
            incumbent_low=incumbent_low,
            incumbent_high=incumbent_high,
            extra_starts=low_result.x,
        )
        return self._dedup(high_result.x, avoid=avoid), float(high_result.value)

    def _refill(self, k: int) -> None:
        """One BO iteration producing up to ``k`` batch candidates."""
        self._iteration += 1
        if self._ref_point is None:
            self._ref_point = self._infer_ref_point()
        m = self.problem.n_objectives
        z_fused = self._rng_streams["mc"].standard_normal(self.n_mc_samples)
        z_ehvi = None
        scalarizer = None
        fit_start = time.perf_counter()
        if self.acquisition == "ehvi":
            low_models, fused_models = self._fit_objective_models()
            if m > 2:
                z_ehvi = self._rng_streams["scalar"].standard_normal(
                    (self.ehvi_mc_samples, m)
                )
        else:
            weights = draw_simplex_weights(m, self._rng_streams["scalar"])
            scalarizer = self._make_scalarizer(weights)
            constraint_pairs = self._fit_constraint_models()
            low_models, fused_models = self._fit_scalarized_models(
                scalarizer, constraint_pairs
            )
        fit_elapsed = time.perf_counter() - fit_start

        propose_start = time.perf_counter()
        chosen: list[str] = []
        first_acq: float | None = None
        projected = self.history.total_cost + self.pending_cost
        avoid: list[np.ndarray] = []
        fantasy_front: list[np.ndarray] = []
        # In-flight suggestions (asynchronous evaluators): count their
        # budget, avoid re-proposing them and — on the EHVI path — lie
        # about their outcome with the fused posterior mean so the batch
        # targets untouched parts of the front. Empty for synchronous
        # drivers, keeping serial trajectories bit-identical. Observed
        # results retract their pending entry, so the next refill swaps
        # each fantasy for the real outcome.
        for s in self._pending:
            x_pending = np.asarray(s.x_unit, dtype=float).ravel()
            avoid.append(x_pending)
            if self.acquisition == "ehvi":
                x2 = x_pending[None, :]
                fantasy_front.append(
                    np.array(
                        [
                            float(model.predict_mean_path(x2)[0][0])
                            for model in fused_models[:m]
                        ]
                    )
                )
        for j in range(k):
            if j > 0 and self.acquisition == "parego":
                # Classic ParEGO batching: each member optimizes its own
                # scalarization direction (constraint models are shared).
                weights = draw_simplex_weights(
                    m, self._rng_streams["scalar"]
                )
                scalarizer = self._make_scalarizer(weights)
                low_models, fused_models = self._fit_scalarized_models(
                    scalarizer, constraint_pairs
                )
            if self.acquisition == "ehvi":
                x_next, acq_value = self._propose_ehvi(
                    low_models, fused_models, z_fused, z_ehvi,
                    fantasy_front, avoid,
                )
            else:
                x_next, acq_value = self._propose_parego(
                    scalarizer, low_models, fused_models, z_fused, avoid
                )
            if first_acq is None:
                first_acq = acq_value

            fidelity = self.selector.select(x_next, low_models)
            remaining = self.budget - projected
            if self.problem.cost(fidelity) > remaining + 1e-9:
                if self.problem.cost(FIDELITY_LOW) <= remaining + 1e-9:
                    fidelity = FIDELITY_LOW
                else:
                    self._stopped = True
                    break
            self._queue.append(Suggestion(x_next, fidelity))
            chosen.append(fidelity)
            avoid.append(x_next)
            projected += self.problem.cost(fidelity)
            if j < k - 1 and self.acquisition == "ehvi":
                # Constant liar: believe the fused posterior mean of the
                # picked point so the next member targets a different
                # part of the front.
                x2 = x_next[None, :]
                fantasy_front.append(
                    np.array(
                        [
                            float(model.predict_mean_path(x2)[0][0])
                            for model in fused_models[:m]
                        ]
                    )
                )
        self._emit_telemetry(
            "iteration",
            fit_s=fit_elapsed,
            propose_s=time.perf_counter() - propose_start,
            fidelity=chosen[0] if chosen else None,
            n_suggested=len(chosen),
            acq=first_acq,
            budget_spent=float(projected),
        )

    def _done(self) -> bool:
        return (
            self.history.total_cost >= self.budget - 1e-9
            or self._iteration >= self.max_iterations
        )

    # ------------------------------------------------------------------
    # observation / archive maintenance
    # ------------------------------------------------------------------
    def _after_observe(self, record: Record) -> None:
        evaluation = record.evaluation
        if record.fidelity == self.problem.highest_fidelity:
            self.archive.add(
                record.x_unit,
                evaluation.objectives,
                evaluation.total_violation,
                evaluation.metrics,
            )
        super()._after_observe(record)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def ref_point(self) -> np.ndarray | None:
        """The frozen hypervolume reference point (None before set)."""
        return self._ref_point

    def hypervolume_trace(self) -> np.ndarray:
        """``(n, 2)`` columns ``(cumulative_cost, archive_hypervolume)``.

        One row per high-fidelity evaluation, replayed from the history
        — a pure function of (history, reference point), so the trace of
        a resumed run matches the uninterrupted one exactly.
        """
        if self._ref_point is None:
            return np.empty((0, 2))
        archive = ParetoArchive(self.problem.n_objectives)
        rows, cost = [], 0.0
        for record in self.history.records:
            cost += record.evaluation.cost
            if record.fidelity != self.problem.highest_fidelity:
                continue
            evaluation = record.evaluation
            archive.add(
                record.x_unit,
                evaluation.objectives,
                evaluation.total_violation,
            )
            rows.append(
                (cost, hypervolume(archive.front(), self._ref_point))
            )
        return np.array(rows) if rows else np.empty((0, 2))

    def pareto_summary(self) -> list[dict]:
        """Physical-unit view of the archived front for reporting."""
        summary = []
        for entry in self.archive.front_entries():
            summary.append(
                {
                    "x": self.problem.space.from_unit(entry.x_unit),
                    "objectives": entry.objectives.copy(),
                    "metrics": dict(entry.metrics),
                }
            )
        return summary

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def config_dict(self) -> dict:
        return {
            "budget": self.budget,
            "n_init_low": self.n_init_low,
            "n_init_high": self.n_init_high,
            "acquisition": self.acquisition,
            "ref_point": self.ref_point_config,
            "gamma": self.selector.gamma,
            "n_mc_samples": self.n_mc_samples,
            "ehvi_mc_samples": self.ehvi_mc_samples,
            "rho": self.rho,
            "n_restarts": self.n_restarts,
            "msp_starts": self.msp_starts,
            "msp_polish": self.msp_polish,
            "ball_stddev": self.ball_stddev,
            "fusion": self.fusion,
            "gp_max_opt_iter": self.gp_max_opt_iter,
            "max_iterations": self.max_iterations,
        }

    def _extra_state(self) -> dict:
        """Only the frozen reference point; the archive is rebuilt."""
        return {
            "ref_point": (
                None
                if self._ref_point is None
                else [float(v) for v in self._ref_point]
            )
        }

    def _load_extra_state(self, extra: dict) -> None:
        ref = extra.get("ref_point")
        self._ref_point = (
            None if ref is None else np.asarray(ref, dtype=float)
        )
        archive = ParetoArchive(self.problem.n_objectives)
        for record in self.history.records:
            if record.fidelity != self.problem.highest_fidelity:
                continue
            evaluation = record.evaluation
            archive.add(
                record.x_unit,
                evaluation.objectives,
                evaluation.total_violation,
                evaluation.metrics,
            )
        self.archive = archive
