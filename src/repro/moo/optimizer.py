"""Multi-objective multi-fidelity Bayesian optimizer.

:class:`MOMFBOptimizer` lifts the paper's Algorithm 1 to vector
objectives. It is one more :class:`repro.core.loop.BOLoop`: one fused
NARGP/AR1 model per objective (and per constraint) on the shared
two-fidelity data, the eq. 11/12 fidelity rule over the low-fidelity
models of *all* outputs, and the MSP low-then-fused acquisition search,
with the scalar wEI replaced by a multi-objective acquisition:

``acquisition="ehvi"``
    Expected hypervolume improvement over the current Pareto archive
    (closed form for two objectives, common-random-number Monte Carlo
    for three or more), multiplied by the constraint feasibility
    probabilities. Batch members and in-flight suggestions are believed
    at their fused posterior mean, appended to the working front.
``acquisition="parego"``
    Knowles' ParEGO: each iteration draws a simplex weight vector,
    scalarizes the observed objectives with the augmented Tchebycheff
    function and runs the wEI search on the scalarized target. Every
    later batch member draws its own weight vector and refits; in-flight
    suggestions are only avoided.

Checkpoint and resume through :class:`repro.session.OptimizationSession`
are bit-for-bit. The Pareto archive is a pure function of the
evaluation history, so resume rebuilds it instead of serializing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from ..acquisition.functions import ViolationAcquisition
from ..core.history import History, Record
from ..core.loop import BOLoop, Stage
from ..gp.gpr import GPR
from ..problems.base import FIDELITY_HIGH, FIDELITY_LOW
from ..problems.multi import MultiObjectiveProblem
from .acquisition import (
    ExpectedHypervolumeImprovement,
    ParEGOScalarizer,
    draw_simplex_weights,
)
from .hypervolume import hypervolume, hypervolume_contributions
from .pareto import ParetoArchive, non_dominated_mask

__all__ = ["MOMFBOptimizer"]


@dataclass
class _Models:
    """One iteration's models and the state beliefs extend."""

    low: list[GPR]
    fused: list
    #: common random numbers of the fused Monte-Carlo posterior
    z: np.ndarray
    #: EHVI: fixed draws of the Monte-Carlo integral (3+ objectives)
    z_ehvi: np.ndarray | None = None
    #: EHVI: believed objective vectors appended to the working front
    front: list[np.ndarray] = field(default_factory=list)
    #: ParEGO: the (low, fused) constraint models every member shares
    constraints: tuple[list[GPR], list] = field(default_factory=lambda: ([], []))
    #: ParEGO: the current member's scalarization
    scalarizer: ParEGOScalarizer | None = None


class MOMFBOptimizer(BOLoop):
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

    def __init__(
        self,
        problem: MultiObjectiveProblem,
        *,
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
        if acquisition not in ("ehvi", "parego"):
            raise ValueError("acquisition must be 'ehvi' or 'parego'")
        if ehvi_mc_samples < 1:
            raise ValueError("ehvi_mc_samples must be >= 1")
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
        self.ehvi_mc_samples = int(ehvi_mc_samples)
        self.rho = float(rho)
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
        self.archive = ParetoArchive(problem.n_objectives)
        self._ref_point: np.ndarray | None = None

    # ------------------------------------------------------------------
    # data plumbing
    # ------------------------------------------------------------------
    def _moo_data(
        self, fidelity: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Training arrays ``(x, objectives, constraints)`` at one fidelity."""
        x, _, constraints = self.history.data(fidelity)
        objectives = np.vstack(
            [r.evaluation.objectives for r in self.history.records_at(fidelity)]
        )
        return x, objectives, constraints

    def _finite_objectives(self) -> np.ndarray:
        observed = np.vstack([r.evaluation.objectives for r in self.history.records])
        return observed[np.all(np.isfinite(observed), axis=1)]

    def _infer_ref_point(self) -> np.ndarray:
        """Config override, else observed nadir plus a 10% span margin."""
        if self.ref_point_config is not None:
            return np.asarray(self.ref_point_config, dtype=float)
        observed = self._finite_objectives()
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
    # BOLoop hooks
    # ------------------------------------------------------------------
    def _fit(self) -> _Models:
        """EHVI: one model pair per objective, then per constraint.
        ParEGO: the scalarized objective's pair, then one pair per
        constraint, shared by every batch member."""
        if self._ref_point is None:
            self._ref_point = self._infer_ref_point()
        m = self.problem.n_objectives
        z = self._rng_streams["mc"].standard_normal(self.n_mc_samples)
        x_low, f_low, c_low = self._moo_data(FIDELITY_LOW)
        x_high, f_high, c_high = self._moo_data(FIDELITY_HIGH)
        if self.acquisition == "ehvi":
            low, fused = self._fit_pairs(
                x_low, [*f_low.T, *c_low.T], x_high, [*f_high.T, *c_high.T]
            )
            z_ehvi = None
            if m > 2:
                z_ehvi = self._rng_streams["scalar"].standard_normal(
                    (self.ehvi_mc_samples, m)
                )
            return _Models(low, fused, z, z_ehvi=z_ehvi)
        constraints = self._fit_pairs(x_low, [*c_low.T], x_high, [*c_high.T])
        return self._scalarized(_Models([], [], z, constraints=constraints))

    def _scalarized(self, models: _Models) -> _Models:
        """ParEGO: draw a weight vector and fit its scalarized target in
        front of the shared constraint models."""
        weights = draw_simplex_weights(
            self.problem.n_objectives, self._rng_streams["scalar"]
        )
        observed = self._finite_objectives()
        scalarizer = ParEGOScalarizer(
            weights,
            ideal=observed.min(axis=0),
            nadir=observed.max(axis=0),
            rho=self.rho,
        )
        x_low, f_low, _ = self._moo_data(FIDELITY_LOW)
        x_high, f_high, _ = self._moo_data(FIDELITY_HIGH)
        obj_low, obj_fused = self._fit_pairs(
            x_low,
            [scalarizer.scalarize(f_low)],
            x_high,
            [scalarizer.scalarize(f_high)],
        )
        con_low, con_fused = models.constraints
        models.low, models.fused = obj_low + con_low, obj_fused + con_fused
        models.scalarizer = scalarizer
        return models

    def _stages(self, models: _Models) -> list[Stage]:
        low = [m.predict for m in models.low]
        fused = [partial(m.predict, z=models.z) for m in models.fused]
        if self.acquisition == "parego":
            scalarizer = models.scalarizer
            assert scalarizer is not None  # set by _scalarized
            tau_low, incumbent_low = self._best_scalarized(scalarizer, FIDELITY_LOW)
            tau_high, incumbent_high = self._best_scalarized(scalarizer, FIDELITY_HIGH)
            low_acq = self._wei(low, tau_low)
            high_acq = self._wei(fused, tau_high)
        else:
            x_low_front, f_low_front = self._fidelity_front(FIDELITY_LOW)
            f_high_front = self.archive.front()
            incumbent_low = self._front_incumbent(x_low_front, f_low_front)
            incumbent_high = self._front_incumbent(
                np.array([e.x_unit for e in self.archive.front_entries()]),
                f_high_front,
            )
            low_acq = self._build_ehvi(
                low, f_low_front, f_low_front.shape[0] > 0, models.z_ehvi
            )
            high_acq = self._build_ehvi(
                fused,
                np.vstack([f_high_front, *models.front]),
                self.archive.has_feasible,
                models.z_ehvi,
            )
        return [
            (low_acq, incumbent_low, incumbent_high),
            (high_acq, incumbent_low, incumbent_high),
        ]

    def _best_scalarized(
        self, scalarizer: ParEGOScalarizer, fidelity: str
    ) -> tuple[float | None, np.ndarray | None]:
        """ParEGO ``(tau, x)``: the smallest scalarized feasible record."""
        records = [r for r in self.history.records_at(fidelity) if r.feasible]
        if not records:
            return None, None
        values = scalarizer.scalarize(
            np.vstack([r.evaluation.objectives for r in records])
        )
        best = int(np.argmin(values))
        return float(values[best]), records[best].x_unit

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

    def _believe(
        self, models: _Models, x: np.ndarray, fidelity: str, pending: bool
    ) -> _Models:
        """EHVI: constant liar, appending the fused posterior mean of
        ``x`` to the working front so the next member targets another
        part of it. ParEGO only avoids in-flight points; each later
        batch member optimizes a freshly drawn scalarization instead."""
        if self.acquisition == "ehvi":
            x2 = x[None, :]
            models.front.append(
                np.array(
                    [
                        float(model.predict_mean_path(x2)[0][0])
                        for model in models.fused[: self.problem.n_objectives]
                    ]
                )
            )
            return models
        return models if pending else self._scalarized(models)

    # ------------------------------------------------------------------
    # observation / archive maintenance
    # ------------------------------------------------------------------
    def _after_observe(self, record: Record) -> None:
        self._archive_add(self.archive, record)
        super()._after_observe(record)

    def _archive_add(self, archive: ParetoArchive, record: Record) -> None:
        """Add a high-fidelity record to ``archive``; ignore the rest."""
        if record.fidelity == self.problem.highest_fidelity:
            evaluation = record.evaluation
            archive.add(
                record.x_unit,
                evaluation.objectives,
                evaluation.total_violation,
                evaluation.metrics,
            )

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
            if record.fidelity == self.problem.highest_fidelity:
                self._archive_add(archive, record)
                rows.append((cost, hypervolume(archive.front(), self._ref_point)))
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
            **super().config_dict(),
            "acquisition": self.acquisition,
            "ref_point": self.ref_point_config,
            "ehvi_mc_samples": self.ehvi_mc_samples,
            "rho": self.rho,
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
        self.archive = ParetoArchive(self.problem.n_objectives)
        for record in self.history.records:
            self._archive_add(self.archive, record)
