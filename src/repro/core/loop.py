"""One Bayesian-optimization iteration for every model-based strategy.

The paper's Algorithm 1 is one loop, and :class:`BOLoop` owns it. The
multi-fidelity optimizer (:class:`repro.core.MFBOptimizer`), its
multi-objective lift (:class:`repro.moo.MOMFBOptimizer`) and the
single-fidelity WEIBO baseline (:class:`repro.baselines.WEIBO`) differ
only in four hooks:

``_fit()``
    Fit this iteration's models; the result is any object the other
    three hooks understand.
``_stages(models)``
    The acquisition stages, coarsest fidelity first, as
    ``(acquisition, incumbent_low, incumbent_high)`` triples for MSP.
``_select(x, models)``
    The fidelity to simulate ``x`` at. The default is the only fidelity,
    or the eq. 11/12 rule over ``models.low`` across two.
``_believe(models, x, fidelity, pending)``
    Models that believe an outcome at ``x``: the constant liar / kriging
    believer of Ginsbourger et al. (2010). ``pending`` tells a
    suggestion still in flight from a batch member just picked.

One iteration (:meth:`BOLoop._refill`) runs, in order:

1. wait until every modelled fidelity has an observation: before that,
   no iteration starts and no RNG stream is drawn from;
2. fit;
3. believe, avoid and budget the suggestions still in flight;
4. for each batch member: MSP over the stages, each seeded with the
   previous stage's optimum, then a duplicate nudge; select the
   fidelity; clamp it to the budget (the selected fidelity, else the
   coarsest, else stop); believe the pick before the next member.

Every stream is drawn in a fixed order per iteration, so serial,
batched, in-flight and resumed runs stay bit-reproducible.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Sequence

import numpy as np

from ..acquisition.functions import Predictor, ViolationAcquisition, WeightedEI
from ..design.sampling import maximin_latin_hypercube
from ..gp.gpr import GPR
from ..mf.nargp import NARGP
from ..optim.msp import MSPOptimizer, MSPResult
from ..problems.base import FIDELITY_HIGH, FIDELITY_LOW, Problem
from ..session.protocol import Suggestion
from .fidelity import FidelitySelector
from .history import History
from .strategy import StrategyBase

__all__ = ["BOLoop", "fit_pairs"]

#: ``(acquisition, incumbent_low, incumbent_high)`` for one MSP search
Stage = tuple[Callable, np.ndarray | None, np.ndarray | None]


def fit_pairs(
    x_low: np.ndarray,
    targets_low: Sequence[np.ndarray],
    x_high: np.ndarray,
    targets_high: Sequence[np.ndarray],
    *,
    rng: np.random.Generator,
    n_restarts: int,
    max_opt_iter: int,
) -> tuple[list[GPR], list[NARGP]]:
    """One (low GP, fused NARGP) pair per output, in output order.

    Each NARGP reuses its output's low GP. Both fits draw their
    hyperparameter restarts from ``rng``, low GP first.
    """
    low_models: list[GPR] = []
    fused_models: list[NARGP] = []
    for t_low, t_high in zip(targets_low, targets_high):
        low_gp = GPR(max_opt_iter=max_opt_iter).fit(
            x_low, t_low, n_restarts=n_restarts, rng=rng
        )
        fused = NARGP(n_restarts=n_restarts, max_opt_iter=max_opt_iter)
        fused.fit(x_low, t_low, x_high, t_high, rng=rng, low_model=low_gp)
        low_models.append(low_gp)
        fused_models.append(fused)
    return low_models, fused_models


class BOLoop(StrategyBase):
    """Algorithm 1's iteration; subclasses supply the four hooks above.

    Besides the loop, it holds what the model-based strategies share:
    the initial design, the budget (:meth:`_done`), MSP construction,
    two-fidelity validation, the fused-pair fitter and the wEI / eq. 13
    acquisition builder.
    """

    #: modelled fidelities, coarsest first
    fidelities: tuple[str, ...]
    #: iteration cap on top of the budget (the multi-fidelity
    #: strategies take it as a constructor argument)
    max_iterations: float = math.inf

    def _setup_loop(
        self,
        problem: Problem,
        design: dict[str, int],
        *,
        budget: float,
        n_restarts: int,
        gp_max_opt_iter: int,
        msp_starts: int,
        msp_polish: int,
        ball_stddev: float,
        seed: int | None,
        rng: np.random.Generator | None,
        callback: Callable[[int, History], None] | None,
    ) -> None:
        """Shared state; ``design`` maps each modelled fidelity, coarsest
        first, to its initial-design size."""
        self.budget = budget
        self.n_restarts = int(n_restarts)
        self.gp_max_opt_iter = int(gp_max_opt_iter)
        self.msp_starts = int(msp_starts)
        self.msp_polish = int(msp_polish)
        self.ball_stddev = float(ball_stddev)
        self.fidelities = tuple(design)
        self._design = dict(design)
        self._setup_base(problem, seed, rng, callback)
        self.acq_optimizer = MSPOptimizer(
            dim=problem.dim,
            n_starts=msp_starts,
            n_polish=msp_polish,
            frac_around_low=0.10,
            frac_around_high=0.40,
            ball_stddev=ball_stddev,
            rng=self._rng_streams["acq"],
        )

    def _setup_two_fidelity(
        self,
        problem: Problem,
        *,
        budget: float,
        n_init_low: int,
        n_init_high: int,
        gamma: float,
        n_mc_samples: int,
        max_iterations: int,
        **loop,
    ) -> None:
        """Validate and set up a low/high-fidelity strategy."""
        if len(problem.fidelities) != 2:
            raise ValueError(
                f"{type(self).__name__} needs a two-fidelity problem; got "
                f"{problem.fidelities}"
            )
        if budget <= 0:
            raise ValueError("budget must be positive")
        if n_init_low < 1 or n_init_high < 1:
            raise ValueError("initial designs need at least one point each")
        if n_mc_samples < 1:
            raise ValueError("n_mc_samples must be >= 1")
        self.n_init_low = int(n_init_low)
        self.n_init_high = int(n_init_high)
        self.n_mc_samples = int(n_mc_samples)
        self.max_iterations = int(max_iterations)
        self._setup_loop(
            problem,
            {FIDELITY_LOW: self.n_init_low, FIDELITY_HIGH: self.n_init_high},
            budget=float(budget),
            **loop,
        )
        self.selector = FidelitySelector(gamma=gamma)

    # ------------------------------------------------------------------
    # shared pieces
    # ------------------------------------------------------------------
    def _initial_suggestions(self) -> list[Suggestion]:
        rng = self._rng_streams["init"]
        return [
            Suggestion(u, fidelity)
            for fidelity, n in self._design.items()
            for u in maximin_latin_hypercube(n, self.problem.dim, rng)
        ]

    def _price(self, fidelity: str) -> float:
        """Budget one simulation spends: its equivalent high-fidelity
        cost across fidelities, one simulation in a single-fidelity loop
        (whose budget counts simulations)."""
        if len(self.fidelities) == 1:
            return 1.0
        return self.problem.cost(fidelity)

    def _spent(self) -> float:
        if len(self.fidelities) == 1:
            return float(self.history.n_evaluations(self.fidelities[0]))
        return self.history.total_cost

    def _done(self) -> bool:
        return (
            self._spent() >= self.budget - 1e-9
            or self._iteration >= self.max_iterations
        )

    def _fit_pairs(
        self,
        x_low: np.ndarray,
        targets_low: Sequence[np.ndarray],
        x_high: np.ndarray,
        targets_high: Sequence[np.ndarray],
    ) -> tuple[list[GPR], list[NARGP]]:
        return fit_pairs(
            x_low,
            targets_low,
            x_high,
            targets_high,
            rng=self._rng_streams["gp"],
            n_restarts=self.n_restarts,
            max_opt_iter=self.gp_max_opt_iter,
        )

    def _incumbent(self, fidelity: str) -> tuple[float | None, np.ndarray | None]:
        """``(tau, x)`` at ``fidelity``: the best feasible objective (None
        while nothing is feasible) and the MSP incumbent (best feasible,
        else least violating)."""
        feasible = self.history.best_feasible(fidelity)
        incumbent = self.history.incumbent(fidelity)
        return (
            None if feasible is None else feasible.objective,
            None if incumbent is None else incumbent.x_unit,
        )

    @staticmethod
    def _wei(
        predictors: Sequence[Predictor], tau: float | None
    ) -> WeightedEI | ViolationAcquisition:
        """wEI (eq. 6) over ``[objective, *constraints]`` once a feasible
        incumbent ``tau`` exists; before that, the eq. 13 violation
        search (plain wEI without constraints)."""
        constraints = list(predictors[1:])
        if tau is not None or not constraints:
            return WeightedEI(predictors[0], constraints, tau)
        return ViolationAcquisition(constraints)

    def config_dict(self) -> dict:
        config = {
            "budget": self.budget,
            "n_restarts": self.n_restarts,
            "gp_max_opt_iter": self.gp_max_opt_iter,
            "msp_starts": self.msp_starts,
            "msp_polish": self.msp_polish,
            "ball_stddev": self.ball_stddev,
        }
        if len(self.fidelities) == 2:
            config.update(
                n_init_low=self.n_init_low,
                n_init_high=self.n_init_high,
                gamma=self.selector.gamma,
                n_mc_samples=self.n_mc_samples,
                max_iterations=self.max_iterations,
            )
        return config

    # ------------------------------------------------------------------
    # the iteration
    # ------------------------------------------------------------------
    def _refill(self, k: int) -> None:
        """One iteration producing up to ``k`` suggestions.

        In-flight suggestions (an asynchronous evaluator) are believed,
        avoided and charged to the budget before the batch loop; once a
        real outcome lands, :meth:`observe` retracts its pending entry
        and the next refill believes the truth instead. With nothing in
        flight that step is a no-op.
        """
        if any(self.history.n_evaluations(f) == 0 for f in self.fidelities):
            return  # initial design still in flight at some fidelity
        self._iteration += 1
        fit_start = time.perf_counter()
        models = self._fit()
        fit_elapsed = time.perf_counter() - fit_start

        propose_start = time.perf_counter()
        projected = self._spent() + sum(
            self._price(s.fidelity) for s in self._pending
        )
        avoid: list[np.ndarray] = []
        for s in self._pending:
            x_pending = np.asarray(s.x_unit, dtype=float).ravel()
            models = self._believe(models, x_pending, s.fidelity, True)
            avoid.append(x_pending)
        chosen: list[str] = []
        first_acq: float | None = None
        for j in range(k):
            result: MSPResult | None = None
            for acquisition, incumbent_low, incumbent_high in self._stages(
                models
            ):
                result = self.acq_optimizer.maximize(
                    acquisition,
                    incumbent_low=incumbent_low,
                    incumbent_high=incumbent_high,
                    extra_starts=None if result is None else result.x,
                )
            assert result is not None  # every strategy has a stage
            x_next = self._dedup(result.x, avoid=avoid)
            if first_acq is None:
                first_acq = float(result.value)

            fidelity = self._select(x_next, models)
            remaining = self.budget - projected
            if self._price(fidelity) > remaining + 1e-9:
                coarsest = self.fidelities[0]
                if self._price(coarsest) > remaining + 1e-9:
                    # Not even the cheapest simulation fits: stop, so
                    # the spent cost respects the budget.
                    self._stopped = True
                    break
                fidelity = coarsest
            self._queue.append(Suggestion(x_next, fidelity))
            chosen.append(fidelity)
            avoid.append(x_next)
            projected += self._price(fidelity)
            if j < k - 1:
                models = self._believe(models, x_next, fidelity, False)
        self._emit_telemetry(
            "iteration",
            fit_s=fit_elapsed,
            propose_s=time.perf_counter() - propose_start,
            fidelity=chosen[0] if chosen else None,
            n_suggested=len(chosen),
            acq=first_acq,
            budget_spent=float(projected),
        )

    # ------------------------------------------------------------------
    # hooks
    # ------------------------------------------------------------------
    def _fit(self):
        raise NotImplementedError

    def _stages(self, models) -> list[Stage]:
        raise NotImplementedError

    def _select(self, x: np.ndarray, models) -> str:
        """The only fidelity, else eq. 11/12 over ``models.low``, the
        low-fidelity model of every output."""
        if len(self.fidelities) == 1:
            return self.fidelities[0]
        return self.selector.select(x, models.low)

    def _believe(self, models, x: np.ndarray, fidelity: str, pending: bool):
        raise NotImplementedError
