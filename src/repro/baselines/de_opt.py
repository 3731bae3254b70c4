"""DE — simulation-driven differential evolution baseline.

The pure evolutionary baseline of the paper's evaluation (Liu et al.
2009 style, ref. [15]): classic rand/1/bin differential evolution where
every trial vector is evaluated with a true simulation, and selection
uses Deb's feasibility rules for the constraints.

Implements the ask/tell :class:`repro.session.Strategy` protocol. DE is
naturally batched: ``suggest`` hands out the current generation's trial
vectors (up to ``k`` at a time, so a parallel evaluator can simulate a
whole generation at once), and the greedy one-to-one selection runs
when the last member of the generation is observed — which is why
observations must be fed back in suggestion order.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.history import History, Record
from ..core.strategy import StrategyBase
from ..design.sampling import maximin_latin_hypercube
from ..optim.de import DifferentialEvolution, deb_fitness
from ..problems.base import Problem
from ..session.protocol import Suggestion

__all__ = ["DEOptimizer"]


class DEOptimizer(StrategyBase):
    """Simulation-in-the-loop differential evolution.

    Parameters
    ----------
    problem:
        Problem to optimize (highest fidelity only).
    budget:
        Total number of simulations including the initial population
        (paper: 10100 with 100 initial points for the charge pump).
    pop_size:
        Population size.
    """

    algorithm_name = "DE"
    strategy_id = "de"
    rng_stream_names = ("init", "de")

    def __init__(
        self,
        problem: Problem,
        *,
        budget: int = 300,
        pop_size: int = 20,
        differential_weight: float = 0.8,
        crossover_rate: float = 0.9,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        callback: Callable[[int, History], None] | None = None,
    ):
        if budget < pop_size:
            raise ValueError("budget must cover the initial population")
        self.budget = int(budget)
        self.pop_size = int(pop_size)
        self.differential_weight = float(differential_weight)
        self.crossover_rate = float(crossover_rate)
        self._setup_base(problem, seed, rng, callback)
        self.engine = DifferentialEvolution(
            dim=problem.dim,
            pop_size=pop_size,
            differential_weight=differential_weight,
            crossover_rate=crossover_rate,
            rng=self._rng_streams["de"],
        )
        self._fidelity = problem.highest_fidelity
        # Per-generation observation buffers: selection needs the whole
        # generation's fitness at once.
        self._gen_objectives: list[float] = []
        self._gen_violations: list[float] = []
        self._gen_initial = True

    # ------------------------------------------------------------------
    # ask/tell hooks
    # ------------------------------------------------------------------
    def _initial_suggestions(self) -> list[Suggestion]:
        initial = maximin_latin_hypercube(
            self.pop_size, self.problem.dim, self._rng_streams["init"]
        )
        self.engine.initialize(initial)
        self._gen_initial = True
        return [Suggestion(u, self._fidelity) for u in initial]

    def _refill(self, k: int) -> None:
        if self._selection_pending:
            # Outstanding observations; selection has not run yet, so no
            # new trials can be generated.
            return
        self._iteration += 1
        trials = self.engine.ask()
        self._queue.extend(Suggestion(u, self._fidelity) for u in trials)

    def _after_observe(self, record: Record) -> None:
        self._gen_objectives.append(record.objective)
        self._gen_violations.append(record.evaluation.total_violation)
        if len(self._gen_objectives) < self.pop_size:
            return
        fitness = deb_fitness(
            np.asarray(self._gen_objectives),
            np.asarray(self._gen_violations),
        )
        self.engine.tell(fitness, initial=self._gen_initial)
        self._gen_objectives = []
        self._gen_violations = []
        was_initial, self._gen_initial = self._gen_initial, False
        if self.callback is not None and not was_initial:
            self.callback(self._iteration, self.history)

    @property
    def _selection_pending(self) -> bool:
        """True while a generation awaits observations or selection.

        Covers the initial population (``fitness`` unset until its
        ``tell``), a pending :meth:`DifferentialEvolution.ask` whose
        trials have not all been observed, and partially filled
        observation buffers.
        """
        return (
            bool(self._gen_objectives)
            or self.engine.fitness is None
            or self.engine._pending_trials is not None
        )

    def _done(self) -> bool:
        if self._selection_pending:
            return False
        return (
            self.history.n_evaluations(self._fidelity) + self.pop_size
            > self.budget
        )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def config_dict(self) -> dict:
        return {
            "budget": self.budget,
            "pop_size": self.pop_size,
            "differential_weight": self.differential_weight,
            "crossover_rate": self.crossover_rate,
        }

    def _extra_state(self) -> dict:
        engine = self.engine
        return {
            "population": (
                None if engine.population is None else engine.population.tolist()
            ),
            "fitness": (
                None if engine.fitness is None else engine.fitness.tolist()
            ),
            "pending_trials": (
                None
                if engine._pending_trials is None
                else engine._pending_trials.tolist()
            ),
            "gen_objectives": list(self._gen_objectives),
            "gen_violations": list(self._gen_violations),
            "gen_initial": self._gen_initial,
        }

    def _load_extra_state(self, extra: dict) -> None:
        engine = self.engine
        engine.population = (
            None
            if extra["population"] is None
            else np.asarray(extra["population"], dtype=float)
        )
        engine.fitness = (
            None
            if extra["fitness"] is None
            else np.asarray(extra["fitness"], dtype=float)
        )
        engine._pending_trials = (
            None
            if extra["pending_trials"] is None
            else np.asarray(extra["pending_trials"], dtype=float)
        )
        self._gen_objectives = [float(v) for v in extra["gen_objectives"]]
        self._gen_violations = [float(v) for v in extra["gen_violations"]]
        self._gen_initial = bool(extra["gen_initial"])
