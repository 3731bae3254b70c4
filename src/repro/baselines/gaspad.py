"""GASPAD — surrogate-assisted evolutionary optimization baseline.

Re-implementation of the structure of Liu et al., TCAD 2014 (paper
ref. [16]): differential-evolution variation operators generate candidate
designs, a GP surrogate *prescreens* them with a lower-confidence-bound
criterion, and only the most promising candidate per generation receives
a true (expensive) simulation.

Constraint handling follows the feasibility-rule style the original uses:
candidates are ranked by Deb's tournament on the LCB of the objective and
the predicted total constraint violation.

Implements the ask/tell :class:`repro.session.Strategy` protocol;
``suggest(k > 1)`` hands out the ``k`` best-ranked *distinct* candidates
of one prescreened generation.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..acquisition.functions import lower_confidence_bound
from ..core.history import History
from ..core.strategy import StrategyBase
from ..design.sampling import maximin_latin_hypercube
from ..gp.gpr import GPR
from ..optim.de import DifferentialEvolution, deb_fitness
from ..problems.base import Problem
from ..session.protocol import Suggestion

__all__ = ["GASPAD"]


class GASPAD(StrategyBase):
    """GP + DE surrogate-assisted evolutionary algorithm.

    Parameters
    ----------
    problem:
        Problem to optimize (highest fidelity only).
    budget:
        Number of true simulations, including the initial design.
    n_init:
        Initial Latin-hypercube design size (paper: 120 for the charge
        pump, also used to seed the evolutionary population).
    pop_size:
        Evolutionary population size (the ``pop_size`` best simulated
        points so far).
    n_candidates_per_parent:
        DE trial vectors generated per population member and prescreened
        by the surrogate each generation.
    beta:
        LCB exploration weight.
    """

    algorithm_name = "GASPAD"
    strategy_id = "gaspad"
    rng_stream_names = ("init", "gp", "de")

    def __init__(
        self,
        problem: Problem,
        *,
        budget: int = 300,
        n_init: int = 40,
        pop_size: int = 20,
        n_candidates_per_parent: int = 3,
        beta: float = 2.0,
        n_restarts: int = 1,
        gp_max_opt_iter: int = 100,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        callback: Callable[[int, History], None] | None = None,
    ):
        if budget < n_init:
            raise ValueError("budget must cover the initial design")
        if pop_size < 4:
            raise ValueError("pop_size must be >= 4 for DE operators")
        if n_candidates_per_parent < 1:
            raise ValueError("n_candidates_per_parent must be >= 1")
        self.budget = int(budget)
        self.n_init = int(n_init)
        self.pop_size = int(pop_size)
        self.n_candidates_per_parent = int(n_candidates_per_parent)
        self.beta = float(beta)
        self.n_restarts = int(n_restarts)
        self.gp_max_opt_iter = int(gp_max_opt_iter)
        self._setup_base(problem, seed, rng, callback)
        self._fidelity = problem.highest_fidelity

    # ------------------------------------------------------------------
    def _population(self) -> np.ndarray:
        """The ``pop_size`` best simulated points under Deb's rules."""
        x, y, constraints = self.history.data(self._fidelity)
        violation = (
            np.sum(np.maximum(constraints, 0.0), axis=1)
            if constraints.size
            else np.zeros(y.shape)
        )
        fitness = deb_fitness(y, violation)
        order = np.argsort(fitness)
        return x[order[: self.pop_size]]

    def _generate_candidates(self, population: np.ndarray) -> np.ndarray:
        """DE rand/1/bin trials from the elite population."""
        engine = DifferentialEvolution(
            dim=self.problem.dim,
            pop_size=max(4, population.shape[0]),
            rng=self._rng_streams["de"],
        )
        pop = population
        if pop.shape[0] < 4:  # pad tiny populations by resampling
            extra = pop[
                self._rng_streams["de"].integers(
                    pop.shape[0], size=4 - pop.shape[0]
                )
            ]
            pop = np.vstack([pop, extra])
        engine.initialize(pop)
        engine.tell(np.zeros(pop.shape[0]), initial=True)
        trials = [engine.ask() for _ in range(self.n_candidates_per_parent)]
        return np.vstack(trials)

    def _prescreen(self, candidates: np.ndarray) -> np.ndarray:
        """Rank candidates by surrogate LCB + predicted violation."""
        rng = self._rng_streams["gp"]
        x, y, constraints = self.history.data(self._fidelity)
        objective_gp = GPR(max_opt_iter=self.gp_max_opt_iter).fit(
            x, y, n_restarts=self.n_restarts, rng=rng
        )
        mu, var = objective_gp.predict(candidates)
        lcb = lower_confidence_bound(mu, var, self.beta)
        violation = np.zeros(candidates.shape[0])
        for i in range(constraints.shape[1]):
            constraint_gp = GPR(max_opt_iter=self.gp_max_opt_iter).fit(
                x, constraints[:, i], n_restarts=self.n_restarts, rng=rng
            )
            mu_c, var_c = constraint_gp.predict(candidates)
            violation += np.maximum(
                0.0, lower_confidence_bound(mu_c, var_c, self.beta)
            )
        return deb_fitness(lcb, violation)

    # ------------------------------------------------------------------
    # ask/tell hooks
    # ------------------------------------------------------------------
    def _initial_suggestions(self) -> list[Suggestion]:
        design = maximin_latin_hypercube(
            self.n_init, self.problem.dim, self._rng_streams["init"]
        )
        return [Suggestion(u, self._fidelity) for u in design]

    def _refill(self, k: int) -> None:
        remaining = (
            self.budget
            - self.history.n_evaluations(self._fidelity)
            - len(self._pending)
        )
        m = min(k, remaining)
        if m <= 0:
            return
        self._iteration += 1
        population = self._population()
        candidates = self._generate_candidates(population)
        ranking = self._prescreen(candidates)
        order = np.argsort(ranking, kind="stable")
        picked: list[np.ndarray] = []
        for idx in order:
            candidate = candidates[int(idx)]
            if picked and float(
                np.min(
                    np.linalg.norm(
                        np.vstack(picked) - candidate[None, :], axis=1
                    )
                )
            ) <= 1e-12:
                continue  # surrogate ties can duplicate trial vectors
            picked.append(candidate)
            self._queue.append(Suggestion(candidate, self._fidelity))
            if len(picked) >= m:
                break

    def _done(self) -> bool:
        return self.history.n_evaluations(self._fidelity) >= self.budget

    # ------------------------------------------------------------------
    def config_dict(self) -> dict:
        return {
            "budget": self.budget,
            "n_init": self.n_init,
            "pop_size": self.pop_size,
            "n_candidates_per_parent": self.n_candidates_per_parent,
            "beta": self.beta,
            "n_restarts": self.n_restarts,
            "gp_max_opt_iter": self.gp_max_opt_iter,
        }
