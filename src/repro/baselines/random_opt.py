"""Random search — the sanity-check baseline.

Uniform random sampling at the highest fidelity, wrapped in the ask/tell
:class:`repro.session.Strategy` protocol. No model, no state beyond the
history and one RNG stream — which also makes it the simplest reference
implementation of a session strategy (and trivially batchable:
``suggest(k)`` returns ``k`` independent points).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.history import History
from ..core.strategy import StrategyBase
from ..design.sampling import maximin_latin_hypercube, uniform
from ..problems.base import Problem
from ..session.protocol import Suggestion

__all__ = ["RandomSearchOptimizer"]


class RandomSearchOptimizer(StrategyBase):
    """Uniform random search at the highest fidelity.

    Parameters
    ----------
    problem:
        Problem to optimize (highest fidelity only).
    budget:
        Total number of simulations, including the initial design.
    n_init:
        Initial Latin-hypercube design size (the remaining budget is
        spent on i.i.d. uniform draws).
    """

    algorithm_name = "Random"
    strategy_id = "random_search"
    rng_stream_names = ("init", "sample")

    def __init__(
        self,
        problem: Problem,
        *,
        budget: int = 100,
        n_init: int = 10,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        callback: Callable[[int, History], None] | None = None,
    ):
        if n_init < 1:
            raise ValueError("n_init must be >= 1")
        if budget < n_init:
            raise ValueError("budget must cover the initial design")
        self.budget = int(budget)
        self.n_init = int(n_init)
        self._setup_base(problem, seed, rng, callback)
        self._fidelity = problem.highest_fidelity

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
        points = uniform(m, self.problem.dim, self._rng_streams["sample"])
        self._queue.extend(Suggestion(u, self._fidelity) for u in points)

    def _done(self) -> bool:
        return self.history.n_evaluations(self._fidelity) >= self.budget

    # ------------------------------------------------------------------
    def config_dict(self) -> dict:
        return {"budget": self.budget, "n_init": self.n_init}
