"""The ask/tell strategy protocol shared by the optimizer and baselines.

A *strategy* is the model-based (or heuristic) half of an optimization
loop: it decides **where** to evaluate next (:meth:`Strategy.suggest`)
and learns from the outcomes it is told about (:meth:`Strategy.observe`),
but never runs a simulation itself. Evaluation is the caller's concern —
serial, process-pool, or an external simulator farm — which is the
control-flow inversion that makes pausing, resuming and distributing an
optimization possible.

The protocol is intentionally small:

``suggest(k) -> list[Suggestion]``
    Up to ``k`` candidate designs, each a ``(x_unit, fidelity)`` pair on
    the unit cube. Fewer than ``k`` (or an empty list) may be returned
    when the budget or the strategy's internal batching does not allow
    more.
``observe(x_unit, fidelity, evaluation)``
    Feed back one completed evaluation. Observations should be fed back
    in suggestion order (population-based strategies rely on it).
``state_dict() / load_state_dict(state)``
    Full JSON-serializable state — history, queued suggestions, RNG
    bit-generator states, budget accounting — such that a resumed
    strategy reproduces the exact trajectory of an uninterrupted run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Protocol, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.history import History, Record
    from ..core.result import BOResult
    from ..problems.base import Evaluation, Problem

__all__ = ["Suggestion", "Strategy"]


class Suggestion(NamedTuple):
    """One candidate evaluation: a unit-cube design and a fidelity.

    Behaves as the plain ``(x_unit, fidelity)`` tuple callers unpack.
    """

    x_unit: np.ndarray
    fidelity: str


@runtime_checkable
class Strategy(Protocol):
    """Structural type for ask/tell optimization strategies."""

    problem: "Problem"
    history: "History"
    algorithm_name: str

    def suggest(self, k: int = 1) -> list[Suggestion]:
        """Return up to ``k`` candidates to evaluate next."""
        ...

    def observe(
        self, x_unit: np.ndarray, fidelity: str, evaluation: "Evaluation"
    ) -> "Record":
        """Feed back one completed evaluation."""
        ...

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the full strategy state."""
        ...

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        ...

    @property
    def is_done(self) -> bool:
        """True once the budget (or an iteration cap) is exhausted."""
        ...

    def result(self) -> "BOResult":
        """Best design found so far as a :class:`repro.core.BOResult`."""
        ...
