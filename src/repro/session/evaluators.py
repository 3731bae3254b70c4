"""Evaluation backends: how a batch of suggestions gets simulated.

The session API decouples *suggesting* designs from *evaluating* them;
an :class:`Evaluator` is the injectable evaluation half.
:class:`SerialEvaluator` evaluates in-process, one suggestion at a time
(the default; bit-for-bit equivalent to the legacy ``run()`` loops).

For simulation-bound problems, :class:`repro.session.farm.AsyncEvaluator`
evaluates in worker processes. Its ``evaluate`` is the same ordered
barrier (results come back in suggestion order, so batched runs stay
reproducible), and it also streams results out of order with timeouts,
retries and worker-death recovery.
"""

from __future__ import annotations

from typing import Sequence

from ..problems.base import Evaluation, Problem
from .protocol import Suggestion

__all__ = ["Evaluator", "SerialEvaluator"]


class Evaluator:
    """Base class: turn suggestions into evaluations, preserving order."""

    def evaluate(
        self, problem: Problem, suggestions: Sequence[Suggestion]
    ) -> list[Evaluation]:
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (pools); idempotent."""

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialEvaluator(Evaluator):
    """Evaluate every suggestion in-process, in order."""

    def evaluate(
        self, problem: Problem, suggestions: Sequence[Suggestion]
    ) -> list[Evaluation]:
        return [
            problem.evaluate_unit(s.x_unit, s.fidelity) for s in suggestions
        ]
