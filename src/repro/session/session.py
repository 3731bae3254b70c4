"""Ask/tell optimization sessions with checkpoint/resume.

:class:`OptimizationSession` drives any :class:`repro.session.Strategy`
— the paper's :class:`repro.core.MFBOptimizer` or any baseline — against
an injectable :class:`repro.session.Evaluator`. One ``step`` is::

    suggestions = strategy.suggest(batch_size)   # ask
    evaluations = evaluator.evaluate(problem, suggestions)
    strategy.observe(x, fidelity, evaluation)    # tell (per suggestion)

``run()`` loops steps until the strategy's budget is exhausted, which
makes the legacy blocking loops thin wrappers over sessions. Because a
strategy's full state is JSON-serializable, a session can be saved at
any step boundary and resumed later — reproducing the exact same
trajectory the uninterrupted run would have produced.

Example
-------
>>> from repro import MFBOptimizer, OptimizationSession
>>> from repro.problems import ForresterProblem
>>> strategy = MFBOptimizer(ForresterProblem(), budget=8.0, n_init_low=6,
...                         n_init_high=2, seed=0, msp_starts=20,
...                         msp_polish=0, n_restarts=1)
>>> session = OptimizationSession(strategy)
>>> result = session.run()
>>> result.feasible
True
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..obs import span
from ..registry import restore_strategy
from .evaluators import Evaluator, SerialEvaluator
from .protocol import Strategy, Suggestion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.history import History, Record
    from ..core.result import BOResult
    from ..problems.base import Evaluation, Problem

__all__ = ["CheckpointError", "OptimizationSession", "load_checkpoint"]

CHECKPOINT_FORMAT = "repro-session-checkpoint"
CHECKPOINT_VERSION = 1

class CheckpointError(ValueError):
    """A checkpoint file is corrupt, truncated or not a checkpoint."""


def load_checkpoint(path: str | Path) -> dict:
    """Read and validate a checkpoint file, returning its payload.

    Raises :class:`CheckpointError` naming the offending path when the
    file is not valid JSON (e.g. a partial write after a crash) or is
    not a supported checkpoint; the message points at the ``.bak``
    sibling :meth:`OptimizationSession.save` keeps, when one exists.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        backup = path.with_suffix(path.suffix + ".bak")
        hint = (
            f"; previous checkpoint preserved at {backup}"
            if backup.exists()
            else ""
        )
        raise CheckpointError(
            f"corrupt checkpoint {path}: {exc}{hint}"
        ) from exc
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    version = payload.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} in {path} not supported "
            f"(expected {CHECKPOINT_VERSION})"
        )
    return payload


class OptimizationSession:
    """Drive a strategy with an injectable evaluation backend.

    Parameters
    ----------
    strategy:
        Any object implementing the :class:`repro.session.Strategy`
        protocol.
    evaluator:
        Evaluation backend; defaults to :class:`SerialEvaluator`. Pass a
        :class:`repro.session.AsyncEvaluator` to simulate batches in
        parallel.
    checkpoint_path, checkpoint_every:
        With ``checkpoint_path`` set, :meth:`run` saves a checkpoint
        there on completion; with ``checkpoint_every`` additionally set,
        :meth:`step` also auto-saves every ``checkpoint_every`` steps.
    own_evaluator:
        Whether :meth:`close` (and the ``with`` statement) shuts the
        evaluator down. Defaults to ``True`` exactly when the session
        created the evaluator itself — pass an evaluator you intend to
        reuse across sessions and it stays open; pass
        ``own_evaluator=True`` to hand its lifetime to the session.
    """

    def __init__(
        self,
        strategy: Strategy,
        evaluator: Evaluator | None = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int | None = None,
        own_evaluator: bool | None = None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.strategy = strategy
        self.own_evaluator = (
            bool(own_evaluator) if own_evaluator is not None else evaluator is None
        )
        self.evaluator = evaluator if evaluator is not None else SerialEvaluator()
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.checkpoint_every = checkpoint_every
        self.n_steps = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the evaluator if this session owns it; idempotent."""
        if self.own_evaluator:
            self.evaluator.close()

    def __enter__(self) -> "OptimizationSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # pass-throughs
    # ------------------------------------------------------------------
    @property
    def problem(self) -> "Problem":
        return self.strategy.problem

    @property
    def history(self) -> "History":
        return self.strategy.history

    @property
    def is_done(self) -> bool:
        return self.strategy.is_done

    def suggest(self, k: int = 1) -> list[Suggestion]:
        """Ask the strategy for up to ``k`` candidates."""
        return self.strategy.suggest(k)

    def observe(
        self, x_unit: np.ndarray, fidelity: str, evaluation: "Evaluation"
    ) -> "Record":
        """Tell the strategy about one externally produced evaluation."""
        return self.strategy.observe(x_unit, fidelity, evaluation)

    def result(self) -> "BOResult":
        return self.strategy.result()

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def step(self, batch_size: int = 1) -> list["Record"]:
        """One ask-evaluate-tell round; returns the new history records.

        An empty list means the strategy had nothing left to suggest.
        """
        with span("session.step", batch_size=batch_size):
            # Suggestions go through self.suggest (and observations
            # through self.observe) so subclasses — e.g. the run vault's
            # persistent session — see every exchange exactly once,
            # whichever driver produced it.
            suggestions = self.suggest(batch_size)
            if not suggestions:
                return []
            evaluations = self.evaluator.evaluate(self.problem, suggestions)
            if len(evaluations) != len(suggestions):
                raise ValueError(
                    f"evaluator returned {len(evaluations)} evaluations for "
                    f"{len(suggestions)} suggestions; every suggestion must "
                    "be answered (in order) or population strategies stall"
                )
            observe = self.observe
            records = [
                observe(s.x_unit, s.fidelity, evaluation)
                for s, evaluation in zip(suggestions, evaluations)
            ]
        self.n_steps += 1
        if (
            self.checkpoint_every is not None
            and self.checkpoint_path is not None
            and self.n_steps % self.checkpoint_every == 0
        ):
            self.save(self.checkpoint_path)
        return records

    def run(
        self, batch_size: int = 1, max_steps: int | None = None
    ) -> "BOResult":
        """Step until the strategy is done and return the best design."""
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        while not self.strategy.is_done and (
            max_steps is None or self.n_steps < max_steps
        ):
            if not self.step(batch_size):
                break
        if self.checkpoint_path is not None:
            self.save(self.checkpoint_path)
        return self.result()

    def run_async(
        self,
        batch_size: int = 1,
        over_suggest: int = 0,
        max_results: int | None = None,
    ) -> "BOResult":
        """Drive a streaming evaluator, observing results out of order.

        Requires an evaluator with the :class:`repro.session.farm`
        streaming API (``submit`` / ``next_result`` / ``pending``), e.g.
        :class:`repro.session.AsyncEvaluator`. The loop keeps
        ``batch_size + over_suggest`` evaluations in flight — the
        ``over_suggest`` extras are speculative work that hides stragglers
        — and tells the strategy about each result the moment it lands,
        whatever its dispatch order. In-flight suggestions are part of the
        strategy's checkpoint state, so a session killed mid-flight
        resumes by re-suggesting exactly the pending points: no budget is
        lost or double-spent.

        ``max_results`` bounds how many evaluations are observed before
        returning (mainly for tests that interrupt a session mid-run).
        """
        evaluator = self.evaluator
        if not hasattr(evaluator, "submit"):
            raise TypeError(
                "run_async needs a streaming evaluator with "
                "submit/next_result/pending (e.g. AsyncEvaluator); "
                f"got {type(evaluator).__name__}"
            )
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if over_suggest < 0:
            raise ValueError("over_suggest must be >= 0")
        target = batch_size + over_suggest
        n_results = 0
        strategy, problem = self.strategy, self.problem
        while True:
            if not strategy.is_done:
                want = target - evaluator.pending
                if want > 0:
                    # Through self.suggest for the same subclass-hook
                    # reason as step(): the vault session flushes
                    # per-iteration telemetry on every suggest.
                    for suggestion in self.suggest(want):
                        evaluator.submit(problem, suggestion)
            if evaluator.pending == 0:
                break
            result = evaluator.next_result()
            self.observe(
                result.suggestion.x_unit,
                result.suggestion.fidelity,
                result.evaluation,
            )
            self.n_steps += 1
            n_results += 1
            if (
                self.checkpoint_every is not None
                and self.checkpoint_path is not None
                and self.n_steps % self.checkpoint_every == 0
            ):
                self.save(self.checkpoint_path)
            if max_results is not None and n_results >= max_results:
                break
        if self.checkpoint_path is not None:
            self.save(self.checkpoint_path)
        return self.result()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write a JSON checkpoint that :meth:`resume` can restart from."""
        path = Path(path)
        state = self.strategy.state_dict()
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "strategy": state["strategy"],
            "problem_name": self.problem.name,
            "n_steps": self.n_steps,
            "state": state,
        }
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload))
        if path.exists():
            # Keep the previous good checkpoint: if this process dies
            # between here and the replace (or the new file is later
            # found corrupt), load_checkpoint points the user at it.
            os.replace(path, path.with_suffix(path.suffix + ".bak"))
        tmp.replace(path)
        return path

    @classmethod
    def resume(
        cls,
        path: str | Path,
        problem: "Problem",
        evaluator: Evaluator | None = None,
        callback: Callable | None = None,
        rng: np.random.Generator | None = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int | None = None,
        own_evaluator: bool | None = None,
    ) -> "OptimizationSession":
        """Reconstruct a session from a checkpoint file.

        The problem is **not** serialized (it may wrap an arbitrary
        simulator); the caller passes an equivalent instance, validated
        by name. The resumed session reproduces the exact trajectory an
        uninterrupted run would have produced: history, queue and every
        RNG stream are restored bit-for-bit.

        ``rng`` is only needed when the strategy was constructed with a
        non-default bit generator (e.g. ``Philox``): pass a generator of
        the same type so the saved stream states can be restored onto it.
        """
        payload = load_checkpoint(path)
        if problem.name != payload["problem_name"]:
            raise ValueError(
                f"checkpoint was written for problem "
                f"{payload['problem_name']!r}, got {problem.name!r}"
            )
        strategy = restore_strategy(
            problem, payload["state"], callback=callback, rng=rng
        )
        session = cls(
            strategy,
            evaluator=evaluator,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            own_evaluator=own_evaluator,
        )
        session.n_steps = int(payload.get("n_steps", 0))
        return session
