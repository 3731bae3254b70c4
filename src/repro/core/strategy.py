"""Shared ask/tell scaffolding for all optimization strategies.

Every optimizer in the library — the paper's Algorithm 1 and the four
baselines — implements the :class:`repro.session.Strategy` protocol by
inheriting from :class:`StrategyBase`, which owns the machinery they all
need:

* the pending-suggestion queue (initial space-filling designs and
  multi-point batches are handed out through it);
* per-component RNG *streams*: the root generator is split with
  ``Generator.spawn`` into independent children (initial sampling, GP
  training restarts, acquisition scatter, ...), so components do not
  race each other for draws and each stream can be checkpointed and
  restored exactly;
* history bookkeeping, iteration counting and callback dispatch in
  :meth:`observe`;
* generic ``state_dict``/``load_state_dict`` covering queue, history,
  iteration counters and every RNG stream, with strategy-specific hooks
  for the rest;
* the legacy blocking :meth:`run`, now a thin driver over an
  :class:`repro.session.OptimizationSession` with a serial evaluator —
  bit-for-bit equivalent to driving the session by hand.
"""

from __future__ import annotations

import math
import time
from collections import deque
from typing import Callable

import numpy as np

from ..obs import span
from ..problems.base import Evaluation, Problem
from ..session.protocol import Suggestion
from ..session.serialization import (
    queue_from_state,
    queue_to_state,
    rng_state,
    set_rng_state,
    spawn_streams,
)
from .history import History, Record
from .result import BOResult

__all__ = ["StrategyBase", "nudge_duplicate"]


def nudge_duplicate(
    x: np.ndarray,
    existing: np.ndarray,
    rng: np.random.Generator,
    tolerance: float = 1e-9,
) -> np.ndarray:
    """Perturb ``x`` until it clears ``tolerance`` against ``existing``.

    Exact duplicates produce singular GP covariance matrices; a tiny
    perturbation (clipped to the cube) preserves the acquisition optimum
    while keeping the kernel matrix invertible. A single nudge is not
    enough — the draw can land back within tolerance, or clipping at the
    cube boundary can undo it — so the perturbation escalates decade by
    decade until the min-distance tolerance actually holds.
    """
    candidate = x
    scale = 1e-6
    while True:
        distances = np.linalg.norm(existing - candidate[None, :], axis=1)
        if float(np.min(distances)) > tolerance:
            return candidate
        candidate = np.clip(
            x + scale * rng.standard_normal(x.size), 0.0, 1.0
        )
        # Escalate so boundary clipping cannot pin the candidate onto
        # the duplicate forever; at scale ~1 the draw spans the cube.
        scale = min(10.0 * scale, 1.0)


def _take_match(
    suggestions: list[Suggestion], x_unit: np.ndarray, fidelity: str
) -> bool:
    """Delete the suggestion matching an observed design; return whether
    one matched.

    Exact array match first; an ``allclose`` pass second, in case the
    caller round-tripped the design through a lossy encoding. Either pass
    requires the same fidelity.
    """
    for i, s in enumerate(suggestions):
        if s.fidelity == fidelity and np.array_equal(s.x_unit, x_unit):
            del suggestions[i]
            return True
    for i, s in enumerate(suggestions):
        if (
            s.fidelity == fidelity
            and np.shape(s.x_unit) == x_unit.shape
            and np.allclose(s.x_unit, x_unit, rtol=0.0, atol=1e-12)
        ):
            del suggestions[i]
            return True
    return False


class StrategyBase:
    """Common ask/tell implementation; subclasses fill in four hooks.

    ``_initial_suggestions()``
        The space-filling design handed out before any model exists.
    ``_refill(k)``
        Push up to ``k`` new suggestions onto ``self._queue`` (one
        strategy iteration). Leaving the queue empty ends the run.
    ``_done()``
        Budget/iteration-cap check, consulted only once the initial
        design is out and the queue is drained.
    ``config_dict()``
        Constructor kwargs (minus problem/rng/callback) — stored in
        checkpoints so :meth:`repro.session.OptimizationSession.resume`
        can rebuild the strategy.

    Strategies with model caches or population state additionally
    override ``_extra_state()`` / ``_load_extra_state()``.
    """

    algorithm_name: str = "strategy"
    #: checkpoint registry key (see ``repro.session.register_strategy``)
    strategy_id: str = "base"
    #: schema version of this strategy's ``state_dict`` payload. Bump it
    #: when the layout of the serialized state changes incompatibly;
    #: :meth:`load_state_dict` then rejects stale checkpoints with a
    #: clear error instead of silently mis-restoring them. Checkpoints
    #: written before the field existed are treated as version 1.
    state_version: int = 1
    #: names of the independent RNG streams this strategy consumes
    rng_stream_names: tuple[str, ...] = ("init",)

    def _setup_base(
        self,
        problem: Problem,
        seed: int | None,
        rng: np.random.Generator | None,
        callback: Callable[[int, History], None] | None = None,
    ) -> None:
        self.problem = problem
        self.callback = callback
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self._rng_streams = spawn_streams(self.rng, self.rng_stream_names)
        self.history = History()
        self._iteration = 0
        self._queue: list[Suggestion] = []
        self._pending: list[Suggestion] = []
        self._init_drawn = False
        self._stopped = False
        # Per-iteration telemetry (fidelity, acquisition value, stage
        # durations). Bounded so an undrained buffer — no vault attached
        # — can never grow with the run length.
        self._telemetry: deque[dict] = deque(maxlen=256)
        self._observe_elapsed = 0.0

    # ------------------------------------------------------------------
    # ask/tell
    # ------------------------------------------------------------------
    def suggest(self, k: int = 1) -> list[Suggestion]:
        """Return up to ``k`` candidates to evaluate next.

        The initial design is handed out first (in evaluation order);
        afterwards each refill is one strategy iteration. Fewer than
        ``k`` suggestions (or none) are returned when the budget does
        not allow more.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        with span("strategy.suggest", k=k):
            if not self._init_drawn:
                self._queue.extend(self._initial_suggestions())
                self._init_drawn = True
            if not self._queue and not self.is_done:
                start = time.perf_counter()
                self._refill(k)
                self._note_suggest_time(time.perf_counter() - start)
            batch = self._queue[:k]
            del self._queue[:k]
            self._pending.extend(batch)
        return batch

    def observe(
        self, x_unit: np.ndarray, fidelity: str, evaluation: Evaluation
    ) -> Record:
        """Feed back one completed evaluation.

        Synchronous drivers feed observations back in suggestion order
        (population-based strategies aggregate a full generation before
        selection); model-based strategies also accept out-of-order
        feedback from an asynchronous evaluator — the matching pending
        suggestion is retracted so the next refill replaces its
        constant-liar fantasy with the real outcome.

        Non-finite objective/constraint values are routed through the
        problem's failure path instead of being recorded verbatim: a NaN
        from a flaky simulator becomes a finite, infeasible
        :class:`repro.problems.FailedEvaluation` rather than poisoning
        the GP fits downstream.

        Raises
        ------
        ValueError
            Before anything is recorded, if the fidelity is not one of the
            problem's, does not match the evaluation's, or if ``x_unit``
            is not a finite vector of ``problem.dim`` entries in
            ``[0, 1]``.
        """
        if evaluation.fidelity != fidelity:
            raise ValueError(
                f"evaluation was run at fidelity {evaluation.fidelity!r} "
                f"but observed as {fidelity!r}"
            )
        if fidelity not in self.problem.fidelities:
            raise ValueError(
                f"unknown fidelity {fidelity!r}; the problem has "
                f"{self.problem.fidelities}"
            )
        x_unit = np.asarray(x_unit, dtype=float).ravel()
        # NaN fails both comparisons, so this also refuses non-finite x.
        in_cube = ((x_unit >= 0.0) & (x_unit <= 1.0)).all()
        if x_unit.size != self.problem.dim or not in_cube:
            raise ValueError(
                f"x_unit must be a finite vector of {self.problem.dim} "
                f"entries in [0, 1], got {x_unit.tolist()}"
            )
        start = time.perf_counter()
        with span("strategy.observe", fidelity=fidelity):
            evaluation = self._validate_finite(x_unit, evaluation)
            # Observations of never-suggested points (externally produced
            # data) leave the pending set untouched.
            _take_match(self._pending, x_unit, fidelity)
            record = self.history.add(
                x_unit,
                evaluation,
                iteration=self._iteration,
            )
            self._after_observe(record)
        self._observe_elapsed += time.perf_counter() - start
        return record

    def _validate_finite(
        self, x_unit: np.ndarray, evaluation: Evaluation
    ) -> Evaluation:
        """Convert a non-finite evaluation into a failed one."""
        if evaluation.failed:
            return evaluation
        # Checked piecewise (no concatenation) — this runs once per
        # observation and the allocation showed up in the session-layer
        # overhead profile.
        finite = math.isfinite(evaluation.objective)
        if finite and evaluation.constraints.size:
            finite = bool(np.isfinite(evaluation.constraints).all())
        objectives = getattr(evaluation, "objectives", None)
        if finite and objectives is not None and len(objectives):
            finite = bool(np.isfinite(objectives).all())
        if finite:
            return evaluation
        x = self.problem.space.from_unit(np.clip(x_unit, 0.0, 1.0))
        return self.problem.failure_evaluation(
            evaluation.fidelity,
            x=x,
            error=(
                "non-finite evaluation result "
                f"(objective={evaluation.objective!r})"
            ),
            error_type="NonFiniteEvaluation",
            metrics=evaluation.metrics,
        )

    # ------------------------------------------------------------------
    # pending (in-flight) suggestion tracking
    # ------------------------------------------------------------------
    @property
    def pending(self) -> list[Suggestion]:
        """Suggestions handed out by :meth:`suggest` but not observed yet."""
        return list(self._pending)

    @property
    def pending_cost(self) -> float:
        """Budget already committed to in-flight suggestions."""
        return float(
            sum(self.problem.cost(s.fidelity) for s in self._pending)
        )

    def discard_queued(self, x_unit: np.ndarray, fidelity: str) -> bool:
        """Drop the queued suggestion matching an externally replayed point.

        The run-vault resume path re-observes evaluations that were
        acknowledged after the last checkpoint. Those points sit in the
        restored queue (checkpointed in-flight suggestions are re-queued
        for dispatch), so without this retraction the session would
        evaluate them a second time. Returns whether a match was found;
        matching is the one :meth:`observe` uses for pending suggestions.
        """
        x_unit = np.asarray(x_unit, dtype=float).ravel()
        return _take_match(self._queue, x_unit, fidelity)

    def _after_observe(self, record: Record) -> None:
        if self.callback is not None and self._iteration >= 1:
            self.callback(self._iteration, self.history)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def _emit_telemetry(self, event: str, **fields: object) -> None:
        """Buffer one telemetry event (drained by the vault layer).

        Strategies call this from ``_refill`` with per-iteration facts —
        fidelity chosen, acquisition value, stage durations, budget
        spent. The buffer is bounded and purely advisory: nothing in the
        optimization trajectory reads it back.
        """
        self._telemetry.append(
            {"event": event, "iteration": int(self._iteration), **fields}
        )

    def _note_suggest_time(self, elapsed: float) -> None:
        """Attach suggest/observe wall time to the iteration just emitted."""
        if not self._telemetry:
            return
        event = self._telemetry[-1]
        if event.get("event") == "iteration" and "suggest_s" not in event:
            event["suggest_s"] = elapsed
            if self._observe_elapsed:
                event["observe_s"] = self._observe_elapsed
                self._observe_elapsed = 0.0

    def take_telemetry(self) -> list[dict]:
        """Drain and return buffered telemetry events (oldest first)."""
        events = list(self._telemetry)
        self._telemetry.clear()
        return events

    @property
    def is_done(self) -> bool:
        """True once nothing is pending and the budget is exhausted."""
        if not self._init_drawn or self._queue:
            return False
        if self._stopped:
            return True
        return self._done()

    # ------------------------------------------------------------------
    # strategy hooks
    # ------------------------------------------------------------------
    def _initial_suggestions(self) -> list[Suggestion]:
        return []

    def _refill(self, k: int) -> None:
        raise NotImplementedError

    def _done(self) -> bool:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def run(self) -> BOResult:
        """Blocking convenience loop (legacy API).

        Equivalent to driving an :class:`OptimizationSession` with the
        serial evaluator until the budget is exhausted.
        """
        from ..session.session import OptimizationSession

        return OptimizationSession(self).run()

    def result(self) -> BOResult:
        """Best high-fidelity design found so far."""
        return BOResult.from_history(
            self.problem, self.history, self.algorithm_name
        )

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def config_dict(self) -> dict:
        raise NotImplementedError

    def state_dict(self) -> dict:
        """Full JSON-serializable state (see the Strategy protocol)."""
        return {
            "strategy": self.strategy_id,
            "state_version": int(self.state_version),
            # OptimizationSession.resume rebuilds the strategy from
            # "config" before load_state_dict ever runs, so the loader
            # deliberately never reads it back.
            # reprolint: allow[REPRO-SER002] consumed by session resume
            "config": self.config_dict(),
            "iteration": int(self._iteration),
            "init_drawn": bool(self._init_drawn),
            "stopped": bool(self._stopped),
            "queue": queue_to_state(self._queue),
            "pending": queue_to_state(self._pending),
            "rng": {
                "root": rng_state(self.rng),
                **{
                    name: rng_state(gen)
                    for name, gen in self._rng_streams.items()
                },
            },
            "history": self.history.to_dict(),
            "extra": self._extra_state(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        if state.get("strategy") != self.strategy_id:
            raise ValueError(
                f"state belongs to strategy {state.get('strategy')!r}, "
                f"not {self.strategy_id!r}"
            )
        saved_version = int(state.get("state_version", 1))
        if saved_version != self.state_version:
            raise ValueError(
                f"checkpoint state schema version {saved_version} does not "
                f"match {type(self).__name__}.state_version "
                f"{self.state_version}; the saved layout is incompatible "
                "with this build — re-run from scratch or load it with a "
                "matching version of the library"
            )
        self._iteration = int(state["iteration"])
        self._init_drawn = bool(state["init_drawn"])
        self._stopped = bool(state["stopped"])
        # Suggestions that were in flight at checkpoint time were never
        # observed, so their budget was never spent: put them at the
        # front of the queue for re-dispatch. A killed session therefore
        # neither loses nor double-spends those evaluations on resume.
        self._queue = queue_from_state(state.get("pending", [])) + (
            queue_from_state(state["queue"])
        )
        self._pending = []
        set_rng_state(self.rng, state["rng"]["root"])
        for name, gen in self._rng_streams.items():
            set_rng_state(gen, state["rng"][name])
        self.history = History.from_dict(state["history"])
        self._load_extra_state(state.get("extra", {}))

    def _extra_state(self) -> dict:
        return {}

    def _load_extra_state(self, extra: dict) -> None:
        pass

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _dedup(
        self,
        x: np.ndarray,
        tolerance: float = 1e-9,
        avoid: list[np.ndarray] | None = None,
    ) -> np.ndarray:
        """Nudge a candidate that (nearly) duplicates a previous sample.

        Checks the whole evaluation history plus any already-picked batch
        members (``avoid``); see :func:`nudge_duplicate`. Requires a
        ``"dedup"`` entry in :attr:`rng_stream_names`.
        """
        pieces = []
        if self.history.records:
            pieces.append(self.history.x_unit_matrix)
        if avoid:
            pieces.append(np.vstack(avoid))
        if not pieces:
            return x
        return nudge_duplicate(
            x, np.vstack(pieces), self._rng_streams["dedup"], tolerance
        )
