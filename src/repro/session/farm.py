"""Asynchronous, fault-tolerant evaluation farm.

:class:`AsyncEvaluator` dispatches every suggestion as its own future
over a worker-process pool and yields results **out of completion
order**, so one slow (or hung, or crashed) simulation never stalls the
rest of a batch. The failure ladder, from mildest to harshest:

1. An exception the problem itself registers in
   ``Problem.failure_exceptions`` is converted *in the worker* into a
   finite :class:`repro.problems.FailedEvaluation` — deterministic, so
   it is returned as-is, never retried.
2. Any other exception in the worker is captured and retried with
   exponential backoff + jitter, up to ``max_attempts`` total attempts.
3. An evaluation exceeding the wall-clock ``timeout_s`` cannot be
   cancelled (``ProcessPoolExecutor`` has no public kill API for a
   running call), so the pool is torn down, every worker terminated and
   a fresh pool spawned; the expired evaluation is charged an attempt,
   innocent in-flight work is requeued for free.
4. A dying worker breaks the whole executor (``BrokenProcessPool``
   marks every outstanding future broken, with no way to attribute the
   death); the pool is respawned and *all* in-flight work is charged an
   attempt and retried.

When attempts run out, the task resolves to
``problem.failure_evaluation(...)`` — a finite, infeasible evaluation
charged at the fidelity's normal cost — and the optimization continues.

:class:`FaultInjectingEvaluator` wraps any evaluator with deterministic,
seeded faults (worker crash, hang, NaN result, slow response) keyed on
the design point itself, so retries of the same point reproduce the same
fault regardless of scheduling — the whole layer is testable without
real flakiness.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import os
import signal
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple, Sequence

import numpy as np

from ..obs import MetricsRegistry, activate_worker_tracing, span, worker_payload
from ..problems.base import Evaluation, FailedEvaluation, Problem
from .evaluators import Evaluator, SerialEvaluator
from .protocol import Suggestion

logger = logging.getLogger(__name__)

__all__ = [
    "AsyncEvaluator",
    "EvalResult",
    "FaultInjectingEvaluator",
    "FaultSpec",
    "SimulatedCrashError",
]


class EvalResult(NamedTuple):
    """One completed (or definitively failed) evaluation."""

    ticket: int
    suggestion: Suggestion
    evaluation: Evaluation


def _run_one(payload: tuple[Problem, np.ndarray, str, "dict | None"]) -> tuple:
    """Worker entry point: evaluate one suggestion, never raise.

    Returns ``("ok", evaluation, wall_s)`` or ``("error", type_name,
    message, wall_s)`` — exceptions are flattened to strings because an
    arbitrary simulator exception is not guaranteed picklable.

    ``trace`` carries the dispatcher's tracing state (JSONL sink path +
    active span context) across the process boundary, so the worker-side
    ``farm.evaluate`` span lands in the same trace file, parented under
    the dispatch span. ``None`` — tracing off — costs one ``is None``
    check.
    """
    problem, x_unit, fidelity, trace = payload
    with activate_worker_tracing(trace):
        with span("farm.evaluate", fidelity=fidelity) as evaluation_span:
            start = time.perf_counter()
            try:
                evaluation = problem.evaluate_unit(x_unit, fidelity)
            except Exception as exc:
                # Deliberately broad: the exception is flattened into an
                # ("error", ...) outcome that re-enters the retry/failure
                # ladder on the dispatch side — nothing is swallowed here.
                evaluation_span.set(error=type(exc).__name__)
                return (
                    "error",
                    type(exc).__name__,
                    str(exc),
                    time.perf_counter() - start,
                )
            return ("ok", evaluation, time.perf_counter() - start)


@dataclass
class _Task:
    """Book-keeping for one submitted suggestion."""

    ticket: int
    problem: Problem
    suggestion: Suggestion
    attempts: int = 0
    deadline: float | None = None
    wall: float = 0.0
    #: dispatch sequence number; the lowest in-flight values are the
    #: tasks occupying workers when a pool breaks.
    seq: int = -1


class AsyncEvaluator(Evaluator):
    """Out-of-order, timeout/retry-hardened process-pool evaluator.

    Parameters
    ----------
    max_workers:
        Worker pool size; defaults to ``os.cpu_count()``.
    timeout_s:
        Per-evaluation wall-clock timeout. ``None`` (default) disables
        the deadline; a hung simulation then blocks its worker forever.
    max_attempts:
        Total attempts per suggestion (first try + retries) before it
        resolves to a :class:`repro.problems.FailedEvaluation`.
    retry_backoff_s, retry_jitter:
        Retry ``i`` (1-based) is delayed ``retry_backoff_s * 2**(i-1)``
        scaled by a uniform ``1 ± retry_jitter`` factor drawn from a
        seeded generator, so colliding retries decorrelate but remain
        reproducible.
    seed:
        Seed of the jitter generator.

    Notes
    -----
    The streaming API is ``submit()`` + ``next_result()`` /
    ``as_completed()``; :meth:`evaluate` adapts the farm to the ordered
    barrier contract of :class:`repro.session.Evaluator`, so it also
    simulates the batches of any strategy in parallel.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        timeout_s: float | None = None,
        max_attempts: int = 3,
        retry_backoff_s: float = 0.25,
        retry_jitter: float = 0.25,
        seed: int = 0,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None)")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if retry_backoff_s < 0 or not 0 <= retry_jitter <= 1:
            raise ValueError(
                "retry_backoff_s must be >= 0 and retry_jitter in [0, 1]"
            )
        self.max_workers = max_workers or os.cpu_count() or 1
        self.timeout_s = timeout_s
        self.max_attempts = int(max_attempts)
        self.retry_backoff_s = float(retry_backoff_s)
        self.retry_jitter = float(retry_jitter)
        self._rng = np.random.default_rng(seed)
        self._pool: ProcessPoolExecutor | None = None
        self._next_ticket = 0
        self._dispatch_seq = 0
        self._tasks: dict[int, _Task] = {}
        self._inflight: dict = {}  # Future -> ticket
        self._retry: list[tuple[float, int]] = []  # (due_monotonic, ticket)
        self._ready: deque[EvalResult] = deque()
        #: per-farm instrument registry (never shared between instances,
        #: so parallel sessions and tests cannot cross-contaminate)
        self.metrics = MetricsRegistry()

    def _update_gauges(self) -> None:
        metrics = self.metrics
        inflight = len(self._inflight)
        metrics.gauge("farm.inflight").set(inflight)
        metrics.gauge("farm.queue_depth").set(len(self._retry))
        metrics.gauge("farm.ready").set(len(self._ready))
        metrics.gauge("farm.worker_utilization").set(
            min(inflight, self.max_workers) / self.max_workers
        )

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def _get_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _teardown_pool(self, kill: bool) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if kill:
            # No public API can reclaim a worker stuck in a running
            # call; terminating the processes is the documented-by-use
            # escape hatch before discarding the executor.
            for process in list(getattr(pool, "_processes", {}).values()):
                try:
                    process.terminate()
                except Exception as exc:
                    # Racing a worker that already exited is expected;
                    # anything else deserves a trace, not silence.
                    logger.warning(
                        "terminating worker %s failed: %s",
                        getattr(process, "pid", "?"),
                        exc,
                    )
        pool.shutdown(wait=False, cancel_futures=True)

    def worker_pids(self) -> list[int]:
        """PIDs of live worker processes (empty before the first submit).

        Exposed for the chaos test-suite, which SIGKILLs one mid-batch.
        """
        if self._pool is None:
            return []
        processes = getattr(self._pool, "_processes", None) or {}
        return [p.pid for p in list(processes.values()) if p.is_alive()]

    def close(self) -> None:
        self._teardown_pool(kill=bool(self._inflight))
        self._tasks.clear()
        self._inflight.clear()
        self._retry.clear()
        self._ready.clear()

    # ------------------------------------------------------------------
    # streaming API
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Submitted evaluations not yet handed back to the caller."""
        return len(self._tasks) + len(self._ready)

    def submit(self, problem: Problem, suggestion: Suggestion) -> int:
        """Dispatch one suggestion; returns its result ticket."""
        ticket = self._next_ticket
        self._next_ticket += 1
        task = _Task(ticket=ticket, problem=problem, suggestion=suggestion)
        self._tasks[ticket] = task
        self._dispatch(task)
        return ticket

    def next_result(self, timeout: float | None = None) -> EvalResult:
        """Block until the next evaluation completes, in completion order.

        Raises ``TimeoutError`` if ``timeout`` seconds pass first, and
        ``RuntimeError`` when nothing is pending.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._ready:
            if not self._tasks:
                raise RuntimeError("no evaluations pending")
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                raise TimeoutError(
                    f"no evaluation completed within {timeout}s"
                )
            self._pump(remaining)
        return self._ready.popleft()

    def as_completed(
        self, timeout: float | None = None
    ) -> Iterator[EvalResult]:
        """Yield results as they complete, until nothing is pending."""
        while self.pending:
            yield self.next_result(timeout)

    # ------------------------------------------------------------------
    # ordered barrier adapter (Evaluator contract)
    # ------------------------------------------------------------------
    def evaluate(
        self, problem: Problem, suggestions: Sequence[Suggestion]
    ) -> list[Evaluation]:
        tickets = [self.submit(problem, s) for s in suggestions]
        want = set(tickets)
        got: dict[int, Evaluation] = {}
        foreign: list[EvalResult] = []
        while want:
            result = self.next_result()
            if result.ticket in want:
                want.discard(result.ticket)
                got[result.ticket] = result.evaluation
            else:  # interleaved streaming use: keep for that consumer
                foreign.append(result)
        self._ready.extend(foreign)
        return [got[t] for t in tickets]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _dispatch(self, task: _Task) -> None:
        task.attempts += 1
        task.seq = self._dispatch_seq
        self._dispatch_seq += 1
        task.deadline = (
            None
            if self.timeout_s is None
            else time.monotonic() + self.timeout_s
        )
        with span(
            "farm.dispatch",
            ticket=task.ticket,
            fidelity=task.suggestion.fidelity,
            attempt=task.attempts,
        ):
            # worker_payload() inside the span: the worker's
            # farm.evaluate span parents under this dispatch span.
            payload = (
                task.problem,
                task.suggestion.x_unit,
                task.suggestion.fidelity,
                worker_payload(),
            )
            try:
                future = self._get_pool().submit(_run_one, payload)
            # reprolint: allow[REPRO-XF002] this handler IS the recovery path: it respawns the pool and resubmits
            except BrokenProcessPool:
                # The pool died since the last pump (a worker was killed
                # while idle, or its death hadn't surfaced yet): recycle
                # the broken in-flight work, then retry on a fresh pool.
                self._handle_broken_pool()
                future = self._get_pool().submit(_run_one, payload)
        self._inflight[future] = task.ticket
        self.metrics.counter("farm.dispatched").inc()
        self._update_gauges()

    def _pump(self, block_s: float | None) -> None:
        """One dispatch-wait-resolve cycle; bounded by ``block_s``."""
        now = time.monotonic()
        if self._retry:
            due = sorted(
                (entry for entry in self._retry if entry[0] <= now)
            )
            self._retry = [e for e in self._retry if e[0] > now]
            for _, ticket in due:
                self._dispatch(self._tasks[ticket])

        waits = [block_s] if block_s is not None else []
        waits += [t.deadline - now for t in self._tasks.values()
                  if t.deadline is not None and self._inflight]
        waits += [when - now for when, _ in self._retry]
        wait_s = max(0.0, min(waits)) if waits else None

        if not self._inflight:
            # Nothing running: just sleep until the next retry is due.
            if self._retry:
                time.sleep(min(wait_s if wait_s is not None else 0.05, 0.25))
            return
        done, _ = wait(
            list(self._inflight),
            timeout=wait_s if wait_s is not None else 0.25,
            return_when=FIRST_COMPLETED,
        )
        for future in done:
            self._handle_future(future)
        if self.timeout_s is not None:
            now = time.monotonic()
            expired = [
                ticket
                for future, ticket in self._inflight.items()
                if (task := self._tasks[ticket]).deadline is not None
                and task.deadline <= now
            ]
            if expired:
                self._handle_timeouts(expired)
        self._update_gauges()

    def _handle_future(self, future: Future) -> None:
        ticket = self._inflight.pop(future, None)
        if ticket is None:  # already resolved by a pool teardown
            return
        task = self._tasks[ticket]
        exc = future.exception()
        if exc is not None:
            if isinstance(exc, BrokenProcessPool):
                # This future's ticket is already popped; fold it back
                # into the broken-pool sweep with the rest.
                self._handle_broken_pool(extra_tickets=[ticket])
            else:  # unexpected submission-side error
                self._resolve_error(task, type(exc).__name__, str(exc))
            return
        # reprolint: allow[REPRO-CONC001] wait() already returned this future
        outcome = future.result()
        if outcome[0] == "ok":
            _, evaluation, wall = outcome
            task.wall += wall
            if isinstance(evaluation, FailedEvaluation):
                # Deterministic failure the problem layer already
                # converted (registered simulator exception): no point
                # retrying, but stamp the farm-level bookkeeping on it.
                evaluation = dataclasses.replace(
                    evaluation,
                    attempts=task.attempts,
                    wall_time_s=task.wall,
                )
            self._finish(task, evaluation)
        else:
            _, error_type, message, wall = outcome
            task.wall += wall
            self._resolve_error(task, error_type, message)

    def _handle_broken_pool(
        self, extra_tickets: list[int] | None = None
    ) -> None:
        """A worker died: respawn the pool, retry all in-flight work.

        The executor breaks every outstanding future when any worker
        dies, with no attribution — every in-flight future comes back
        broken, including ones still queued behind the casualty. Only
        the ``max_workers`` oldest-dispatched tasks can actually have
        been running, so only those are charged an attempt; the rest are
        requeued for free. A deterministic crasher therefore exhausts
        *its own* attempts without draining innocent queued tasks'.
        """
        self.metrics.counter("farm.broken_pools").inc()
        tickets = list(extra_tickets or []) + list(self._inflight.values())
        self._inflight.clear()
        self._teardown_pool(kill=False)
        tickets.sort(key=lambda t: self._tasks[t].seq)
        now = time.monotonic()
        for position, ticket in enumerate(tickets):
            task = self._tasks[ticket]
            if position < self.max_workers:
                self._resolve_error(
                    task,
                    "WorkerDied",
                    "worker process died before the evaluation returned",
                )
            else:  # was still queued: requeue without charging an attempt
                task.attempts -= 1
                self._retry.append((now, ticket))

    def _handle_timeouts(self, expired: list[int]) -> None:
        """Deadline hit: kill the pool, charge the expired, respawn."""
        self.metrics.counter("farm.timeouts").inc(len(expired))
        expired_set = set(expired)
        inflight = list(self._inflight.values())
        self._inflight.clear()
        self._teardown_pool(kill=True)
        now = time.monotonic()
        for ticket in inflight:
            task = self._tasks[ticket]
            if ticket in expired_set:
                task.wall += float(self.timeout_s)
                self._resolve_error(
                    task,
                    "EvaluationTimeout",
                    f"evaluation exceeded the {self.timeout_s}s "
                    "wall-clock timeout",
                )
            else:
                # Innocent victim of the pool kill: requeue immediately
                # without charging an attempt.
                task.attempts -= 1
                self._retry.append((now, ticket))

    def _resolve_error(
        self, task: _Task, error_type: str, message: str
    ) -> None:
        if task.attempts >= self.max_attempts:
            self._fail(task, error_type, message)
            return
        self.metrics.counter("farm.retries").inc()
        delay = self.retry_backoff_s * 2.0 ** (task.attempts - 1)
        delay *= 1.0 + self.retry_jitter * float(self._rng.uniform(-1.0, 1.0))
        self._retry.append((time.monotonic() + max(delay, 0.0), task.ticket))
        self._update_gauges()

    def _fail(self, task: _Task, error_type: str, message: str) -> None:
        suggestion = task.suggestion
        u = np.clip(
            np.asarray(suggestion.x_unit, dtype=float).ravel(), 0.0, 1.0
        )
        evaluation = task.problem.failure_evaluation(
            suggestion.fidelity,
            x=task.problem.space.from_unit(u),
            error=message,
            error_type=error_type,
            attempts=task.attempts,
            wall_time_s=task.wall,
        )
        self._finish(task, evaluation)

    def _finish(self, task: _Task, evaluation: Evaluation) -> None:
        del self._tasks[task.ticket]
        self._ready.append(
            EvalResult(task.ticket, task.suggestion, evaluation)
        )
        self.metrics.counter("farm.completed").inc()
        if getattr(evaluation, "failed", False):
            self.metrics.counter("farm.failures").inc()
        self.metrics.histogram("farm.wall_s").observe(task.wall)
        self._update_gauges()


# ----------------------------------------------------------------------
# deterministic fault injection
# ----------------------------------------------------------------------
class SimulatedCrashError(RuntimeError):
    """Raised by an injected crash fault outside a worker process."""


@dataclass(frozen=True)
class FaultSpec:
    """Seeded fault plan: which design points fail, and how.

    The draw is keyed on ``blake2b(x_unit || fidelity, key=seed)``, so a
    given point *always* reproduces the same fault — retries included —
    independent of scheduling, worker identity or arrival order. That
    determinism is what makes fault runs checkpoint/resumable and the
    chaos suite reproducible.

    Fault kinds: ``crash`` (SIGKILL the worker; raises
    :class:`SimulatedCrashError` when not in a worker), ``hang`` (sleep
    ``hang_s`` — pair with an :class:`AsyncEvaluator` timeout), ``nan``
    (evaluate, then poison the objective with NaN) and ``slow`` (sleep
    ``slow_s``, then evaluate normally).
    """

    seed: int = 0
    rate: float = 0.25
    #: relative weights of (crash, hang, nan, slow)
    weights: tuple = (1.0, 1.0, 1.0, 1.0)
    hang_s: float = 30.0
    slow_s: float = 0.25
    parent_pid: int = 0

    KINDS = ("crash", "hang", "nan", "slow")

    def draw(self, x_unit: np.ndarray, fidelity: str) -> str | None:
        """The fault (or None) injected at one design point."""
        u = np.ascontiguousarray(
            np.asarray(x_unit, dtype=float).ravel()
        )
        digest = hashlib.blake2b(
            u.tobytes() + str(fidelity).encode(),
            key=int(self.seed).to_bytes(8, "little"),
            digest_size=8,
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        if rng.uniform() >= self.rate:
            return None
        weights = np.asarray(self.weights, dtype=float)
        return str(rng.choice(self.KINDS, p=weights / weights.sum()))


class _FaultyProblem:
    """Picklable proxy injecting faults around ``evaluate_unit``."""

    def __init__(self, problem: Problem, spec: FaultSpec) -> None:
        self._problem = problem
        self._spec = spec

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._problem, name)

    def __getstate__(self) -> dict:
        return {"problem": self._problem, "spec": self._spec}

    def __setstate__(self, state: dict) -> None:
        self._problem = state["problem"]
        self._spec = state["spec"]

    def evaluate_unit(
        self, u: np.ndarray, fidelity: str | None = None
    ) -> Evaluation:
        problem, spec = self._problem, self._spec
        if fidelity is None:
            fidelity = problem.highest_fidelity
        fault = spec.draw(u, fidelity)
        if fault == "crash":
            if spec.parent_pid and os.getpid() != spec.parent_pid:
                os.kill(os.getpid(), signal.SIGKILL)
            raise SimulatedCrashError("injected worker crash")
        if fault == "hang":
            time.sleep(spec.hang_s)
        elif fault == "slow":
            time.sleep(spec.slow_s)
        evaluation = problem.evaluate_unit(u, fidelity)
        if fault == "nan" and not evaluation.failed:
            objectives = getattr(evaluation, "objectives", None)
            if objectives is not None and np.size(objectives):
                evaluation = dataclasses.replace(
                    evaluation,
                    objective=float("nan"),
                    objectives=np.full(np.shape(objectives), np.nan),
                )
            else:
                evaluation = dataclasses.replace(
                    evaluation, objective=float("nan")
                )
        return evaluation


class FaultInjectingEvaluator(Evaluator):
    """Wrap any evaluator with deterministic injected faults.

    Every problem passed through is proxied by a fault-injecting wrapper
    driven by a :class:`FaultSpec`; the inner evaluator (serial, pooled
    or :class:`AsyncEvaluator` — whose streaming API is forwarded) never
    knows the difference. Construct either with an explicit ``spec`` or
    with :class:`FaultSpec` keyword arguments::

        farm = AsyncEvaluator(max_workers=4, timeout_s=2.0)
        chaos = FaultInjectingEvaluator(farm, rate=0.25, seed=7)
    """

    def __init__(
        self,
        inner: Evaluator | None = None,
        spec: FaultSpec | None = None,
        **spec_kwargs,
    ):
        if spec is not None and spec_kwargs:
            raise ValueError("pass either spec or FaultSpec kwargs, not both")
        self.inner = inner if inner is not None else SerialEvaluator()
        if spec is None:
            spec = FaultSpec(**spec_kwargs)
        if spec.parent_pid == 0:
            spec = dataclasses.replace(spec, parent_pid=os.getpid())
        self.spec = spec

    def wrap(self, problem: Problem) -> _FaultyProblem:
        """The fault-injecting proxy handed to the inner evaluator."""
        return _FaultyProblem(problem, self.spec)

    # --- ordered barrier contract -------------------------------------
    def evaluate(
        self, problem: Problem, suggestions: Sequence[Suggestion]
    ) -> list[Evaluation]:
        return self.inner.evaluate(self.wrap(problem), suggestions)

    # --- streaming pass-throughs (AsyncEvaluator inner) ---------------
    def submit(self, problem: Problem, suggestion: Suggestion) -> int:
        return self.inner.submit(self.wrap(problem), suggestion)

    def next_result(self, timeout: float | None = None) -> EvalResult:
        return self.inner.next_result(timeout)

    def as_completed(self, timeout: float | None = None) -> Iterator[EvalResult]:
        return self.inner.as_completed(timeout)

    @property
    def pending(self) -> int:
        return self.inner.pending

    def worker_pids(self) -> list[int]:
        return self.inner.worker_pids()

    def close(self) -> None:
        self.inner.close()
