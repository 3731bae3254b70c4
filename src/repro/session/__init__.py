"""Ask/tell session layer: strategies suggest, callers evaluate.

Decouples the paper's Algorithm 1 (and every baseline) from the blocking
simulate-in-the-loop control flow:

* :class:`Strategy` — the ask/tell protocol
  (``suggest``/``observe``/``state_dict``).
* :class:`OptimizationSession` — drives a strategy against an
  injectable :class:`Evaluator`, with JSON checkpoint/resume.
* :class:`SerialEvaluator` — the in-process evaluation backend.
* :class:`AsyncEvaluator` — the fault-tolerant farm across worker
  processes: ordered batches or out-of-order completion, per-evaluation
  timeouts, retry with backoff, worker-death recovery (see
  :mod:`repro.session.farm`).
* :class:`FaultInjectingEvaluator` / :class:`FaultSpec` — deterministic
  seeded fault injection for chaos testing.
"""

from .evaluators import Evaluator, SerialEvaluator
from .farm import (
    AsyncEvaluator,
    EvalResult,
    FaultInjectingEvaluator,
    FaultSpec,
    SimulatedCrashError,
)
from .protocol import Strategy, Suggestion
from .session import (
    CheckpointError,
    OptimizationSession,
    load_checkpoint,
    register_strategy,
)

__all__ = [
    "OptimizationSession",
    "Strategy",
    "Suggestion",
    "Evaluator",
    "SerialEvaluator",
    "AsyncEvaluator",
    "EvalResult",
    "FaultInjectingEvaluator",
    "FaultSpec",
    "SimulatedCrashError",
    "CheckpointError",
    "load_checkpoint",
    "register_strategy",
]
