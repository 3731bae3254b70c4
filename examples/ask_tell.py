"""Ask/tell sessions: external evaluation, parallel batches, resume.

Three ways to drive the paper's optimizer through the session API:

1. **Manual ask/tell** — you own the evaluation loop (e.g. submit each
   suggestion to a simulator farm and feed the results back).
2. **Parallel batch evaluation** — ``suggest(k)`` produces ``k``
   distinct candidates via constant-liar fantasization, and an
   ``AsyncEvaluator`` simulates them concurrently.
3. **Checkpoint and resume** — save a session mid-run, rebuild it from
   the JSON checkpoint, and get the exact trajectory the uninterrupted
   run would have produced.
4. **Asynchronous fault-tolerant farm** — an ``AsyncEvaluator`` streams
   results back out of completion order, retries transient worker
   failures and converts hard failures into ``FailedEvaluation`` records
   the optimizer treats as infeasible.

Run:  python examples/ask_tell.py
"""

import tempfile
from pathlib import Path

from repro import (
    AsyncEvaluator,
    FaultInjectingEvaluator,
    MFBOptimizer,
    OptimizationSession,
)
from repro.problems import ForresterProblem

SETTINGS = dict(
    budget=10.0,
    n_init_low=8,
    n_init_high=3,
    msp_starts=40,
    msp_polish=1,
    n_restarts=1,
    n_mc_samples=8,
)


def manual_ask_tell(seed: int = 0) -> None:
    optimizer = MFBOptimizer(ForresterProblem(), seed=seed, **SETTINGS)
    problem = optimizer.problem
    while not optimizer.is_done:
        batch = optimizer.suggest()          # ask
        if not batch:
            break
        for x_unit, fidelity in batch:       # evaluate however you like
            evaluation = problem.evaluate_unit(x_unit, fidelity)
            optimizer.observe(x_unit, fidelity, evaluation)  # tell
    result = optimizer.result()
    print(
        f"  manual ask/tell   : f = {result.best_objective:+.4f} "
        f"({result.n_low} coarse + {result.n_high} fine sims)"
    )


def parallel_batches(seed: int = 0) -> None:
    # own_evaluator=True hands the pool's lifetime to the session, so
    # leaving the with-block shuts the workers down.
    with OptimizationSession(
        MFBOptimizer(ForresterProblem(), seed=seed, **SETTINGS),
        evaluator=AsyncEvaluator(max_workers=3),
        own_evaluator=True,
    ) as session:
        result = session.run(batch_size=3)   # 3 suggestions per iteration
    print(
        f"  parallel batches  : f = {result.best_objective:+.4f} "
        f"({result.n_low} coarse + {result.n_high} fine sims)"
    )


def checkpoint_resume(seed: int = 0) -> None:
    path = Path(tempfile.mkdtemp()) / "session.json"
    session = OptimizationSession(
        MFBOptimizer(ForresterProblem(), seed=seed, **SETTINGS)
    )
    for _ in range(6):                       # ... the process dies here
        session.step()
    session.save(path)
    del session

    resumed = OptimizationSession.resume(path, ForresterProblem())
    result = resumed.run()
    reference = MFBOptimizer(ForresterProblem(), seed=seed, **SETTINGS).run()
    print(
        f"  checkpoint/resume : f = {result.best_objective:+.4f} "
        f"(identical to uninterrupted run: {result == reference})"
    )


def fault_tolerant_farm(seed: int = 0) -> None:
    # A farm of 2 workers with per-evaluation timeout and retry; the
    # fault injector kills/hangs/poisons a deterministic 20% of the
    # evaluations — every casualty lands in the history as an
    # infeasible FailedEvaluation and the run still exhausts its budget.
    farm = FaultInjectingEvaluator(
        AsyncEvaluator(
            max_workers=2, timeout_s=5.0, max_attempts=3,
            retry_backoff_s=0.1,
        ),
        rate=0.2, hang_s=30.0, seed=7,
    )
    with OptimizationSession(
        MFBOptimizer(ForresterProblem(), seed=seed, **SETTINGS),
        evaluator=farm,
        own_evaluator=True,
    ) as session:
        result = session.run_async(batch_size=2, over_suggest=1)
    n_failed = sum(r.evaluation.failed for r in session.history.records)
    print(
        f"  fault-tolerant farm: f = {result.best_objective:+.4f} "
        f"({n_failed} injected failures survived)"
    )


def main() -> None:
    print("Forrester function, true minimum f(x*) = -6.0207")
    manual_ask_tell()
    parallel_batches()
    checkpoint_resume()
    fault_tolerant_farm()


if __name__ == "__main__":
    main()
