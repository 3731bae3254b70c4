"""Tests for the asynchronous fault-tolerant evaluator farm.

Covers the streaming AsyncEvaluator API (out-of-order completion,
timeout, retry/backoff, failure conversion), the FailedEvaluation data
model, the strategy-side failure plumbing (non-finite validation,
pending-suggestion checkpointing) and the session-level fault-tolerance
satellites (context-managed evaluators, run_async, corrupt-checkpoint
errors).
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from repro import (
    GASPAD,
    WEIBO,
    AsyncEvaluator,
    CheckpointError,
    DEOptimizer,
    FailedEvaluation,
    MFBOptimizer,
    MOMFBOptimizer,
    OptimizationSession,
    RandomSearchOptimizer,
    SerialEvaluator,
)
from repro.problems import (
    FIDELITY_HIGH,
    FIDELITY_LOW,
    Evaluation,
    ForresterProblem,
    GardnerProblem,
    LatencyProblem,
    ZDT1Problem,
)
from repro.problems.multi import FailedMultiObjectiveEvaluation
from repro.session import Suggestion, load_checkpoint
from repro.session.farm import FaultSpec

FAST = dict(msp_starts=20, msp_polish=1, n_restarts=1, n_mc_samples=6,
            gp_max_opt_iter=25)


def _s(x, fidelity=FIDELITY_HIGH):
    return Suggestion(np.atleast_1d(np.asarray(x, dtype=float)), fidelity)


class SimFailure(RuntimeError):
    """A simulator exception the problem layer knows how to absorb."""


class RegisteredFailureProblem(ForresterProblem):
    """Raises a *registered* exception on the left half of the domain."""

    name = "registered-failure"
    failure_exceptions = (SimFailure,)

    def _evaluate(self, x, fidelity):
        if float(x[0]) < 0.5:
            raise SimFailure("diverged")
        return super()._evaluate(x, fidelity)


class UnregisteredFailureProblem(ForresterProblem):
    """Raises an *unregistered* exception on the left half of the domain."""

    name = "unregistered-failure"

    def _evaluate(self, x, fidelity):
        if float(x[0]) < 0.5:
            raise RuntimeError("infra flake")
        return super()._evaluate(x, fidelity)


class TransientFailureProblem(ForresterProblem):
    """Fails until a marker file exists, then succeeds — a transient."""

    name = "transient-failure"

    def __init__(self, marker_dir):
        super().__init__()
        self.marker_dir = str(marker_dir)

    def _evaluate(self, x, fidelity):
        marker = Path(self.marker_dir) / f"{float(x[0]):.6f}.seen"
        if not marker.exists():
            marker.write_text("1")
            raise RuntimeError("transient flake")
        return super()._evaluate(x, fidelity)


class HangProblem(ForresterProblem):
    """Sleeps far longer than any test timeout."""

    name = "hang"

    def _evaluate(self, x, fidelity):
        import time

        time.sleep(60.0)
        return super()._evaluate(x, fidelity)


class NaNProblem(ForresterProblem):
    """Returns NaN objectives on the left half of the domain."""

    name = "nan-problem"

    def _evaluate(self, x, fidelity):
        value, constraints, metrics = super()._evaluate(x, fidelity)
        if float(x[0]) < 0.5:
            value = float("nan")
        return value, constraints, metrics


# ----------------------------------------------------------------------
# FailedEvaluation data model
# ----------------------------------------------------------------------
class TestFailedEvaluation:
    def test_flags_and_feasibility(self):
        ev = ForresterProblem().failure_evaluation(
            FIDELITY_HIGH, error="boom", error_type="RuntimeError",
            attempts=3, wall_time_s=1.5,
        )
        assert isinstance(ev, FailedEvaluation)
        assert ev.failed and not ev.feasible
        assert ev.error_type == "RuntimeError"
        assert ev.attempts == 3
        assert np.isfinite(ev.objective)

    def test_json_roundtrip(self):
        ev = ForresterProblem().failure_evaluation(
            FIDELITY_LOW, error="x", error_type="ValueError", attempts=2,
        )
        payload = json.loads(json.dumps(ev.to_dict()))
        back = Evaluation.from_dict(payload)
        assert type(back) is FailedEvaluation
        assert back.to_dict() == ev.to_dict()

    def test_multi_objective_roundtrip(self):
        ev = ZDT1Problem().failure_evaluation(error="y", attempts=4)
        assert isinstance(ev, FailedMultiObjectiveEvaluation)
        assert ev.failed and not ev.feasible
        payload = json.loads(json.dumps(ev.to_dict()))
        back = Evaluation.from_dict(payload)
        assert type(back) is FailedMultiObjectiveEvaluation
        assert back.attempts == 4
        np.testing.assert_array_equal(back.objectives, ev.objectives)

    def test_ordinary_evaluation_not_failed(self):
        ev = ForresterProblem().evaluate_unit(np.array([0.5]))
        assert not ev.failed

    def test_failures_consume_budget(self):
        problem = ForresterProblem()
        ev = problem.failure_evaluation(FIDELITY_LOW)
        assert ev.cost == problem.costs[FIDELITY_LOW]

    def test_registered_exception_converted_in_evaluate(self):
        problem = RegisteredFailureProblem()
        ev = problem.evaluate_unit(np.array([0.1]))
        assert isinstance(ev, FailedEvaluation)
        assert ev.error_type == "SimFailure"
        assert "diverged" in ev.error

    def test_unregistered_exception_propagates(self):
        with pytest.raises(RuntimeError, match="infra flake"):
            UnregisteredFailureProblem().evaluate_unit(np.array([0.1]))


# ----------------------------------------------------------------------
# AsyncEvaluator
# ----------------------------------------------------------------------
class TestAsyncEvaluator:
    def test_out_of_order_completion(self):
        problem = LatencyProblem(fast_s=0.01, slow_s=0.6, slow_below=0.1)
        with AsyncEvaluator(max_workers=2) as farm:
            slow = farm.submit(problem, _s(0.05))
            fast = farm.submit(problem, _s(0.9))
            first = farm.next_result(timeout=30)
            second = farm.next_result(timeout=30)
        assert first.ticket == fast
        assert second.ticket == slow

    def test_barrier_evaluate_matches_serial(self):
        problem = ForresterProblem()
        suggestions = [_s(x) for x in (0.2, 0.5, 0.8)]
        serial = SerialEvaluator().evaluate(problem, suggestions)
        with AsyncEvaluator(max_workers=2) as farm:
            pooled = farm.evaluate(problem, suggestions)
        assert [e.objective for e in pooled] == [e.objective for e in serial]

    def test_registered_failure_not_retried(self):
        with AsyncEvaluator(max_workers=1, max_attempts=3,
                            retry_backoff_s=0.01) as farm:
            farm.submit(RegisteredFailureProblem(), _s(0.1))
            result = farm.next_result(timeout=30)
        ev = result.evaluation
        assert isinstance(ev, FailedEvaluation)
        assert ev.error_type == "SimFailure"
        assert ev.attempts == 1  # deterministic failure: no retry

    def test_unregistered_failure_retried_to_exhaustion(self):
        with AsyncEvaluator(max_workers=1, max_attempts=3,
                            retry_backoff_s=0.01) as farm:
            farm.submit(UnregisteredFailureProblem(), _s(0.1))
            result = farm.next_result(timeout=30)
        ev = result.evaluation
        assert isinstance(ev, FailedEvaluation)
        assert ev.error_type == "RuntimeError"
        assert ev.attempts == 3

    def test_transient_failure_recovers_on_retry(self, tmp_path):
        problem = TransientFailureProblem(tmp_path)
        with AsyncEvaluator(max_workers=1, max_attempts=3,
                            retry_backoff_s=0.01) as farm:
            farm.submit(problem, _s(0.7))
            result = farm.next_result(timeout=30)
        assert not result.evaluation.failed
        ref = ForresterProblem().evaluate_unit(np.array([0.7]))
        assert result.evaluation.objective == ref.objective

    def test_timeout_resolves_to_failure(self):
        with AsyncEvaluator(max_workers=1, timeout_s=0.5, max_attempts=1
                            ) as farm:
            farm.submit(HangProblem(), _s(0.3))
            result = farm.next_result(timeout=30)
        ev = result.evaluation
        assert isinstance(ev, FailedEvaluation)
        assert ev.error_type == "EvaluationTimeout"
        assert ev.wall_time_s >= 0.5

    def test_next_result_without_pending_raises(self):
        with AsyncEvaluator(max_workers=1) as farm:
            with pytest.raises(RuntimeError, match="pending"):
                farm.next_result()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AsyncEvaluator(max_workers=0)
        with pytest.raises(ValueError):
            AsyncEvaluator(timeout_s=0.0)
        with pytest.raises(ValueError):
            AsyncEvaluator(max_attempts=0)

    def test_as_completed_drains(self):
        problem = ForresterProblem()
        with AsyncEvaluator(max_workers=2) as farm:
            tickets = {farm.submit(problem, _s(x)) for x in (0.1, 0.4, 0.8)}
            seen = {r.ticket for r in farm.as_completed(timeout=30)}
            assert farm.pending == 0
        assert seen == tickets


# ----------------------------------------------------------------------
# strategy-side failure plumbing
# ----------------------------------------------------------------------
class TestObserveValidation:
    def test_nonfinite_observation_becomes_failure(self):
        # Regression: a NaN objective used to enter the GP training data
        # and crash (or silently poison) the model fit downstream.
        strategy = RandomSearchOptimizer(
            ForresterProblem(), budget=6, n_init=2, seed=0,
        )
        batch = strategy.suggest(1)
        x = batch[0].x_unit
        bad = dataclasses.replace(
            strategy.problem.evaluate_unit(x, batch[0].fidelity),
            objective=float("nan"),
        )
        record = strategy.observe(x, batch[0].fidelity, bad)
        ev = record.evaluation
        assert isinstance(ev, FailedEvaluation)
        assert ev.error_type == "NonFiniteEvaluation"
        assert not ev.feasible
        assert np.isfinite(ev.objective)

    def test_nan_problem_survives_full_run(self):
        # Half the domain returns NaN; the run must still exhaust its
        # budget with every casualty folded in as an infeasible failure.
        strategy = RandomSearchOptimizer(
            NaNProblem(), budget=8, n_init=3, seed=1,
        )
        result = OptimizationSession(strategy).run()
        records = strategy.history.records
        assert len(records) > 0
        assert all(np.isfinite(r.evaluation.objective) for r in records)
        failed = [r for r in records if r.evaluation.failed]
        assert failed, "seeded NaN region was never sampled"
        assert np.isfinite(result.best_objective)

    def test_finite_observation_passes_through(self):
        strategy = RandomSearchOptimizer(
            ForresterProblem(), budget=6, n_init=2, seed=0,
        )
        batch = strategy.suggest(1)
        good = strategy.problem.evaluate_unit(
            batch[0].x_unit, batch[0].fidelity
        )
        record = strategy.observe(batch[0].x_unit, batch[0].fidelity, good)
        assert record.evaluation is good


class TestPendingCheckpoint:
    def test_pending_recorded_and_requeued(self):
        strategy = RandomSearchOptimizer(
            ForresterProblem(), budget=10, n_init=4, seed=3,
        )
        batch = strategy.suggest(3)
        assert len(strategy.pending) == 3
        state = strategy.state_dict()
        assert len(state["pending"]) == 3

        resumed = RandomSearchOptimizer(
            ForresterProblem(), budget=10, n_init=4, seed=3,
        )
        resumed.load_state_dict(state)
        assert resumed.pending == []
        replay = resumed.suggest(3)
        for old, new in zip(batch, replay):
            np.testing.assert_array_equal(old.x_unit, new.x_unit)
            assert old.fidelity == new.fidelity

    def test_observe_retracts_pending(self):
        strategy = RandomSearchOptimizer(
            ForresterProblem(), budget=10, n_init=4, seed=3,
        )
        batch = strategy.suggest(2)
        ev = strategy.problem.evaluate_unit(batch[1].x_unit, batch[1].fidelity)
        strategy.observe(batch[1].x_unit, batch[1].fidelity, ev)
        remaining = strategy.pending
        assert len(remaining) == 1
        np.testing.assert_array_equal(remaining[0].x_unit, batch[0].x_unit)

    def test_pending_cost_counts_toward_budget(self):
        strategy = MFBOptimizer(
            ForresterProblem(), budget=8.0, n_init_low=4, n_init_high=2,
            seed=0, **FAST,
        )
        strategy.suggest(3)
        assert strategy.pending_cost > 0.0


class TestInFlightInitialDesign:
    """Refills wait while a fidelity has no observation yet.

    With three (MF-BO) or four (MO-MFBO) suggestions in flight, the queue
    drains while every high-fidelity initial point is still pending.
    """

    def test_mfbo_waits_for_a_high_fidelity_observation(self, drive_fifo):
        strategy = MFBOptimizer(
            GardnerProblem(), budget=7.0, n_init_low=6, n_init_high=2,
            seed=0, **FAST,
        )
        drive_fifo(strategy, 3)
        assert strategy.is_done
        assert strategy.history.n_evaluations(FIDELITY_HIGH) >= 2
        assert strategy.history.total_cost <= 7.0 + 1e-9

    def test_momfbo_waits_for_a_high_fidelity_observation(self, drive_fifo):
        strategy = MOMFBOptimizer(
            ZDT1Problem(), budget=5.0, n_init_low=6, n_init_high=3, seed=7,
            ehvi_mc_samples=6, **FAST,
        )
        drive_fifo(strategy, 4)
        assert strategy.is_done
        assert strategy.history.n_evaluations(FIDELITY_HIGH) >= 3
        assert strategy.history.total_cost <= 5.0 + 1e-9

    def test_waiting_refill_draws_nothing(self):
        strategy = MFBOptimizer(
            GardnerProblem(), budget=7.0, n_init_low=2, n_init_high=1,
            seed=0, **FAST,
        )
        design = strategy.suggest(3)
        problem = strategy.problem
        for s in design[:2]:
            strategy.observe(
                s.x_unit, s.fidelity, problem.evaluate_unit(s.x_unit, s.fidelity)
            )
        rng_before = strategy.state_dict()["rng"]
        assert strategy.suggest(1) == []
        assert strategy.state_dict()["rng"] == rng_before
        assert strategy.state_dict()["iteration"] == 0
        assert len(strategy.pending) == 1


def _budgeted_strategies():
    """One small instance of every strategy; Forrester's high-fidelity
    cost is 1, so every budget reads as equivalent cost."""
    return {
        "mfbo": MFBOptimizer(
            GardnerProblem(), budget=7.0, n_init_low=6, n_init_high=2,
            seed=0, **FAST,
        ),
        "momfbo": MOMFBOptimizer(
            ZDT1Problem(), budget=5.0, n_init_low=6, n_init_high=2, seed=7,
            ehvi_mc_samples=6, **FAST,
        ),
        "weibo": WEIBO(
            ForresterProblem(), budget=9, n_init=5, seed=0,
            msp_starts=20, msp_polish=0, n_restarts=1,
        ),
        "gaspad": GASPAD(
            ForresterProblem(), budget=10, n_init=6, pop_size=4, seed=0,
        ),
        "de": DEOptimizer(ForresterProblem(), budget=18, pop_size=5, seed=0),
        "random_search": RandomSearchOptimizer(
            ForresterProblem(), budget=12, n_init=4, seed=0,
        ),
    }


class TestAsyncBudget:
    """In-flight suggestions count against the budget of every strategy."""

    @pytest.mark.parametrize("batch_size", [2, 3])
    @pytest.mark.parametrize("name", sorted(_budgeted_strategies()))
    def test_cost_stays_within_budget_under_run_async(self, name, batch_size):
        strategy = _budgeted_strategies()[name]
        with OptimizationSession(
            strategy, evaluator=AsyncEvaluator(max_workers=2),
            own_evaluator=True,
        ) as session:
            session.run_async(batch_size=batch_size)
        assert strategy.is_done
        assert strategy.history.total_cost <= strategy.budget + 1e-9


# ----------------------------------------------------------------------
# session-level fault tolerance
# ----------------------------------------------------------------------
class TestSessionLifecycle:
    def test_context_manager_closes_owned_evaluator(self):
        closed = []

        class Probe(SerialEvaluator):
            def close(self):
                closed.append(True)

        with OptimizationSession(
            RandomSearchOptimizer(ForresterProblem(), budget=4, n_init=2,
                                  seed=0),
            evaluator=Probe(),
            own_evaluator=True,
        ):
            pass
        assert closed == [True]

    def test_shared_evaluator_stays_open(self):
        closed = []

        class Probe(SerialEvaluator):
            def close(self):
                closed.append(True)

        probe = Probe()
        with OptimizationSession(
            RandomSearchOptimizer(ForresterProblem(), budget=4, n_init=2,
                                  seed=0),
            evaluator=probe,
        ):
            pass
        assert closed == []

    def test_run_async_requires_streaming_evaluator(self):
        session = OptimizationSession(
            RandomSearchOptimizer(ForresterProblem(), budget=4, n_init=2,
                                  seed=0)
        )
        with pytest.raises(TypeError, match="streaming"):
            session.run_async()

    def test_run_async_matches_serial_run(self):
        serial = RandomSearchOptimizer(
            ForresterProblem(), budget=8, n_init=3, seed=5,
        )
        OptimizationSession(serial).run()

        streamed = RandomSearchOptimizer(
            ForresterProblem(), budget=8, n_init=3, seed=5,
        )
        with OptimizationSession(
            streamed, evaluator=AsyncEvaluator(max_workers=1),
            own_evaluator=True,
        ) as session:
            session.run_async(batch_size=1)

        assert len(serial.history) == len(streamed.history)
        for a, b in zip(serial.history.records, streamed.history.records):
            np.testing.assert_array_equal(a.x_unit, b.x_unit)
            assert a.evaluation.objective == b.evaluation.objective


class TestCheckpointErrors:
    def _session(self):
        return OptimizationSession(
            RandomSearchOptimizer(ForresterProblem(), budget=6, n_init=2,
                                  seed=0)
        )

    def test_corrupt_checkpoint_names_path(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text('{"format": "repro-session-chec')  # truncated
        with pytest.raises(CheckpointError, match=str(path)):
            load_checkpoint(path)

    def test_corrupt_checkpoint_mentions_backup(self, tmp_path):
        path = tmp_path / "ckpt.json"
        session = self._session()
        session.step()
        session.save(path)
        session.step()
        session.save(path)  # second save rotates the first to .bak
        backup = path.with_suffix(path.suffix + ".bak")
        assert backup.exists()
        path.write_text(path.read_text()[:40])  # simulate a torn write
        with pytest.raises(CheckpointError, match=r"\.bak"):
            load_checkpoint(path)
        load_checkpoint(backup)  # the rotated checkpoint is intact

    def test_wrong_format_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(CheckpointError, match="not a"):
            load_checkpoint(path)

    def test_save_keeps_previous_checkpoint_as_bak(self, tmp_path):
        path = tmp_path / "ckpt.json"
        session = self._session()
        session.step()
        session.save(path)
        first = path.read_text()
        session.step()
        session.save(path)
        backup = path.with_suffix(path.suffix + ".bak")
        assert backup.read_text() == first


# ----------------------------------------------------------------------
# fault-spec determinism (fault *injection* behaviour is in test_chaos)
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_draw_is_deterministic_per_point(self):
        spec = FaultSpec(seed=11, rate=0.5)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(size=3)
            assert spec.draw(x, "high") == spec.draw(x, "high")

    def test_draw_depends_on_fidelity_and_seed(self):
        x = np.array([0.25, 0.5])
        draws_a = {FaultSpec(seed=s, rate=1.0).draw(x, "high")
                   for s in range(16)}
        assert len(draws_a) > 1  # seed changes the outcome
        spec = FaultSpec(seed=0, rate=1.0)
        kinds = {spec.draw(x, f) for f in ("low", "high", "mid", "x")}
        assert len(kinds) >= 1  # valid categories either way
        assert kinds <= set(FaultSpec.KINDS)

    def test_zero_rate_never_faults(self):
        spec = FaultSpec(seed=3, rate=0.0)
        rng = np.random.default_rng(1)
        assert all(
            spec.draw(rng.uniform(size=2), "high") is None for _ in range(50)
        )

    def test_full_rate_always_faults(self):
        spec = FaultSpec(seed=3, rate=1.0)
        rng = np.random.default_rng(1)
        assert all(
            spec.draw(rng.uniform(size=2), "high") in FaultSpec.KINDS
            for _ in range(50)
        )
