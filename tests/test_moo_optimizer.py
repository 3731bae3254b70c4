"""MOMFBOptimizer: ask/tell behavior, archive, checkpoint/resume.

The resume tests follow the pattern of ``tests/test_checkpoint_resume``:
a session killed and resumed mid-run must reproduce the uninterrupted
trajectory — and here additionally the Pareto archive — point for point.
"""

import json

import numpy as np
import pytest

from repro import MOMFBOptimizer, OptimizationSession
from repro.core import History
from repro.moo import non_dominated_mask
from repro.problems import (
    FIDELITY_HIGH,
    FIDELITY_LOW,
    ForresterProblem,
    MultiObjectiveEvaluation,
    ZDT1Problem,
)

FAST = dict(msp_starts=20, msp_polish=1, n_restarts=1, n_mc_samples=6,
            ehvi_mc_samples=6, gp_max_opt_iter=25)


def make(acquisition="ehvi", constrained=True, seed=7, budget=5.0, **kw):
    settings = dict(FAST)
    settings.update(kw)
    return MOMFBOptimizer(
        ZDT1Problem(constrained=constrained), budget=budget,
        n_init_low=6, n_init_high=2, seed=seed, acquisition=acquisition,
        **settings,
    )


def assert_archives_identical(a, b):
    assert len(a.entries) == len(b.entries), (
        f"archive sizes differ: {len(a.entries)} vs {len(b.entries)}"
    )
    for i, (ea, eb) in enumerate(zip(a.entries, b.entries)):
        assert np.array_equal(ea.x_unit, eb.x_unit), f"x differs at {i}"
        assert np.array_equal(ea.objectives, eb.objectives), (
            f"objectives differ at {i}"
        )
        assert ea.violation == eb.violation, f"violation differs at {i}"


class TestBasicBehavior:
    def test_rejects_scalar_problem(self):
        with pytest.raises(TypeError):
            MOMFBOptimizer(ForresterProblem(), budget=5.0)

    def test_validates_config(self):
        with pytest.raises(ValueError):
            make(acquisition="nsga2")
        with pytest.raises(ValueError):
            make(ref_point=[1.0])  # wrong dimensionality
        with pytest.raises(ValueError):
            make(budget=-1.0)

    @pytest.mark.parametrize("n_mc", [0, -1])
    def test_empty_mc_draw_rejected_before_any_simulation(
        self, monkeypatch, n_mc
    ):
        problem = ZDT1Problem()
        calls = []
        evaluate = problem.evaluate_unit
        monkeypatch.setattr(
            problem, "evaluate_unit",
            lambda *args: calls.append(args) or evaluate(*args),
        )
        with pytest.raises(ValueError, match="n_mc_samples"):
            MOMFBOptimizer(
                problem, budget=5.0, n_init_low=6, n_init_high=2, seed=7,
                **{**FAST, "n_mc_samples": n_mc},
            ).run()
        assert calls == []

    @pytest.mark.parametrize("acquisition", ["ehvi", "parego"])
    def test_run_produces_valid_archive(self, acquisition):
        optimizer = make(acquisition=acquisition)
        optimizer.run()
        front = optimizer.archive.front()
        assert front.shape[0] >= 1
        assert np.all(non_dominated_mask(front))
        # constrained ZDT1: f1 >= 0.3 on every archived feasible design
        assert np.all(front[:, 0] >= 0.3 - 1e-9)
        assert optimizer.history.total_cost <= optimizer.budget + 1e-9

    def test_uses_both_fidelities(self):
        optimizer = make()
        optimizer.run()
        assert optimizer.history.n_evaluations(FIDELITY_LOW) > 0
        assert optimizer.history.n_evaluations(FIDELITY_HIGH) > 0

    def test_archive_matches_history_replay(self):
        """The incremental archive equals a brute-force rebuild."""
        optimizer = make(constrained=False)
        optimizer.run()
        high = [
            r for r in optimizer.history.records
            if r.fidelity == FIDELITY_HIGH
        ]
        objectives = np.vstack([r.evaluation.objectives for r in high])
        feasible_front = objectives[non_dominated_mask(objectives)]
        got = optimizer.archive.front()
        assert sorted(map(tuple, got)) == sorted(map(tuple, feasible_front))

    def test_hypervolume_trace_is_monotone(self):
        optimizer = make()
        optimizer.run()
        trace = optimizer.hypervolume_trace()
        assert trace.shape[0] == optimizer.history.n_evaluations(
            FIDELITY_HIGH
        )
        assert np.all(np.diff(trace[:, 1]) >= -1e-12)
        assert np.all(np.diff(trace[:, 0]) > 0)

    def test_fixed_ref_point_is_honoured(self):
        optimizer = make(ref_point=[2.0, 10.0])
        optimizer.run()
        np.testing.assert_array_equal(
            optimizer.ref_point, np.array([2.0, 10.0])
        )

    def test_batch_suggest_produces_distinct_candidates(self):
        for acquisition in ("ehvi", "parego"):
            optimizer = make(acquisition=acquisition, budget=12.0)
            # drain the initial design first
            for x, fidelity in optimizer.suggest(8):
                optimizer.observe(
                    x, fidelity, optimizer.problem.evaluate_unit(x, fidelity)
                )
            batch = optimizer.suggest(3)
            assert len(batch) == 3
            xs = np.vstack([s.x_unit for s in batch])
            distances = np.linalg.norm(
                xs[:, None, :] - xs[None, :, :], axis=-1
            )
            off_diagonal = distances[~np.eye(3, dtype=bool)]
            assert np.all(off_diagonal > 1e-9)


class TestSessionEquivalence:
    def test_run_equals_manual_ask_tell(self):
        reference = make()
        reference.run()

        manual = make()
        problem = manual.problem
        while not manual.is_done:
            batch = manual.suggest()
            if not batch:
                break
            for x, fidelity in batch:
                manual.observe(
                    x, fidelity, problem.evaluate_unit(x, fidelity)
                )
        assert len(reference.history) == len(manual.history)
        for ra, rb in zip(reference.history.records, manual.history.records):
            assert np.array_equal(ra.x_unit, rb.x_unit)
            assert ra.fidelity == rb.fidelity
        assert_archives_identical(reference.archive, manual.archive)


class TestCheckpointResume:
    """A killed/resumed MOMFBO session reproduces the uninterrupted run's
    Pareto archive point for point (issue acceptance criterion)."""

    @pytest.mark.parametrize("acquisition", ["ehvi", "parego"])
    @pytest.mark.parametrize("kill_at", [2, 9, 12])
    def test_resume_reproduces_archive(self, tmp_path, acquisition, kill_at):
        def factory():
            return make(acquisition=acquisition)

        reference = factory()
        reference.run()

        session = OptimizationSession(factory())
        for _ in range(kill_at):
            if not session.step():
                break
        path = session.save(tmp_path / "ckpt.json")
        del session

        resumed = OptimizationSession.resume(
            path, ZDT1Problem(constrained=True)
        )
        resumed.run()
        assert len(reference.history) == len(resumed.history)
        for i, (ra, rb) in enumerate(
            zip(reference.history.records, resumed.history.records)
        ):
            assert np.array_equal(ra.x_unit, rb.x_unit), f"x differs at {i}"
            assert ra.fidelity == rb.fidelity, f"fidelity differs at {i}"
            assert np.array_equal(
                ra.evaluation.objectives, rb.evaluation.objectives
            ), f"objectives differ at {i}"
        assert_archives_identical(reference.archive, resumed.strategy.archive)
        np.testing.assert_array_equal(
            reference.hypervolume_trace(),
            resumed.strategy.hypervolume_trace(),
        )

    def test_checkpoint_carries_ref_point(self, tmp_path):
        session = OptimizationSession(make())
        while session.strategy.ref_point is None:
            if not session.step():
                break
        path = session.save(tmp_path / "ckpt.json")
        resumed = OptimizationSession.resume(
            path, ZDT1Problem(constrained=True)
        )
        np.testing.assert_array_equal(
            resumed.strategy.ref_point, session.strategy.ref_point
        )

    def test_state_version_mismatch_is_rejected(self, tmp_path):
        """Satellite: a clear error instead of silent mis-restoration."""
        session = OptimizationSession(make())
        session.step()
        path = session.save(tmp_path / "ckpt.json")
        payload = json.loads(path.read_text())
        payload["state"]["state_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="state schema version 99"):
            OptimizationSession.resume(path, ZDT1Problem(constrained=True))

    def test_legacy_state_without_version_still_loads(self):
        """Checkpoints written before the field existed default to 1."""
        optimizer = make()
        optimizer.run()
        state = optimizer.state_dict()
        assert state["state_version"] == 1
        del state["state_version"]
        clone = make()
        clone.load_state_dict(json.loads(json.dumps(state)))
        assert len(clone.history) == len(optimizer.history)


class TestSerialization:
    def test_multi_objective_evaluation_round_trip(self):
        evaluation = MultiObjectiveEvaluation(
            objective=0.25,
            constraints=np.array([-0.5]),
            fidelity=FIDELITY_HIGH,
            cost=1.0,
            metrics={"g": 1.5},
            objectives=np.array([0.25, 0.75]),
        )
        clone = type(evaluation).from_dict(
            json.loads(json.dumps(evaluation.to_dict()))
        )
        assert isinstance(clone, MultiObjectiveEvaluation)
        assert np.array_equal(clone.objectives, evaluation.objectives)
        assert clone.objective == evaluation.objective
        assert clone.feasible

    def test_history_dispatches_evaluation_kind(self):
        problem = ZDT1Problem()
        history = History()
        evaluation = problem.evaluate_unit(np.array([0.5, 0.5]))
        history.add(np.array([0.5, 0.5]), evaluation)
        clone = History.from_dict(
            json.loads(json.dumps(history.to_dict()))
        )
        restored = clone.records[0].evaluation
        assert isinstance(restored, MultiObjectiveEvaluation)
        assert np.array_equal(restored.objectives, evaluation.objectives)

    def test_primary_objective_is_first_component(self):
        problem = ZDT1Problem()
        evaluation = problem.evaluate_unit(np.array([0.3, 0.3]))
        assert evaluation.objective == evaluation.objectives[0]
