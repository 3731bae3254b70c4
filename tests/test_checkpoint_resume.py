"""Checkpoint/resume: a killed session must reproduce the uninterrupted
trajectory point-for-point, for every strategy and model-cache path."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    GASPAD,
    WEIBO,
    DEOptimizer,
    MFBOptimizer,
    OptimizationSession,
    RandomSearchOptimizer,
)
from repro.core import BOResult, History
from repro.problems import (
    FIDELITY_HIGH,
    Evaluation,
    ForresterProblem,
    GardnerProblem,
)

FAST = dict(msp_starts=20, msp_polish=1, n_restarts=1, n_mc_samples=6,
            gp_max_opt_iter=25)


def assert_trajectories_identical(a: BOResult, b: BOResult):
    """Point-for-point comparison with a useful failure message."""
    assert len(a.history) == len(b.history), (
        f"history lengths differ: {len(a.history)} vs {len(b.history)}"
    )
    for i, (ra, rb) in enumerate(zip(a.history.records, b.history.records)):
        assert np.array_equal(ra.x_unit, rb.x_unit), f"x differs at record {i}"
        assert ra.evaluation.objective == rb.evaluation.objective, (
            f"objective differs at record {i}"
        )
        assert ra.fidelity == rb.fidelity, f"fidelity differs at record {i}"
        assert ra.iteration == rb.iteration, f"iteration differs at record {i}"
    assert a == b


def save_kill_resume(factory, problem_factory, kill_at, path):
    """Run ``kill_at`` steps, checkpoint, drop everything, resume."""
    session = OptimizationSession(factory())
    for _ in range(kill_at):
        if not session.step():
            break
    session.save(path)
    del session
    resumed = OptimizationSession.resume(path, problem_factory())
    return resumed.run()


class TestMFBOResume:
    """Kill the paper's optimizer at several points — mid-initial-design,
    right after it, and deep in the BO loop. The checkpoint holds no
    models: the resumed run refits them from the restored history."""

    @pytest.mark.parametrize("kill_at", [2, 9, 13])
    def test_resumed_trajectory_matches_uninterrupted(self, tmp_path, kill_at):
        def factory():
            return MFBOptimizer(
                GardnerProblem(), budget=8.0, n_init_low=6, n_init_high=2,
                seed=7, **FAST,
            )

        reference = factory().run()
        resumed = save_kill_resume(
            factory, GardnerProblem, kill_at, tmp_path / "ckpt.json"
        )
        assert_trajectories_identical(reference, resumed)


class TestBaselineResume:
    CASES = {
        "weibo": (
            lambda: WEIBO(ForresterProblem(), budget=9, n_init=5, seed=4,
                          msp_starts=20, msp_polish=0, n_restarts=1),
            ForresterProblem,
        ),
        "gaspad": (
            lambda: GASPAD(ForresterProblem(), budget=10, n_init=6,
                           pop_size=4, seed=4),
            ForresterProblem,
        ),
        "de": (
            lambda: DEOptimizer(ForresterProblem(), budget=18, pop_size=5,
                                seed=4),
            ForresterProblem,
        ),
        "random_search": (
            lambda: RandomSearchOptimizer(ForresterProblem(), budget=12,
                                          n_init=4, seed=4),
            ForresterProblem,
        ),
    }

    @pytest.mark.parametrize("name", list(CASES))
    @pytest.mark.parametrize("kill_at", [3, 7])
    def test_resumed_trajectory_matches_uninterrupted(
        self, tmp_path, name, kill_at
    ):
        factory, problem_factory = self.CASES[name]
        reference = factory().run()
        resumed = save_kill_resume(
            factory, problem_factory, kill_at, tmp_path / "ckpt.json"
        )
        assert_trajectories_identical(reference, resumed)


class TestCheckpointFormat:
    def _session(self):
        return OptimizationSession(
            RandomSearchOptimizer(ForresterProblem(), budget=8, n_init=4,
                                  seed=0)
        )

    def test_checkpoint_is_plain_json(self, tmp_path):
        session = self._session()
        session.step()
        path = session.save(tmp_path / "ckpt.json")
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-session-checkpoint"
        assert payload["strategy"] == "random_search"
        assert payload["problem_name"] == "forrester"
        assert payload["state"]["history"]["records"]

    def test_resume_rejects_wrong_problem(self, tmp_path):
        session = self._session()
        session.step()
        path = session.save(tmp_path / "ckpt.json")
        with pytest.raises(ValueError):
            OptimizationSession.resume(path, GardnerProblem())

    def test_resume_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            OptimizationSession.resume(path, ForresterProblem())

    def test_resume_with_custom_bit_generator(self, tmp_path):
        def philox():
            return np.random.Generator(np.random.Philox(5))

        reference = RandomSearchOptimizer(
            ForresterProblem(), budget=8, n_init=4, rng=philox()
        ).run()
        session = OptimizationSession(
            RandomSearchOptimizer(ForresterProblem(), budget=8, n_init=4,
                                  rng=philox())
        )
        for _ in range(3):
            session.step()
        path = session.save(tmp_path / "ckpt.json")
        with pytest.raises(ValueError):
            # default PCG64 cannot host the saved Philox stream states
            OptimizationSession.resume(path, ForresterProblem())
        resumed = OptimizationSession.resume(
            path, ForresterProblem(), rng=philox()
        )
        assert resumed.run() == reference

    def test_auto_checkpointing(self, tmp_path):
        path = tmp_path / "auto.json"
        session = OptimizationSession(
            RandomSearchOptimizer(ForresterProblem(), budget=6, n_init=3,
                                  seed=1),
            checkpoint_path=path,
            checkpoint_every=2,
        )
        session.run()
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-session-checkpoint"
        resumed = OptimizationSession.resume(path, ForresterProblem())
        assert resumed.is_done  # final save happens at run() completion


class TestCrossProcessDeterminism:
    """Two interpreters share no hash seed, wall clock or OS entropy, so a
    checkpoint that depends on set order, ``time.time()`` or an unseeded
    generator differs between them. In-process comparisons share all
    three and cannot see it."""

    SCRIPT = f"""
import sys

from repro import MFBOptimizer, OptimizationSession
from repro.problems import GardnerProblem

session = OptimizationSession(
    MFBOptimizer(GardnerProblem(), budget=8.0, n_init_low=6, n_init_high=2,
                 seed=7, **{FAST!r})
)
session.run()
session.save(sys.argv[1])
"""

    def test_checkpoints_are_byte_identical_across_hash_seeds(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        runs = []
        for hash_seed in ("0", "12345"):
            path = tmp_path / f"hashseed-{hash_seed}.json"
            env = {
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "OPENBLAS_NUM_THREADS": "1",
                "PYTHONPATH": src,
            }
            proc = subprocess.Popen(
                [sys.executable, "-c", self.SCRIPT, str(path)], env=env
            )
            runs.append((path, proc))
        try:
            for _, proc in runs:
                assert proc.wait(timeout=300) == 0
        finally:
            for _, proc in runs:
                proc.kill()
        first, second = (path.read_bytes() for path, _ in runs)
        assert first == second


class TestResultRoundTrip:
    """Satellite: BOResult round-trips through its dict form exactly."""

    def _result(self):
        return MFBOptimizer(
            GardnerProblem(), budget=5.0, n_init_low=5, n_init_high=2,
            seed=0, **FAST,
        ).run()

    def test_bo_result_round_trip_equality(self):
        result = self._result()
        clone = BOResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone == result
        assert np.array_equal(clone.best_x, result.best_x)
        assert clone.history.total_cost == result.history.total_cost

    def test_history_round_trip(self):
        history = self._result().history
        clone = History.from_dict(json.loads(json.dumps(history.to_dict())))
        assert len(clone) == len(history)
        np.testing.assert_array_equal(
            clone.x_unit_matrix, history.x_unit_matrix
        )

    def test_equality_with_array_valued_metrics(self):
        result = self._result()
        result.metrics["trace"] = np.array([1.0, 2.0])
        clone = BOResult.from_dict(json.loads(json.dumps(result.to_dict())))
        # from_dict restores the array metric as a list; equality must
        # neither raise on the elementwise comparison nor reject it
        assert clone == result
        other = self._result()
        other.metrics["trace"] = np.array([1.0, 3.0])
        assert result != other

    def test_evaluation_round_trip_with_metrics(self):
        evaluation = Evaluation(
            objective=1.5,
            constraints=np.array([-0.25, 0.75]),
            fidelity=FIDELITY_HIGH,
            cost=1.0,
            metrics={"Eff": np.float64(62.3), "n": np.int64(3)},
        )
        clone = Evaluation.from_dict(
            json.loads(json.dumps(evaluation.to_dict()))
        )
        assert clone.objective == evaluation.objective
        assert np.array_equal(clone.constraints, evaluation.constraints)
        assert clone.metrics == {"Eff": 62.3, "n": 3}
        assert clone.feasible == evaluation.feasible
