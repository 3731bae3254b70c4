"""Tests for the ask/tell session layer (repro.session).

The acceptance bar: driving any strategy by hand through
suggest/observe, or through an OptimizationSession, must produce
bit-identical results to the legacy blocking ``run()`` loop at a fixed
seed.
"""

import dataclasses

import numpy as np
import pytest

from repro import (
    GASPAD,
    WEIBO,
    AsyncEvaluator,
    DEOptimizer,
    MFBOptimizer,
    OptimizationSession,
    RandomSearchOptimizer,
    SerialEvaluator,
)
from repro.experiments.runners import AlgorithmSpec, compare_algorithms, run_strategy
from repro.problems import (
    FIDELITY_HIGH,
    FIDELITY_LOW,
    ForresterProblem,
    GardnerProblem,
)
from repro.session import Strategy, Suggestion

FAST = dict(msp_starts=20, msp_polish=1, n_restarts=1, n_mc_samples=6,
            gp_max_opt_iter=25)


def make_strategies(seed):
    """One small instance of every strategy, keyed by name."""
    return {
        "mfbo": MFBOptimizer(
            GardnerProblem(), budget=7.0, n_init_low=6, n_init_high=2,
            seed=seed, **FAST,
        ),
        "weibo": WEIBO(
            ForresterProblem(), budget=9, n_init=5, seed=seed,
            msp_starts=20, msp_polish=0, n_restarts=1,
        ),
        "gaspad": GASPAD(
            ForresterProblem(), budget=10, n_init=6, pop_size=4, seed=seed,
        ),
        "de": DEOptimizer(ForresterProblem(), budget=18, pop_size=5, seed=seed),
        "random_search": RandomSearchOptimizer(
            ForresterProblem(), budget=12, n_init=4, seed=seed,
        ),
    }


def drive_manually(strategy, k=1):
    """Hand-rolled ask/tell loop, evaluating serially in order."""
    problem = strategy.problem
    while not strategy.is_done:
        batch = strategy.suggest(k)
        if not batch:
            break
        for x_unit, fidelity in batch:
            strategy.observe(
                x_unit, fidelity, problem.evaluate_unit(x_unit, fidelity)
            )
    return strategy.result()


class TestLegacyEquivalence:
    """run() == session.run() == manual ask/tell, bit for bit."""

    @pytest.mark.parametrize("name", list(make_strategies(0)))
    def test_manual_ask_tell_matches_run(self, name):
        legacy = make_strategies(11)[name].run()
        manual = drive_manually(make_strategies(11)[name])
        assert legacy == manual

    @pytest.mark.parametrize("name", list(make_strategies(0)))
    def test_session_matches_run(self, name):
        legacy = make_strategies(12)[name].run()
        session = OptimizationSession(make_strategies(12)[name]).run()
        assert legacy == session

    def test_seeded_runs_are_reproducible(self):
        a = make_strategies(13)["mfbo"].run()
        b = make_strategies(13)["mfbo"].run()
        assert a == b


class TestProtocol:
    def test_all_strategies_satisfy_protocol(self):
        for strategy in make_strategies(0).values():
            assert isinstance(strategy, Strategy)

    def test_initial_design_comes_first(self):
        optimizer = make_strategies(0)["mfbo"]
        batch = optimizer.suggest(8)
        assert len(batch) == 8
        assert all(s.fidelity == FIDELITY_LOW for s in batch[:6])
        assert all(s.fidelity == FIDELITY_HIGH for s in batch[6:])

    def test_suggest_invalid_k_raises(self):
        with pytest.raises(ValueError):
            make_strategies(0)["weibo"].suggest(0)

    def test_observe_fidelity_mismatch_raises(self):
        optimizer = make_strategies(0)["mfbo"]
        [(x, fidelity), *_] = optimizer.suggest()
        evaluation = optimizer.problem.evaluate_unit(x, fidelity)
        with pytest.raises(ValueError):
            optimizer.observe(x, FIDELITY_HIGH, evaluation)

    @pytest.mark.parametrize(
        "x_unit,fidelity",
        [
            ([np.nan, 0.5], FIDELITY_LOW),
            ([0.5, 0.5, 0.5], FIDELITY_LOW),
            ([0.5, 0.5], "medium"),
        ],
        ids=["non-finite-x", "wrong-length-x", "unknown-fidelity"],
    )
    def test_observe_rejects_impossible_design(self, x_unit, fidelity):
        """A design the problem cannot have raises before anything is
        recorded or charged, and the run still suggests."""
        optimizer = make_strategies(0)["mfbo"]
        problem = optimizer.problem
        initial = optimizer.suggest(8)
        evaluation = dataclasses.replace(
            problem.evaluate_unit(np.array([0.5, 0.5]), FIDELITY_LOW),
            fidelity=fidelity,
        )
        with pytest.raises(ValueError):
            optimizer.observe(np.array(x_unit), fidelity, evaluation)
        assert len(optimizer.history) == 0
        assert optimizer.history.total_cost == 0.0
        assert optimizer.pending == initial
        for x, f in initial:
            optimizer.observe(x, f, problem.evaluate_unit(x, f))
        assert optimizer.suggest()

    def test_callback_fires_per_bo_iteration(self):
        calls = []
        optimizer = MFBOptimizer(
            ForresterProblem(), budget=4.0, n_init_low=4, n_init_high=2,
            seed=0, callback=lambda i, h: calls.append(i), **FAST,
        )
        drive_manually(optimizer)
        assert calls == sorted(calls)
        assert len(calls) >= 1
        assert 0 not in calls  # initial design does not fire the callback


class TestBatchSuggestions:
    """suggest(k>1) yields k distinct candidates (constant liar)."""

    @staticmethod
    def _min_pairwise_distance(batch):
        xs = np.vstack([s.x_unit for s in batch])
        d = np.linalg.norm(xs[:, None, :] - xs[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        return float(d.min())

    def test_mfbo_batch_distinct(self):
        optimizer = MFBOptimizer(
            GardnerProblem(), budget=20.0, n_init_low=6, n_init_high=2,
            seed=0, **FAST,
        )
        drive_init = optimizer.suggest(8)
        for x, f in drive_init:
            optimizer.observe(x, f, optimizer.problem.evaluate_unit(x, f))
        batch = optimizer.suggest(4)
        assert len(batch) == 4
        assert self._min_pairwise_distance(batch) > 1e-9

    def test_weibo_batch_distinct_and_budget_capped(self):
        optimizer = WEIBO(
            ForresterProblem(), budget=7, n_init=5, seed=1,
            msp_starts=20, msp_polish=0, n_restarts=1,
        )
        for x, f in optimizer.suggest(5):
            optimizer.observe(x, f, optimizer.problem.evaluate_unit(x, f))
        batch = optimizer.suggest(10)  # only 2 evaluations left in budget
        assert len(batch) == 2
        assert self._min_pairwise_distance(batch) > 1e-9

    def test_de_batches_are_generation_chunks(self):
        optimizer = DEOptimizer(ForresterProblem(), budget=15, pop_size=5,
                                seed=2)
        init = optimizer.suggest(5)
        assert len(init) == 5
        for x, f in init:
            optimizer.observe(x, f, optimizer.problem.evaluate_unit(x, f))
        gen = optimizer.suggest(3)  # first chunk of the next generation
        assert len(gen) == 3
        rest = optimizer.suggest(10)  # remainder of the same generation
        assert len(rest) == 2

    def test_batched_session_run_respects_budget(self):
        result = OptimizationSession(
            MFBOptimizer(
                GardnerProblem(), budget=8.0, n_init_low=6, n_init_high=2,
                seed=3, **FAST,
            )
        ).run(batch_size=3)
        assert result.equivalent_cost <= 8.0 + 1e-9


class TestEvaluators:
    def test_process_pool_matches_serial(self):
        problem = ForresterProblem()
        suggestions = [
            Suggestion(np.array([v]), FIDELITY_HIGH) for v in (0.1, 0.4, 0.9)
        ]
        serial = SerialEvaluator().evaluate(problem, suggestions)
        with AsyncEvaluator(max_workers=2) as pool:
            parallel = pool.evaluate(problem, suggestions)
        for a, b in zip(serial, parallel):
            assert a.objective == b.objective
            assert a.cost == b.cost
            assert np.array_equal(a.constraints, b.constraints)

    def test_parallel_session_matches_serial_session(self):
        def build():
            return MFBOptimizer(
                ForresterProblem(), budget=5.0, n_init_low=4, n_init_high=2,
                seed=5, **FAST,
            )

        serial = OptimizationSession(build()).run(batch_size=2)
        with AsyncEvaluator(max_workers=2) as pool:
            parallel = OptimizationSession(build(), evaluator=pool).run(
                batch_size=2
            )
        assert serial == parallel

    def test_invalid_max_workers(self):
        with pytest.raises(ValueError):
            AsyncEvaluator(max_workers=0)

    def test_short_evaluator_response_raises(self):
        class DroppingEvaluator(SerialEvaluator):
            def evaluate(self, problem, suggestions):
                return super().evaluate(problem, suggestions)[:-1]

        session = OptimizationSession(
            RandomSearchOptimizer(ForresterProblem(), budget=8, n_init=4,
                                  seed=0),
            evaluator=DroppingEvaluator(),
        )
        with pytest.raises(ValueError, match="evaluator returned"):
            session.step(batch_size=4)

    def test_checkpoint_path_alone_saves_on_completion(self, tmp_path):
        path = tmp_path / "final.json"
        OptimizationSession(
            RandomSearchOptimizer(ForresterProblem(), budget=6, n_init=3,
                                  seed=0),
            checkpoint_path=path,
        ).run()
        assert path.exists()
        assert OptimizationSession.resume(path, ForresterProblem()).is_done


class TestRunnersIntegration:
    def test_run_strategy_drives_sessions(self):
        result = run_strategy(make_strategies(0)["random_search"])
        assert result.algorithm == "Random"
        assert result.history.n_evaluations(FIDELITY_HIGH) == 12

    def test_compare_algorithms_with_batching(self):
        spec = AlgorithmSpec(
            "Random",
            lambda p, s: RandomSearchOptimizer(p, budget=8, n_init=4, seed=s),
        )
        comparison = compare_algorithms(
            ForresterProblem, [spec], n_repeats=2, base_seed=1, batch_size=4
        )
        assert comparison["Random"].n_repeats == 2
