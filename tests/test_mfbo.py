"""Tests for the main multi-fidelity BO loop (paper Algorithm 1)."""

import numpy as np
import pytest

from repro.core import MFBOptimizer
from repro.problems import (
    FIDELITY_HIGH,
    FIDELITY_LOW,
    ForresterProblem,
    GardnerProblem,
)

FAST = dict(msp_starts=40, msp_polish=1, n_restarts=1, n_mc_samples=8,
            gp_max_opt_iter=30)


class TestUnconstrained:
    def test_forrester_converges_to_global_minimum(self):
        result = MFBOptimizer(
            ForresterProblem(), budget=12.0, n_init_low=8, n_init_high=3,
            seed=0, **FAST,
        ).run()
        assert result.best_objective == pytest.approx(-6.0207, abs=0.1)
        assert result.feasible

    def test_budget_respected(self):
        result = MFBOptimizer(
            ForresterProblem(), budget=8.0, n_init_low=6, n_init_high=2,
            seed=1, **FAST,
        ).run()
        # one final evaluation may exceed the budget by at most one
        # high-fidelity cost
        assert result.equivalent_cost <= 8.0 + 1.0 + 1e-9

    def test_both_fidelities_used(self):
        result = MFBOptimizer(
            ForresterProblem(), budget=10.0, n_init_low=8, n_init_high=3,
            seed=2, **FAST,
        ).run()
        assert result.history.n_evaluations(FIDELITY_LOW) >= 8
        assert result.history.n_evaluations(FIDELITY_HIGH) >= 3

    def test_max_iterations_cap(self):
        result = MFBOptimizer(
            ForresterProblem(), budget=100.0, n_init_low=6, n_init_high=2,
            max_iterations=3, seed=3, **FAST,
        ).run()
        iterations = max(r.iteration for r in result.history.records)
        assert iterations <= 3

    def test_reproducible_with_seed(self):
        runs = [
            MFBOptimizer(
                ForresterProblem(), budget=8.0, n_init_low=6,
                n_init_high=2, seed=42, **FAST,
            ).run().best_objective
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestConstrained:
    def test_gardner_finds_feasible_optimum(self):
        result = MFBOptimizer(
            GardnerProblem(), budget=14.0, n_init_low=10, n_init_high=4,
            seed=0, **FAST,
        ).run()
        assert result.feasible
        assert result.best_objective < -1.0

    def test_constraints_recorded(self):
        result = MFBOptimizer(
            GardnerProblem(), budget=8.0, n_init_low=8, n_init_high=3,
            seed=1, **FAST,
        ).run()
        assert result.best_constraints.shape == (1,)


class TestConfiguration:
    def test_ar1_fusion_mode(self):
        result = MFBOptimizer(
            ForresterProblem(), budget=8.0, n_init_low=6, n_init_high=2,
            fusion="ar1", seed=0, **FAST,
        ).run()
        assert np.isfinite(result.best_objective)

    def test_mean_path_prediction_mode(self):
        result = MFBOptimizer(
            ForresterProblem(), budget=8.0, n_init_low=6, n_init_high=2,
            fused_prediction="mean_path", seed=0, **FAST,
        ).run()
        assert np.isfinite(result.best_objective)

    def test_callback_invoked_each_iteration(self):
        calls = []
        MFBOptimizer(
            ForresterProblem(), budget=7.0, n_init_low=6, n_init_high=2,
            seed=0, callback=lambda i, h: calls.append(i), **FAST,
        ).run()
        assert calls == sorted(calls)
        assert len(calls) >= 1

    def test_gamma_controls_promotion_rate(self):
        def run(gamma):
            return MFBOptimizer(
                ForresterProblem(), budget=8.0, n_init_low=8,
                n_init_high=3, gamma=gamma, seed=5, **FAST,
            ).run()
        eager = run(100.0)   # everything promoted to high fidelity
        lazy = run(1e-8)     # almost nothing promoted
        eager_high = eager.history.n_evaluations(FIDELITY_HIGH)
        lazy_high = lazy.history.n_evaluations(FIDELITY_HIGH)
        eager_low = eager.history.n_evaluations(FIDELITY_LOW)
        lazy_low = lazy.history.n_evaluations(FIDELITY_LOW)
        assert eager_high > lazy_high or lazy_low > eager_low

    def test_invalid_args_raise(self):
        problem = ForresterProblem()
        with pytest.raises(ValueError):
            MFBOptimizer(problem, budget=0.0)
        with pytest.raises(ValueError):
            MFBOptimizer(problem, n_init_low=0)
        with pytest.raises(ValueError):
            MFBOptimizer(problem, fusion="nope")
        with pytest.raises(ValueError):
            MFBOptimizer(problem, fused_prediction="nope")

    @pytest.mark.parametrize("n_mc", [0, -1])
    def test_empty_mc_draw_rejected_before_any_simulation(
        self, monkeypatch, n_mc
    ):
        problem = ForresterProblem()
        calls = []
        evaluate = problem.evaluate_unit
        monkeypatch.setattr(
            problem, "evaluate_unit",
            lambda *args: calls.append(args) or evaluate(*args),
        )
        with pytest.raises(ValueError, match="n_mc_samples"):
            MFBOptimizer(
                problem, budget=6.0, n_init_low=4, n_init_high=2, seed=0,
                **{**FAST, "n_mc_samples": n_mc},
            ).run()
        assert calls == []

    def test_single_fidelity_problem_rejected(self):
        problem = ForresterProblem()
        problem.fidelities = (FIDELITY_HIGH,)
        with pytest.raises(ValueError):
            MFBOptimizer(problem)

    def test_dedup_nudges_duplicates(self):
        optimizer = MFBOptimizer(
            ForresterProblem(), budget=5.0, n_init_low=4, n_init_high=2,
            seed=0, **FAST,
        )
        for x_unit, fidelity in optimizer.suggest(6):
            optimizer.observe(
                x_unit, fidelity,
                optimizer.problem.evaluate_unit(x_unit, fidelity),
            )
        existing = optimizer.history.records[0].x_unit
        nudged = optimizer._dedup(existing.copy())
        assert not np.array_equal(nudged, existing)
        fresh = np.array([0.123456789])
        np.testing.assert_array_equal(optimizer._dedup(fresh), fresh)


class TestBudgetGuard:
    """Regression: the loop must stop when not even a coarse run fits."""

    def test_no_overshoot_when_remainder_below_low_cost(self):
        # Forrester: cost(low) = 0.1, cost(high) = 1.0. The initial
        # design costs 4 * 0.1 + 2 * 1.0 = 2.4, leaving 0.05 — less than
        # one coarse simulation. Before the fix the loop evaluated
        # anyway and overshot the equivalent-cost budget.
        budget = 2.45
        result = MFBOptimizer(
            ForresterProblem(), budget=budget, n_init_low=4, n_init_high=2,
            seed=0, **FAST,
        ).run()
        assert result.equivalent_cost <= budget + 1e-9
        assert result.equivalent_cost == pytest.approx(2.4)

    def test_cost_never_exceeds_budget(self):
        for seed in range(3):
            budget = 3.15
            result = MFBOptimizer(
                ForresterProblem(), budget=budget, n_init_low=4,
                n_init_high=2, seed=seed, **FAST,
            ).run()
            assert result.equivalent_cost <= budget + 1e-9


class TestDedupTolerance:
    """Regression: _dedup must re-check the nudged point."""

    def _optimizer_with_history_at(self, points, seed):
        optimizer = MFBOptimizer(
            ForresterProblem(), budget=5.0, n_init_low=4, n_init_high=2,
            seed=seed, **FAST,
        )
        for point in points:
            optimizer.history.add(
                np.atleast_1d(np.asarray(point, dtype=float)),
                optimizer.problem.evaluate_unit(
                    np.atleast_1d(np.asarray(point, dtype=float)),
                    FIDELITY_LOW,
                ),
            )
        return optimizer

    def test_boundary_clip_cannot_return_duplicate(self):
        # seed 0's first standard normal draw is positive, so a single
        # 1e-6 nudge of a corner point clips straight back onto the
        # duplicate — the pre-fix behavior.
        optimizer = self._optimizer_with_history_at([[1.0]], seed=0)
        assert float(np.random.default_rng(0).standard_normal(1)[0]) > 0
        deduped = optimizer._dedup(np.array([1.0]))
        distances = np.abs(optimizer.history.x_unit_matrix[:, 0] - deduped[0])
        assert float(np.min(distances)) > 1e-9
        assert 0.0 <= deduped[0] <= 1.0

    def test_result_clears_whole_history(self):
        # the nudged point must respect the tolerance against *every*
        # previous sample, not just the one it collided with
        points = [[0.5], [0.5 + 2e-7], [0.5 - 2e-7]]
        optimizer = self._optimizer_with_history_at(points, seed=1)
        deduped = optimizer._dedup(np.array([0.5]), tolerance=1e-6)
        distances = np.abs(
            optimizer.history.x_unit_matrix[:, 0] - deduped[0]
        )
        assert float(np.min(distances)) > 1e-6
