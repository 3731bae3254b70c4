"""Tests for repro.problems (base + synthetic suites)."""

import importlib
import pkgutil

import numpy as np
import pytest

import repro
from repro.design.sampling import maximin_latin_hypercube
from repro.problems import (
    FIDELITY_HIGH,
    FIDELITY_LOW,
    BraninProblem,
    ConstrainedBraninProblem,
    CurrinProblem,
    FailedEvaluation,
    ForresterProblem,
    GardnerProblem,
    Hartmann3Problem,
    MultiObjectiveProblem,
    ParkProblem,
    PedagogicalProblem,
    Problem,
    branin_high,
    forrester_high,
    forrester_low,
    hartmann3_high,
    pedagogical_high,
    pedagogical_low,
)

ALL_PROBLEMS = [
    PedagogicalProblem,
    ForresterProblem,
    CurrinProblem,
    ParkProblem,
    BraninProblem,
    Hartmann3Problem,
    GardnerProblem,
    ConstrainedBraninProblem,
]


#: ``get_problem`` kwargs for the sweep: the latency problem sleeps by
#: default to model a slow farm.
SWEEP_KWARGS = {"latency": {"fast_s": 0.0, "slow_s": 0.0}}


def sweep_panel(dim):
    """The all-0 and all-1 corners, the 2d face centres and 4 maximin-LHS
    points at a fixed seed."""
    faces = np.full((2 * dim, dim), 0.5)
    faces[np.arange(dim), np.arange(dim)] = 0.0
    faces[dim + np.arange(dim), np.arange(dim)] = 1.0
    lhs = maximin_latin_hypercube(4, dim, rng=np.random.default_rng(0))
    return np.vstack([np.zeros(dim), np.ones(dim), faces, lhs])


def is_finite_outcome(evaluation):
    values = [evaluation.objective, *evaluation.constraints]
    values += list(getattr(evaluation, "objectives", []))
    return bool(np.all(np.isfinite(values)))


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


class TestProblemInterface:
    @pytest.mark.parametrize("name", repro.list_problems())
    def test_evaluate_both_fidelities(self, name):
        """Algorithm 1 needs every simulation back as a finite, scored
        outcome: the GP fits and the wEI cannot absorb an escaped
        exception or an inf. So over a fixed panel, at every fidelity,
        ``evaluate_unit`` raises nothing and returns finite values (a
        ``FailedEvaluation`` included), and so do the failure hooks."""
        problem = repro.get_problem(name, **SWEEP_KWARGS.get(name, {}))
        for fidelity in problem.fidelities:
            assert is_finite_outcome(problem.failure_evaluation(fidelity, x=None))
            for u in sweep_panel(problem.dim):
                evaluation = problem.evaluate_unit(u, fidelity)
                assert is_finite_outcome(evaluation), (u, evaluation)
                assert evaluation.constraints.shape == (problem.n_constraints,)
                assert evaluation.fidelity == fidelity
                failure = problem.failure_evaluation(
                    fidelity, x=problem.space.from_unit(u)
                )
                assert isinstance(failure, FailedEvaluation)
                assert is_finite_outcome(failure), (u, failure)

    def test_every_public_problem_is_swept(self):
        """No ``Problem`` subclass defined in ``repro`` can skip the sweep
        above: each one is some registered name's class."""
        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.endswith(".__main__"):
                importlib.import_module(info.name)
        public = {
            cls
            for cls in all_subclasses(Problem)
            if cls.__module__.startswith("repro.") and not cls.__name__.startswith("_")
        }
        registered = {
            type(repro.get_problem(name, **SWEEP_KWARGS.get(name, {})))
            for name in repro.list_problems()
        }
        assert public - registered == {MultiObjectiveProblem}

    @pytest.mark.parametrize("cls", ALL_PROBLEMS)
    def test_cost_structure(self, cls):
        problem = cls()
        assert problem.cost(FIDELITY_HIGH) == 1.0
        assert problem.cost(FIDELITY_LOW) < 1.0

    @pytest.mark.parametrize("cls", ALL_PROBLEMS)
    def test_fidelities_differ(self, cls):
        """Low and high fidelity must disagree somewhere, else the
        multi-fidelity machinery is pointless."""
        problem = cls()
        rng = np.random.default_rng(1)
        us = rng.random((10, problem.dim))
        low = [problem.evaluate_unit(u, FIDELITY_LOW).objective for u in us]
        high = [problem.evaluate_unit(u, FIDELITY_HIGH).objective for u in us]
        assert not np.allclose(low, high)

    @pytest.mark.parametrize(
        "cls", [c for c in ALL_PROBLEMS if c is not PedagogicalProblem]
    )
    def test_fidelities_correlate(self, cls):
        """...but they must also correlate, else fusion cannot help.

        The pedagogical pair is deliberately excluded: its fidelities are
        *nonlinearly* related (sin vs sin^2) with near-zero linear
        correlation — that is exactly why the paper needs NARGP.
        """
        problem = cls()
        rng = np.random.default_rng(2)
        us = rng.random((30, problem.dim))
        low = [problem.evaluate_unit(u, FIDELITY_LOW).objective for u in us]
        high = [problem.evaluate_unit(u, FIDELITY_HIGH).objective for u in us]
        assert abs(np.corrcoef(low, high)[0, 1]) > 0.3

    def test_default_fidelity_is_highest(self):
        problem = ForresterProblem()
        evaluation = problem.evaluate(np.array([0.5]))
        assert evaluation.fidelity == FIDELITY_HIGH

    def test_unknown_fidelity_raises(self):
        with pytest.raises(ValueError):
            ForresterProblem().evaluate(np.array([0.5]), "medium")

    def test_wrong_dim_raises(self):
        with pytest.raises(ValueError):
            BraninProblem().evaluate(np.array([0.5]))

    def test_nonfinite_input_raises(self):
        with pytest.raises(ValueError):
            ForresterProblem().evaluate(np.array([np.nan]))

    def test_evaluate_unit_clips(self):
        problem = ForresterProblem()
        evaluation = problem.evaluate_unit(np.array([1.5]))
        assert np.isfinite(evaluation.objective)


class TestKnownValues:
    def test_forrester_minimum(self):
        assert forrester_high(np.array([[0.757249]]))[0] == pytest.approx(
            -6.0207, abs=1e-3
        )

    def test_forrester_low_is_affine_transform(self):
        x = np.linspace(0, 1, 11)[:, None]
        expected = 0.5 * forrester_high(x) + 10 * (x[:, 0] - 0.5) - 5
        np.testing.assert_allclose(forrester_low(x), expected)

    def test_branin_known_minima(self):
        minima = np.array(
            [[-np.pi, 12.275], [np.pi, 2.275], [9.42478, 2.475]]
        )
        np.testing.assert_allclose(
            branin_high(minima), 0.397887, atol=1e-4
        )

    def test_hartmann3_minimum(self):
        x_star = np.array([[0.114614, 0.555649, 0.852547]])
        assert hartmann3_high(x_star)[0] == pytest.approx(-3.86278, abs=1e-3)

    def test_pedagogical_relation(self):
        x = np.linspace(0, 1, 50)[:, None]
        low = pedagogical_low(x)
        expected = (x[:, 0] - np.sqrt(2.0)) * low**2
        np.testing.assert_allclose(pedagogical_high(x), expected)

    def test_pedagogical_high_nonpositive(self):
        # (x - sqrt(2)) < 0 on [0, 1] and f_l^2 >= 0
        x = np.linspace(0, 1, 100)[:, None]
        assert np.all(pedagogical_high(x) <= 1e-12)


class TestConstrainedProblems:
    def test_gardner_constraint_sign(self):
        problem = GardnerProblem()
        # (pi, pi): cos(pi)cos(pi) - sin(pi)sin(pi) + 0.5 = 1.5 > 0: violated
        violated = problem.evaluate(np.array([np.pi, np.pi]))
        assert violated.constraints[0] > 0
        # (pi/2, pi): 0 - 0 + 0.5 = 0.5 > 0 still violated; try (pi/2, pi/2):
        # cos*cos - sin*sin + 0.5 = 0 - 1 + 0.5 = -0.5 < 0: satisfied
        satisfied = problem.evaluate(np.array([np.pi / 2, np.pi / 2]))
        assert satisfied.constraints[0] < 0

    def test_gardner_has_feasible_and_infeasible_points(self):
        problem = GardnerProblem()
        rng = np.random.default_rng(3)
        flags = [
            problem.evaluate_unit(rng.random(2)).feasible
            for _ in range(40)
        ]
        assert any(flags) and not all(flags)

    def test_constrained_branin_disk(self):
        problem = ConstrainedBraninProblem()
        inside = problem.evaluate(np.array([2.5, 7.5]))
        assert inside.feasible
        outside = problem.evaluate(np.array([-5.0, 0.0]))
        assert not outside.feasible

    def test_cost_ratio_parameter(self):
        problem = GardnerProblem(cost_ratio=25.0)
        assert problem.cost(FIDELITY_LOW) == pytest.approx(1 / 25.0)
        with pytest.raises(ValueError):
            GardnerProblem(cost_ratio=0.5)


class TestFeasibilityBoundary:
    """Regression: ``c_i == 0`` sits exactly on the specification and is
    feasible under the paper's ``c_i(x) <= 0`` convention. The old
    strict ``< 0`` check silently classified boundary designs as
    infeasible while reporting zero violation."""

    def _evaluation(self, constraints):
        from repro.problems import Evaluation

        return Evaluation(
            objective=1.0,
            constraints=np.asarray(constraints, dtype=float),
            fidelity=FIDELITY_HIGH,
            cost=1.0,
        )

    def test_boundary_constraint_is_feasible(self):
        boundary = self._evaluation([0.0, -1.0])
        assert boundary.feasible
        assert boundary.total_violation == 0.0

    def test_feasible_consistent_with_violation(self):
        """feasible <=> total_violation == 0 on every sign pattern."""
        for constraints in ([-1.0], [0.0], [1e-12], [0.0, 0.0], [-2.0, 3.0]):
            evaluation = self._evaluation(constraints)
            assert evaluation.feasible == (evaluation.total_violation == 0.0)

    def test_history_accepts_boundary_incumbent(self):
        from repro.core import History

        history = History()
        history.add(np.array([0.5]), self._evaluation([0.0]))
        best = history.best_feasible(FIDELITY_HIGH)
        assert best is not None and best.objective == 1.0
