"""Micro-benchmarks of the multi-objective subsystem hot paths.

Covered by the CI perf guard (``run_benchmarks.py --compare``): exact
hypervolume at archive-scale front sizes (2-D sweep and 3-D WFG),
archive maintenance, the closed-form 2-D EHVI over an MSP-sized
candidate batch, the 3-D Monte-Carlo EHVI at the ``pareto-opamp``
acquisition shape, and one full MOMFBO suggest/observe iteration on the
synthetic ZDT1 testbench.
"""

import numpy as np
import pytest

from repro.moo import (
    ExpectedHypervolumeImprovement,
    MOMFBOptimizer,
    ParetoArchive,
    ehvi_2d,
    hypervolume,
    hypervolume_contributions,
)
from repro.problems import ZDT1Problem


@pytest.fixture(scope="module")
def front_2d():
    rng = np.random.default_rng(0)
    # A dense staircase plus dominated filler — archive-scale input.
    t = np.sort(rng.random(40))
    front = np.column_stack([t, (1.0 - t) ** 1.5])
    filler = rng.uniform(0.2, 1.0, size=(60, 2))
    return np.vstack([front, filler])


@pytest.fixture(scope="module")
def front_3d():
    rng = np.random.default_rng(1)
    return rng.uniform(0.0, 1.0, size=(60, 3))


def test_hypervolume_2d_100pts(benchmark, front_2d):
    value = benchmark(hypervolume, front_2d, np.array([1.1, 1.1]))
    assert value > 0


def test_hypervolume_3d_wfg_60pts(benchmark, front_3d):
    value = benchmark(hypervolume, front_3d, np.full(3, 1.1))
    assert value > 0


def test_hypervolume_contributions_3d(benchmark, front_3d):
    from repro.moo import non_dominated_mask

    front = front_3d[non_dominated_mask(front_3d)]
    contributions = benchmark(
        hypervolume_contributions, front, np.full(3, 1.1)
    )
    assert np.all(contributions >= 0)


def test_archive_insert_500(benchmark):
    rng = np.random.default_rng(2)
    points = rng.uniform(0.0, 1.0, size=(500, 2))

    def build():
        archive = ParetoArchive(2)
        for i, p in enumerate(points):
            archive.add(np.array([float(i), 0.0]), p)
        return archive

    archive = benchmark(build)
    assert len(archive) >= 1


def test_ehvi_2d_closed_form_batch200(benchmark, front_2d):
    rng = np.random.default_rng(3)
    mu = rng.uniform(0.0, 1.0, size=(200, 2))
    var = np.full((200, 2), 0.01)
    values = benchmark(ehvi_2d, mu, var, front_2d, np.array([1.1, 1.1]))
    assert values.shape == (200,)
    assert np.all(values >= 0)


def test_ehvi_mc_3d_batch(benchmark):
    """Monte-Carlo EHVI at the ``pareto-opamp`` acquisition shape: 61
    candidates, 8 common-random-number draws, a 4-point 3-D front."""
    rng = np.random.default_rng(4)
    # Points on a plane of constant sum are mutually non-dominated.
    front = 0.9 * rng.dirichlet(np.ones(3), size=4)

    def linear(j):
        def predict(x):
            return 0.2 + 0.6 * x[:, j], np.full(x.shape[0], 0.02)

        return predict

    acquisition = ExpectedHypervolumeImprovement(
        [linear(j) for j in range(3)], front, np.ones(3),
        z=rng.standard_normal((8, 3)),
    )
    x = rng.uniform(0.0, 1.0, size=(61, 3))
    values = benchmark(acquisition, x)
    assert values.shape == (61,)
    assert np.all(values >= 0) and np.any(values > 0)


def test_momfbo_iteration(once):
    """One ask/evaluate/tell cycle past the initial design (model fits,
    EHVI search, fidelity selection) on the ZDT1 testbench."""

    def iterate():
        optimizer = MOMFBOptimizer(
            ZDT1Problem(constrained=True), budget=20.0,
            n_init_low=8, n_init_high=3, seed=0,
            msp_starts=30, msp_polish=1, n_restarts=1,
            n_mc_samples=8, gp_max_opt_iter=30,
        )
        problem = optimizer.problem
        for x, fidelity in optimizer.suggest(11):  # initial design
            optimizer.observe(
                x, fidelity, problem.evaluate_unit(x, fidelity)
            )
        batch = optimizer.suggest()  # the timed BO iteration's ask
        for x, fidelity in batch:
            optimizer.observe(
                x, fidelity, problem.evaluate_unit(x, fidelity)
            )
        return optimizer

    optimizer = once(iterate)
    assert len(optimizer.history) >= 12
