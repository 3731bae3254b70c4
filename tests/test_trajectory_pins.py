"""Absolute trajectory pins for the Bayesian-optimization strategies.

Every other trajectory test compares two runs of the same code (serial
against session, uninterrupted against resumed), so an arithmetic or
RNG-order change that moves both sides alike passes them. These pins
compare against fixed digests instead: one blake2b digest per run over
each history record's ``x_unit`` bytes, fidelity, iteration, objective,
constraints and objectives.

The matrix covers MF-BO (serial, batches and in-flight suggestions),
MO-MFBO with EHVI (closed form and Monte Carlo) and ParEGO, and WEIBO.

The last bits of a trajectory depend on the float stack, so the digests
are keyed by the identity fields ``artifact_bench/identity.py`` records
that decide float results: CPU model, numpy, scipy and BLAS. On any
other identity the test skips and names the mismatch. Re-pinning is a
deliberate act: a change that moves a digest lists old -> new values.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro import WEIBO, MFBOptimizer, MOMFBOptimizer, OptimizationSession
from repro.design import DesignSpace, Variable
from repro.problems import (
    FIDELITY_HIGH,
    FIDELITY_LOW,
    ForresterProblem,
    GardnerProblem,
    ZDT1Problem,
)
from repro.problems.multi import MultiObjectiveProblem

ROOT = Path(__file__).resolve().parents[1]

FAST = dict(msp_starts=20, msp_polish=1, n_restarts=1, gp_max_opt_iter=25)
MF_FAST = dict(FAST, n_mc_samples=6)
MOO_FAST = dict(MF_FAST, ehvi_mc_samples=6)


class ThreeObjectiveProblem(MultiObjectiveProblem):
    """Two-fidelity DTLZ2-style problem with three objectives.

    Three objectives route EHVI through its Monte-Carlo integral. The
    low fidelity adds a smooth bias to every objective.
    """

    name = "dtlz2-mf-3obj"

    def __init__(self) -> None:
        super().__init__(
            space=DesignSpace(
                [Variable(f"x{i + 1}", 0.0, 1.0) for i in range(3)]
            ),
            n_objectives=3,
            fidelities=(FIDELITY_LOW, FIDELITY_HIGH),
            costs={FIDELITY_LOW: 0.1, FIDELITY_HIGH: 1.0},
        )

    def _evaluate_multi(self, x, fidelity):
        a, b = 0.5 * np.pi * x[0], 0.5 * np.pi * x[1]
        g = 1.0 + (x[2] - 0.5) ** 2
        f = g * np.array(
            [np.cos(a) * np.cos(b), np.cos(a) * np.sin(b), np.sin(a)]
        )
        if fidelity == FIDELITY_LOW:
            f = 0.9 * f + 0.1 * np.sin(3.0 * x[:3])
        return f, np.empty(0), {}


def trajectory_digest(history) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for record in history.records:
        evaluation = record.evaluation
        objectives = getattr(evaluation, "objectives", None)
        for array in (
            record.x_unit,
            [evaluation.objective],
            evaluation.constraints,
            [] if objectives is None else objectives,
        ):
            digest.update(np.asarray(array, dtype=np.float64).tobytes())
            digest.update(b"|")
        digest.update(f"{record.fidelity}|{record.iteration}|".encode())
    return digest.hexdigest()


def _mfbo(problem=None, n_init_high=2, **kw):
    return MFBOptimizer(
        problem or GardnerProblem(), budget=7.0, n_init_low=6,
        n_init_high=n_init_high, seed=3, **{**MF_FAST, **kw},
    )


def _momfbo(acquisition, problem=None, **kw):
    return MOMFBOptimizer(
        problem or ZDT1Problem(), budget=5.0, n_init_low=6, n_init_high=2,
        seed=7, acquisition=acquisition, **{**MOO_FAST, **kw},
    )


def _weibo(problem=None):
    return WEIBO(
        problem or GardnerProblem(), budget=9, n_init=5, seed=5, **FAST
    )


def _run(batch_size=1):
    return lambda strategy, drive_fifo: OptimizationSession(strategy).run(
        batch_size=batch_size
    )


def _fifo(in_flight):
    """Keep ``in_flight`` suggestions out, observe the oldest first."""
    return lambda strategy, drive_fifo: drive_fifo(strategy, in_flight)


#: run name -> (strategy factory, driver)
RUNS = {
    "mfbo-gardner": (lambda: _mfbo(), _run()),
    "mfbo-gardner-batch3": (lambda: _mfbo(), _run(3)),
    "mfbo-gardner-fifo2": (lambda: _mfbo(), _fifo(2)),
    "mfbo-gardner-fifo3": (lambda: _mfbo(n_init_high=3), _fifo(3)),
    "mfbo-forrester": (lambda: _mfbo(ForresterProblem()), _run()),
    "ehvi-zdt1": (lambda: _momfbo("ehvi"), _run()),
    "ehvi-zdt1-constrained": (
        lambda: _momfbo("ehvi", ZDT1Problem(constrained=True)), _run()
    ),
    "ehvi-zdt1-batch2": (lambda: _momfbo("ehvi"), _run(2)),
    "ehvi-zdt1-fifo2": (lambda: _momfbo("ehvi"), _fifo(2)),
    "ehvi-3obj": (lambda: _momfbo("ehvi", ThreeObjectiveProblem()), _run()),
    "ehvi-3obj-batch2": (
        lambda: _momfbo("ehvi", ThreeObjectiveProblem()), _run(2)
    ),
    "parego-zdt1": (lambda: _momfbo("parego"), _run()),
    "parego-zdt1-constrained": (
        lambda: _momfbo("parego", ZDT1Problem(constrained=True)), _run()
    ),
    "parego-zdt1-batch2": (lambda: _momfbo("parego"), _run(2)),
    "parego-zdt1-fifo2": (lambda: _momfbo("parego"), _fifo(2)),
    "weibo-gardner": (lambda: _weibo(), _run()),
    "weibo-gardner-batch3": (lambda: _weibo(), _run(3)),
    "weibo-forrester": (lambda: _weibo(ForresterProblem()), _run()),
}

#: Float identity the digests were recorded on.
PINNED_IDENTITY = {
    "cpu_model": "Intel(R) Xeon(R) Processor",
    "numpy": "2.4.6",
    "scipy": "1.17.1",
    "blas": "scipy-openblas 0.3.31.188.0",
}

PINNED = {
    "ehvi-3obj": "01e15fe377278ab8eff80112479c46c3",
    "ehvi-3obj-batch2": "de3b57ff7ab4ceb7812c0d86a3c0517c",
    "ehvi-zdt1": "b0fe5d25cf7ea1e8d7c81124a5cb2e59",
    "ehvi-zdt1-batch2": "76abbdc4ac1d9f43e5e30faafe41a43e",
    "ehvi-zdt1-constrained": "1e61fc0083a1731dd0e29b4da5307bf3",
    "ehvi-zdt1-fifo2": "099c9d69304cc05fd3d57396410b73a0",
    "mfbo-forrester": "6a155d87393baed70d32be7f4c62fa3e",
    "mfbo-gardner": "6261969b55e4a4741f1c13166ecf5802",
    "mfbo-gardner-batch3": "fdcd97a03dc81bd2a0ed11d91371422d",
    "mfbo-gardner-fifo2": "b0d190ddb367d3ea41675fafee073980",
    "mfbo-gardner-fifo3": "d7740ee41db44d2edd55e7b47e28e8e6",
    "parego-zdt1": "1245217edfbf55b4f48f5c31ba44d855",
    "parego-zdt1-batch2": "807ec721daff1028af8a8bb0bddc1d07",
    "parego-zdt1-constrained": "eaec2aed57a6e45bcdb89039edea1ae7",
    "parego-zdt1-fifo2": "c5b169ac5dd405b06eb7ed3fef2f6a95",
    "weibo-forrester": "3408ee268f2b86d4035dae3f1545545f",
    "weibo-gardner": "4a66b21f00a7748e009c744a7bd792ae",
    "weibo-gardner-batch3": "cc27dec12df27617cdcd90fa22a27498",
}


def _float_identity() -> dict:
    spec = importlib.util.spec_from_file_location(
        "_artifact_bench_identity", ROOT / "artifact_bench" / "identity.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    identity = module.machine_identity(str(ROOT))
    return {key: identity[key] for key in PINNED_IDENTITY}


def test_matrix_is_pinned():
    assert sorted(PINNED) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trajectory_matches_pin(name, drive_fifo):
    identity = _float_identity()
    if identity != PINNED_IDENTITY:
        mismatch = [
            f"{key}: {identity[key]!r} != {PINNED_IDENTITY[key]!r}"
            for key in PINNED_IDENTITY
            if identity[key] != PINNED_IDENTITY[key]
        ]
        pytest.skip(
            "pins recorded on another float identity: " + "; ".join(mismatch)
        )
    make, drive = RUNS[name]
    strategy = make()
    drive(strategy, drive_fifo)
    assert trajectory_digest(strategy.history) == PINNED[name]
