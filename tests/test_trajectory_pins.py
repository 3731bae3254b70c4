"""Absolute trajectory pins for the Bayesian-optimization strategies.

Every other trajectory test compares two runs of the same code (serial
against session, uninterrupted against resumed), so an arithmetic or
RNG-order change that moves both sides alike passes them. These pins
compare against fixed digests instead: one blake2b digest per run over
each history record's ``x_unit`` bytes, fidelity, iteration, objective,
constraints and objectives.

The matrix covers MF-BO (both fusions, the mean-path ablation, the
``refit_every`` cache path, batches and in-flight suggestions), MO-MFBO
with EHVI (closed form and Monte Carlo) and ParEGO, and WEIBO.

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
    "mfbo-gardner-ar1": (lambda: _mfbo(fusion="ar1"), _run()),
    "mfbo-gardner-mean-path": (
        lambda: _mfbo(fused_prediction="mean_path"), _run()
    ),
    "mfbo-gardner-refit2": (lambda: _mfbo(refit_every=2), _run()),
    "mfbo-gardner-batch3": (lambda: _mfbo(), _run(3)),
    "mfbo-gardner-refit2-batch2": (lambda: _mfbo(refit_every=2), _run(2)),
    "mfbo-gardner-fifo2": (lambda: _mfbo(), _fifo(2)),
    "mfbo-gardner-fifo3": (lambda: _mfbo(n_init_high=3), _fifo(3)),
    "mfbo-forrester": (lambda: _mfbo(ForresterProblem()), _run()),
    "ehvi-zdt1": (lambda: _momfbo("ehvi"), _run()),
    "ehvi-zdt1-constrained": (
        lambda: _momfbo("ehvi", ZDT1Problem(constrained=True)), _run()
    ),
    "ehvi-zdt1-ar1": (lambda: _momfbo("ehvi", fusion="ar1"), _run()),
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
    "ehvi-3obj": "f602d4f672fbd824223532296b4dec3e",
    "ehvi-3obj-batch2": "87773f741944d2777f381a6fe9c98d20",
    "ehvi-zdt1": "cd7ca36bc60167c22b9f0f392879f3d1",
    "ehvi-zdt1-ar1": "49d94e37619e9fe69899480570f1defc",
    "ehvi-zdt1-batch2": "5e30d1440433628c23344577614b1a02",
    "ehvi-zdt1-constrained": "991ade465b6d7f54141c018999cd357e",
    "ehvi-zdt1-fifo2": "d2415509089250a6ad52178ef0818956",
    "mfbo-forrester": "64315578481f46047724d322599755c8",
    "mfbo-gardner": "ff2ad9ef1fa47dcd7336235594ae0ea6",
    "mfbo-gardner-ar1": "eee9a35bf395e5a51e5cd28132cffcb6",
    "mfbo-gardner-batch3": "f1ef8ceaf7c8b1db05bfc8d7eb559fab",
    "mfbo-gardner-fifo2": "d86f6b226cc64576a2c6a91587a9047f",
    "mfbo-gardner-fifo3": "71985a0b43a80bb478e8226fd5aaa4e8",
    "mfbo-gardner-mean-path": "cc27e9c5c0e33e04fe080410e66468a2",
    "mfbo-gardner-refit2": "77fbd0812902d11754ad9c2f18157b70",
    "mfbo-gardner-refit2-batch2": "c14f847eebafc095c687b0321a7a50cf",
    "parego-zdt1": "9f88661a1e9db704afb7a89cb532fed1",
    "parego-zdt1-batch2": "79a5fbc38e4b9f1eadcd47b87e207345",
    "parego-zdt1-constrained": "3800fb4a675c840cd639f167b0aa48f2",
    "parego-zdt1-fifo2": "9b167c67aa3c95e8318a882e8d9ad310",
    "weibo-forrester": "446c18891706148536b689f3f87cd3fc",
    "weibo-gardner": "667ce8161bb40a2d61ad91909cbf2c91",
    "weibo-gardner-batch3": "8aa232fdb78e8df19458fff984eeec36",
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
