"""Ablation experiments for the paper's key design choices.

* ``abl1_fusion``: NARGP nonlinear fusion (the paper's choice) vs the
  Kennedy-O'Hagan linear AR1 model (paper eq. 7) as the surrogate in the
  full BO loop and as a pure model on the pedagogical pair.
* ``abl2_msp_scatter``: incumbent-biased MSP scatter (§4.1: 10% around
  tau_l, 40% around tau_h) vs plain uniform scatter.
* ``abl3_gamma``: sweep of the fidelity-selection threshold gamma
  (eq. 11), showing its control over the low/high evaluation mix.
"""

from __future__ import annotations

import numpy as np

from ..core.mfbo import MFBOptimizer
from ..mf.ar1 import AR1
from ..mf.nargp import NARGP
from ..problems.base import FIDELITY_HIGH, FIDELITY_LOW
from ..problems.constrained import GardnerProblem
from ..problems.synthetic import (
    ForresterProblem,
    pedagogical_high,
    pedagogical_low,
)

__all__ = ["abl1_fusion", "abl2_msp_scatter", "abl3_gamma"]


def abl1_fusion(seed: int = 0, n_low: int = 50, n_high: int = 14) -> dict:
    """NARGP vs AR1 posterior accuracy on the pedagogical pair.

    The pedagogical high fidelity is a *nonlinear* transform of the low
    fidelity (``(x - sqrt(2)) * f_l^2``), which a linear ``rho * f_l +
    delta`` model cannot express — the returned RMSEs quantify the gap
    that motivates the paper's §3.1.
    """
    rng = np.random.default_rng(seed)
    x_low = np.sort(rng.random(n_low))[:, None]
    x_high = np.sort(rng.random(n_high))[:, None]
    y_low, y_high = pedagogical_low(x_low), pedagogical_high(x_high)
    grid = np.linspace(0, 1, 200)[:, None]
    truth = pedagogical_high(grid)

    nargp = NARGP(n_restarts=3, n_mc_samples=128).fit(
        x_low, y_low, x_high, y_high, rng=rng
    )
    nargp_mu, _ = nargp.predict(grid, rng=rng)
    ar1 = AR1(n_restarts=3).fit(x_low, y_low, x_high, y_high, rng=rng)
    ar1_mu, _ = ar1.predict(grid)
    return {
        "nargp_rmse": float(np.sqrt(np.mean((nargp_mu - truth) ** 2))),
        "ar1_rmse": float(np.sqrt(np.mean((ar1_mu - truth) ** 2))),
        "ar1_rho": ar1.rho,
    }


def abl2_msp_scatter(
    seed: int = 0, n_repeats: int = 3, budget: float = 12.0
) -> dict:
    """Incumbent-biased vs uniform MSP scatter in the full BO loop.

    Runs the proposed optimizer on the constrained Gardner problem with
    (a) the paper's 10%/40% incumbent fractions and (b) fractions forced
    to zero. Returns the mean best objective of each arm.
    """
    def run(biased: bool, repeat: int) -> float:
        optimizer = MFBOptimizer(
            GardnerProblem(),
            budget=budget,
            n_init_low=10,
            n_init_high=4,
            msp_starts=60,
            msp_polish=2,
            n_restarts=1,
            seed=seed + 31 * repeat,
        )
        if not biased:
            optimizer.acq_optimizer.frac_around_low = 0.0
            optimizer.acq_optimizer.frac_around_high = 0.0
        return optimizer.run().best_objective

    biased = [run(True, r) for r in range(n_repeats)]
    uniform = [run(False, r) for r in range(n_repeats)]
    return {
        "biased_mean": float(np.mean(biased)),
        "uniform_mean": float(np.mean(uniform)),
        "biased_all": biased,
        "uniform_all": uniform,
    }


def abl3_gamma(
    gammas=(1e-4, 1e-2, 1.0),
    seed: int = 0,
    budget: float = 10.0,
) -> dict:
    """Fidelity-selection threshold sweep on the Forrester problem.

    Larger gamma promotes candidates to the expensive simulator sooner
    (eq. 11 fires more often), so the high-fidelity evaluation share
    should increase monotonically with gamma.
    """
    rows = {}
    for gamma in gammas:
        result = MFBOptimizer(
            ForresterProblem(),
            budget=budget,
            n_init_low=8,
            n_init_high=3,
            gamma=gamma,
            msp_starts=40,
            msp_polish=2,
            n_restarts=1,
            seed=seed,
        ).run()
        n_low = result.history.n_evaluations(FIDELITY_LOW)
        n_high = result.history.n_evaluations(FIDELITY_HIGH)
        rows[gamma] = {
            "n_low": n_low,
            "n_high": n_high,
            "high_fraction": n_high / max(n_low + n_high, 1),
            "best_objective": result.best_objective,
        }
    return rows
