"""Linear auto-regressive two-fidelity model (Kennedy & O'Hagan 2000).

The paper's eq. (7): ``f_h(x) = rho * f_l(x) + delta(x)`` with a scalar
regression coefficient ``rho`` and an independent GP discrepancy
``delta``. Included as the linear-fusion baseline the paper contrasts its
nonlinear NARGP model against (§3.1), and used by the ``abl1`` ablation
benchmark.
"""

from __future__ import annotations

import numpy as np

from ..gp.gpr import GPR
from ..obs import span
from ..rng import ensure_rng

__all__ = ["AR1"]

#: Number of ``rho`` values tried on the grid around the OLS seed.
_RHO_GRID_SIZE = 21


class AR1:
    """Kennedy-O'Hagan linear two-fidelity co-kriging model.

    ``rho`` is estimated by maximizing the discrepancy-GP marginal
    likelihood over a 1-D grid refined around the ordinary-least-squares
    seed, which is robust for the small high-fidelity datasets BO
    produces.
    """

    def __init__(self, n_restarts: int = 3):
        self.n_restarts = int(n_restarts)
        self.rho: float | None = None
        self.low_model: GPR | None = None
        self.delta_model: GPR | None = None

    def fit(
        self,
        x_low: np.ndarray,
        y_low: np.ndarray,
        x_high: np.ndarray,
        y_high: np.ndarray,
        rng: np.random.Generator | None = None,
        low_model: GPR | None = None,
    ) -> "AR1":
        """Train the low-fidelity GP, estimate ``rho`` and fit ``delta``.

        Parameters
        ----------
        low_model:
            An already-trained low-fidelity :class:`~repro.gp.GPR` to
            reuse (the BO loop fits the low GP once per iteration and
            shares it here, as with :class:`repro.mf.NARGP`). When
            omitted a fresh GP is fit on ``(x_low, y_low)``.
        """
        rng = ensure_rng(rng)
        x_low = np.atleast_2d(np.asarray(x_low, dtype=float))
        x_high = np.atleast_2d(np.asarray(x_high, dtype=float))
        y_high = np.asarray(y_high, dtype=float).ravel()
        if x_low.shape[1] != x_high.shape[1]:
            raise ValueError(
                "low- and high-fidelity inputs must share dimensionality"
            )

        if low_model is not None:
            self.low_model = low_model
        else:
            self.low_model = GPR()
            self.low_model.fit(
                x_low, y_low, n_restarts=self.n_restarts, rng=rng
            )
        mu_low = self.low_model.predict_mean(x_high)

        rho_seed = self._ols_rho(mu_low, y_high)
        best_rho, best_nlml, best_model = rho_seed, np.inf, None
        half_width = max(1.0, abs(rho_seed))
        with span("ar1.fit", n_high=int(x_high.shape[0])):
            for rho in np.linspace(
                rho_seed - half_width, rho_seed + half_width, _RHO_GRID_SIZE
            ):
                residual = y_high - rho * mu_low
                model = GPR()
                model.fit(x_high, residual, n_restarts=1, rng=rng)
                nlml = model.nlml()
                if nlml < best_nlml:
                    best_rho, best_nlml, best_model = float(rho), nlml, model
        self.rho = best_rho
        self.delta_model = best_model
        return self

    @staticmethod
    def _ols_rho(mu_low: np.ndarray, y_high: np.ndarray) -> float:
        denom = float(mu_low @ mu_low)
        if denom < 1e-12:
            return 1.0
        return float(mu_low @ y_high) / denom

    def _require_fit(self) -> None:
        if self.low_model is None or self.delta_model is None:
            raise RuntimeError("model has not been fit")

    # ------------------------------------------------------------------
    # serialization (checkpoint format)
    # ------------------------------------------------------------------
    def state_dict(self, include_low: bool = True) -> dict:
        """JSON-serializable snapshot (see :meth:`repro.mf.NARGP.state_dict`)."""
        self._require_fit()
        return {
            "rho": float(self.rho),
            "delta": self.delta_model.state_dict(),
            "low": self.low_model.state_dict() if include_low else None,
        }

    def load_state_dict(self, state: dict, low_model: GPR | None = None) -> "AR1":
        """Restore a model saved with :meth:`state_dict`."""
        self.rho = float(state["rho"])
        if state.get("low") is not None:
            self.low_model = GPR().load_state_dict(state["low"])
        elif low_model is not None:
            self.low_model = low_model
        else:
            raise ValueError(
                "state has no low-fidelity model; pass low_model explicitly"
            )
        self.delta_model = GPR().load_state_dict(state["delta"])
        return self

    def predict_low(self, x_star: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Low-fidelity posterior ``(mu_l, var_l)``."""
        self._require_fit()
        return self.low_model.predict(x_star)

    def predict(
        self,
        x_star: np.ndarray,
        rng: np.random.Generator | None = None,
        n_mc_samples: int | None = None,
        z: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """High-fidelity posterior.

        ``rng``/``n_mc_samples``/``z`` are accepted for interface
        compatibility with :class:`repro.mf.NARGP`; the linear model is
        analytic so they are unused.
        """
        self._require_fit()
        mu_low, var_low = self.low_model.predict(x_star)
        mu_delta, var_delta = self.delta_model.predict(x_star)
        mu = self.rho * mu_low + mu_delta
        var = self.rho**2 * var_low + var_delta
        return mu, np.maximum(var, 1e-12)

    # The linear model's mean path is identical to its full prediction.
    predict_mean_path = predict
