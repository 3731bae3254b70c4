"""Multiple-starting-point (MSP) acquisition optimizer — paper §4.1.

The acquisition surface of a GP is multi-modal and extremely flat around
the incumbent (paper Fig. 2), so a single gradient run gets stuck. The
MSP strategy scatters many starting points, evaluates the acquisition in
batch, and polishes the most promising starts with L-BFGS-B.

Following §4.1, the scatter is *incumbent-biased*: by default 10% of the
starts are Gaussian perturbations of the low-fidelity incumbent ``tau_l``
and 40% of the high-fidelity incumbent ``tau_h``; the remainder is an
(approximately) space-filling uniform scatter. This is the detail that
lets the optimizer exploit the zero-gradient EI basin around the current
best point.

Everything operates on the unit cube ``[0, 1]^d``; callers map to
physical units through :class:`repro.design.DesignSpace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..design.sampling import gaussian_ball, latin_hypercube
from ..rng import ensure_rng
from .lbfgsb import lbfgsb

__all__ = ["MSPOptimizer", "MSPResult"]

#: Forward-difference step for the batched polish jacobian; matches the
#: sqrt(machine-eps) default scipy uses for its internal 2-point stencil.
_FD_STEP = float(np.sqrt(np.finfo(float).eps))


@dataclass
class MSPResult:
    """Outcome of one acquisition maximization."""

    x: np.ndarray
    value: float
    n_evaluations: int


class MSPOptimizer:
    """Maximize a batch acquisition function over the unit cube.

    Parameters
    ----------
    dim:
        Input dimensionality.
    n_starts:
        Total number of scattered starting points.
    n_polish:
        Number of top-ranked starts refined with L-BFGS-B.
    frac_around_low, frac_around_high:
        Fractions of the scatter placed around the low-/high-fidelity
        incumbents (paper: 0.10 and 0.40).
    ball_stddev:
        Standard deviation (unit-cube units) of the incumbent balls.
    rng:
        Random generator; pass one for reproducibility.
    """

    def __init__(
        self,
        dim: int,
        n_starts: int = 200,
        n_polish: int = 5,
        frac_around_low: float = 0.10,
        frac_around_high: float = 0.40,
        ball_stddev: float = 0.03,
        rng: np.random.Generator | None = None,
    ):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if n_polish < 0:
            raise ValueError("n_polish must be >= 0")
        if not 0.0 <= frac_around_low + frac_around_high <= 1.0:
            raise ValueError("incumbent fractions must sum to at most 1")
        self.dim = int(dim)
        self.n_starts = int(n_starts)
        self.n_polish = int(n_polish)
        self.frac_around_low = float(frac_around_low)
        self.frac_around_high = float(frac_around_high)
        self.ball_stddev = float(ball_stddev)
        self.rng = ensure_rng(rng)

    # ------------------------------------------------------------------
    def scatter(
        self,
        incumbent_low: np.ndarray | None = None,
        incumbent_high: np.ndarray | None = None,
    ) -> np.ndarray:
        """Generate the biased starting-point scatter.

        Incumbent fractions fall back to uniform scatter when the
        corresponding incumbent is unknown (e.g. before any feasible
        point exists).
        """
        n_low = (
            int(round(self.frac_around_low * self.n_starts))
            if incumbent_low is not None
            else 0
        )
        n_high = (
            int(round(self.frac_around_high * self.n_starts))
            if incumbent_high is not None
            else 0
        )
        n_uniform = max(self.n_starts - n_low - n_high, 0)
        pieces = [latin_hypercube(n_uniform, self.dim, self.rng)]
        if n_low > 0:
            pieces.append(
                gaussian_ball(incumbent_low, n_low, self.ball_stddev, self.rng)
            )
        if n_high > 0:
            pieces.append(
                gaussian_ball(incumbent_high, n_high, self.ball_stddev, self.rng)
            )
        return np.vstack(pieces)

    # ------------------------------------------------------------------
    def maximize(
        self,
        acquisition: Callable[[np.ndarray], np.ndarray],
        incumbent_low: np.ndarray | None = None,
        incumbent_high: np.ndarray | None = None,
        extra_starts: np.ndarray | None = None,
    ) -> MSPResult:
        """Maximize ``acquisition`` and return the best point found.

        Parameters
        ----------
        acquisition:
            Batch callable ``(n, d) -> (n,)``; larger is better.
        incumbent_low, incumbent_high:
            Unit-cube incumbents used to bias the scatter (§4.1).
        extra_starts:
            Additional caller-supplied starting points, e.g. the
            low-fidelity acquisition optimum ``x_l*`` that Algorithm 1
            feeds into the high-fidelity acquisition search.
        """
        starts = self.scatter(incumbent_low, incumbent_high)
        if extra_starts is not None:
            extra = np.atleast_2d(np.asarray(extra_starts, dtype=float))
            starts = np.vstack([starts, np.clip(extra, 0.0, 1.0)])
        values = np.asarray(acquisition(starts), dtype=float).ravel()
        values = np.where(np.isfinite(values), values, -np.inf)
        eval_counter = [starts.shape[0]]

        order = np.argsort(values)[::-1]
        best_idx = order[0]
        best_x = starts[best_idx].copy()
        best_value = float(values[best_idx])

        negative = self._make_polish_objective(acquisition, eval_counter)
        polish = order[: self.n_polish]
        if polish.size:
            lower, upper = np.zeros(self.dim), np.ones(self.dim)
            xs, negated, _ = lbfgsb(negative, starts[polish], lower, upper, 50)
            for x, value in zip(xs, negated):
                if np.isfinite(value) and -value > best_value:
                    best_value = float(-value)
                    best_x = np.clip(x, 0.0, 1.0)
        return MSPResult(
            x=best_x, value=best_value, n_evaluations=eval_counter[0]
        )

    # ------------------------------------------------------------------
    def _make_polish_objective(
        self,
        acquisition: Callable[[np.ndarray], np.ndarray],
        eval_counter: list[int],
    ) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
        """Negated acquisition with a **batched** finite-difference jacobian,
        for every polish search that asks in one lockstep round.

        scipy's derivative-free L-BFGS-B approximates the gradient with
        ``d + 1`` separate single-point calls to the objective; for a
        GP-backed acquisition each of those calls pays the full
        kernel-evaluation overhead. Here the forward-difference stencils
        of all ``j`` asking searches are evaluated as one
        ``(j (d + 1), d)`` batch, so one lockstep round of the polish
        costs a single batched acquisition call. ``eval_counter`` (a
        one-element list) accumulates the true number of acquisition
        evaluations across calls.
        """
        step = _FD_STEP
        coords = np.arange(self.dim)

        def negative_and_grad(
            x: np.ndarray, rows: np.ndarray
        ) -> tuple[np.ndarray, np.ndarray]:
            # Step backwards at the upper bound so the stencil stays in
            # the unit cube that callers guarantee.
            steps = np.where(x + step <= 1.0, step, -step)
            # Each search's stencil: its point, then one step per axis.
            offsets = np.zeros((x.shape[0], self.dim + 1, self.dim))
            offsets[:, 1 + coords, coords] = steps
            batch = (x[:, None, :] + offsets).reshape(-1, self.dim)
            eval_counter[0] += batch.shape[0]
            values = np.asarray(acquisition(batch), dtype=float).reshape(
                x.shape[0], self.dim + 1
            )
            f0 = values[:, 0]
            with np.errstate(invalid="ignore", over="ignore"):
                grad = (values[:, 1:] - f0[:, None]) / steps
            grad[~np.isfinite(grad)] = 0.0
            negated, negated_grad = -f0, -grad
            # A search at a point the acquisition cannot score gets a
            # prohibitive value and a zero gradient.
            failed = ~np.isfinite(f0)
            negated[failed] = 1e25
            negated_grad[failed] = 0.0
            return negated, negated_grad

        return negative_and_grad
