"""DC operating-point analysis: damped Newton with gmin stepping.

The solver assembles the nonlinear MNA residual/Jacobian from the
element stamps through a pluggable linear-solver backend (dense LAPACK
or sparse SuperLU, see :mod:`repro.spice.backend`) and iterates Newton
with an update-magnitude damper. If
plain Newton fails, gmin stepping retries with a large junction
conductance that is relaxed decade by decade — the standard SPICE
continuation strategy.
"""

from __future__ import annotations

import numpy as np

from .backend import resolve_backend
from .elements import StampContext
from .netlist import Circuit

__all__ = ["DCSolution", "solve_dc", "ConvergenceError"]


class ConvergenceError(RuntimeError):
    """Raised when the Newton iteration cannot converge."""


class DCSolution:
    """Converged operating point with named accessors."""

    def __init__(self, circuit: Circuit, x: np.ndarray, iterations: int):
        self.circuit = circuit
        self.x = x
        self.iterations = iterations

    def voltage(self, node: str) -> float:
        """Node voltage in volts."""
        return self.circuit.voltage(self.x, node)

    def current(self, element_name: str) -> float:
        """Branch current of a voltage source or inductor in amperes."""
        return self.circuit.branch_current(self.x, element_name)


def _newton(
    circuit: Circuit,
    solver,
    x0: np.ndarray,
    ctx: StampContext,
    max_iterations: int,
    abstol: float,
    reltol: float,
    max_step: float,
) -> tuple[np.ndarray, int]:
    """Damped Newton iteration; returns the solution and iteration count."""
    x = x0.copy()
    for iteration in range(1, max_iterations + 1):
        try:
            delta = solver.solve_newton(x, ctx)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"{circuit.name}: singular MNA Jacobian "
                f"(iteration {iteration}) — check for floating nodes"
            ) from exc
        step = float(np.abs(delta).max()) if delta.size else 0.0
        if step > max_step:  # damp huge nonlinear updates
            delta *= max_step / step
        x = x + delta
        if step < abstol + reltol * float(np.abs(x).max()):
            return x, iteration
    raise ConvergenceError(
        f"{circuit.name}: Newton did not converge in {max_iterations} "
        "iterations"
    )


def solve_dc(
    circuit: Circuit,
    x0: np.ndarray | None = None,
    max_iterations: int = 200,
    abstol: float = 1e-9,
    reltol: float = 1e-6,
    max_step: float = 1.0,
    gmin: float = 1e-12,
    backend="auto",
) -> DCSolution:
    """Find the DC operating point.

    Tries plain damped Newton first; on failure, performs gmin stepping
    from 1e-2 S decade by decade down to the target ``gmin`` (a target
    below 1e-12 S is one last step from 1e-12 S), warm-starting each
    level with the previous solution.

    ``backend`` selects the linear-solver backend (``"dense"``,
    ``"sparse"``, ``"auto"`` or an instance built by
    :func:`repro.spice.backend.resolve_backend`); ``"auto"`` switches to
    the sparse backend on large circuits.

    Raises
    ------
    ConvergenceError
        If even gmin stepping fails.
    """
    circuit._elaborate_if_needed()
    solver = resolve_backend(circuit, backend)
    n = circuit.size
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    ctx = StampContext(mode="dc", gmin=gmin)
    try:
        solution, iterations = _newton(
            circuit, solver, x, ctx, max_iterations, abstol, reltol, max_step
        )
        return DCSolution(circuit, solution, iterations)
    except ConvergenceError:
        pass
    # gmin stepping continuation
    total_iterations = 0
    gmin_ladder = [10.0 ** (-k) for k in range(2, 13)]
    if gmin < gmin_ladder[-1]:
        gmin_ladder.append(gmin)
    for level in gmin_ladder:
        ctx = StampContext(mode="dc", gmin=max(level, gmin))
        x, iterations = _newton(
            circuit, solver, x, ctx, max_iterations, abstol, reltol, max_step
        )
        total_iterations += iterations
        if level <= gmin:
            break
    return DCSolution(circuit, x, total_iterations)
