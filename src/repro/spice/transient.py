"""Fixed-step transient analysis.

The first step (and only the first) uses backward Euler to damp the
artificial startup transient; subsequent steps use the trapezoidal rule,
matching standard SPICE practice. Each timepoint is solved with the same
damped Newton iteration as the DC analysis, warm-started from the
previous timepoint.

Fixed stepping (rather than LTE-controlled adaptive stepping) keeps the
fidelity knob of the paper's power-amplifier experiment exact: the
*simulated duration* is the only difference between the coarse and fine
testbench evaluations, so their cost ratio is deterministic.
"""

from __future__ import annotations

import numpy as np

from .backend import resolve_backend
from .dc import ConvergenceError, solve_dc
from .elements import StampContext
from .netlist import Circuit
from .waveform import Waveform

__all__ = ["TransientResult", "simulate_transient"]


class TransientResult:
    """Time-series result of a transient run."""

    def __init__(self, circuit: Circuit, times: np.ndarray, states: np.ndarray):
        self.circuit = circuit
        self.times = times
        self.states = states  # (n_steps, n_unknowns)

    def voltage(self, node: str) -> Waveform:
        """Waveform of one node voltage."""
        idx = self.circuit.node_index(node)
        values = (
            np.zeros(self.times.size) if idx < 0 else self.states[:, idx]
        )
        return Waveform(self.times, values, name=f"v({node})")

    def current(self, element_name: str) -> Waveform:
        """Waveform of a voltage-source / inductor branch current."""
        element = self.circuit.element(element_name)
        if element.branch_index is None:
            raise TypeError(f"{element_name!r} has no branch current")
        return Waveform(
            self.times,
            self.states[:, element.branch_index],
            name=f"i({element_name})",
        )


def _solve_timepoint(
    circuit: Circuit,
    solver,
    x_guess: np.ndarray,
    ctx: StampContext,
    max_iterations: int,
    abstol: float,
    reltol: float,
) -> np.ndarray:
    x = x_guess.copy()
    for _ in range(max_iterations):
        try:
            delta = solver.solve_newton(x, ctx)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"{circuit.name}: singular Jacobian at t={ctx.time:.4g}s"
            ) from exc
        step = float(np.abs(delta).max())
        if step > 1.0:
            delta *= 1.0 / step
        x = x + delta
        if step < abstol + reltol * float(np.abs(x).max()):
            return x
    raise ConvergenceError(
        f"{circuit.name}: timepoint t={ctx.time:.4g}s did not converge"
    )


def simulate_transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    t_start: float = 0.0,
    use_ic: bool = False,
    x0: np.ndarray | None = None,
    max_iterations: int = 100,
    abstol: float = 1e-9,
    reltol: float = 1e-6,
    gmin: float = 1e-12,
    backend="auto",
) -> TransientResult:
    """Run a fixed-step transient simulation.

    Parameters
    ----------
    circuit:
        The netlist to simulate.
    t_stop:
        End time in seconds.
    dt:
        Fixed step size in seconds.
    t_start:
        Start time (results include ``t_start`` itself).
    use_ic:
        Start from the all-zeros state instead of the DC operating point
        (SPICE ``uic``). Useful for oscillators.
    x0:
        Explicit initial state, overriding both options above.
    backend:
        Linear-solver backend (``"dense"``, ``"sparse"``, ``"auto"`` or
        an instance); shared between the initial DC solve and every
        timepoint, so the circuit is compiled once per run — and, on
        the sparse backend, linear circuits pay one numeric
        factorization per integration method.

    Returns
    -------
    TransientResult
        States at ``t_start, t_start + dt, ..., >= t_stop``.
    """
    if t_stop <= t_start:
        raise ValueError("t_stop must exceed t_start")
    if dt <= 0:
        raise ValueError("dt must be positive")
    circuit._elaborate_if_needed()
    solver = resolve_backend(circuit, backend)
    if x0 is not None:
        x = np.asarray(x0, dtype=float).copy()
    elif use_ic:
        x = np.zeros(circuit.size)
    else:
        x = solve_dc(circuit, gmin=gmin, backend=solver).x
    # tolerate float ratios a hair above an integer (e.g. 1e-3 / 1e-6)
    n_steps = max(1, int(np.ceil((t_stop - t_start) / dt - 1e-9)))
    times = t_start + dt * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, circuit.size))
    states[0] = x

    companion_states: dict = {}
    for k in range(1, n_steps + 1):
        ctx = StampContext(
            mode="tran",
            time=float(times[k]),
            dt=dt,
            method="be" if k == 1 else "trap",
            x_prev=states[k - 1],
            states=companion_states,
            gmin=gmin,
        )
        x = _solve_timepoint(
            circuit, solver, states[k - 1], ctx, max_iterations, abstol,
            reltol
        )
        states[k] = x
        solver.accept(x, ctx)
    return TransientResult(circuit, times, states)
