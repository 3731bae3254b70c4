"""AC small-signal analysis: complex MNA swept over log-spaced frequencies.

Every element is linearized at a DC operating point (nonlinear devices
stamp the conductances of their local linearization, reactive elements
their ``j omega`` admittances) and the resulting complex system

.. math:: (G + j \\omega C)\\, X(\\omega) = B

is solved for all sweep frequencies through the selected linear-solver
backend (:mod:`repro.spice.backend`). With the excitation phasor of the
input source set to 1, a node phasor *is* the transfer function to that
node, which is how the frequency-domain benchmark circuits (op-amp gain
/ unity-gain frequency / phase margin) are measured.

The assembled matrices are frequency independent, so a sweep costs one
stamp pass plus the per-frequency solves: the dense backend batches
frequencies through LAPACK in bounded-memory chunks, the sparse backend
factorizes the fixed CSC structure once per frequency.
"""

from __future__ import annotations

import numpy as np

from .backend import resolve_backend
from .dc import solve_dc
from .netlist import Circuit

__all__ = [
    "ACSolution",
    "solve_ac",
    "unity_gain_frequency",
    "phase_margin",
]

#: Magnitude floor that keeps dB conversions finite.
_MAG_FLOOR = 1e-300


def solve_ac(
    circuit: Circuit,
    f_start: float,
    f_stop: float,
    n_points: int | None = None,
    points_per_decade: int = 20,
    x_op: np.ndarray | None = None,
    gmin: float = 1e-12,
    backend="auto",
) -> "ACSolution":
    """Sweep the linearized circuit over log-spaced frequencies.

    Parameters
    ----------
    circuit:
        The netlist; independent sources with a non-zero ``ac`` magnitude
        provide the excitation.
    f_start, f_stop:
        Sweep limits in hertz, ``0 < f_start <= f_stop``.
    n_points:
        Total number of sweep points. Defaults to ``points_per_decade``
        per decade (at least two).
    x_op:
        DC operating point to linearize at; computed with
        :func:`repro.spice.solve_dc` when omitted.
    backend:
        Linear-solver backend (``"dense"``, ``"sparse"``, ``"auto"`` or
        an instance); shared with the operating-point solve. The dense
        backend chunks the frequency batch so long sweeps of large
        circuits stay within a bounded memory footprint.
    """
    if f_start <= 0:
        raise ValueError("f_start must be positive")
    if f_stop < f_start:
        raise ValueError("f_stop must be >= f_start")
    n_decades = np.log10(f_stop / f_start)
    if n_points is None:
        n_points = max(2, int(np.ceil(points_per_decade * n_decades)) + 1)
    if n_points < 1 or (n_points < 2 and f_stop > f_start):
        raise ValueError("n_points too small for the requested sweep")
    frequencies = np.logspace(
        np.log10(f_start), np.log10(f_stop), n_points
    )
    circuit._elaborate_if_needed()
    solver = resolve_backend(circuit, backend)
    if x_op is None:
        x_op = solve_dc(circuit, gmin=gmin, backend=solver).x
    else:
        x_op = np.asarray(x_op, dtype=float)
    omega = 2.0 * np.pi * frequencies
    try:
        x = solver.solve_ac_sweep(omega, x_op, gmin)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"{circuit.name}: singular AC system — check for floating "
            "nodes in the small-signal circuit"
        ) from exc
    return ACSolution(circuit, frequencies, x, x_op)


# ----------------------------------------------------------------------
# derived metrics on raw responses
# ----------------------------------------------------------------------
def unity_gain_frequency(
    frequencies: np.ndarray, response: np.ndarray
) -> float:
    """First frequency where ``|H|`` falls through 1, or ``nan``.

    The crossing is interpolated linearly in ``log10(f)`` vs ``dB`` —
    exact for the straight-line segments of a Bode magnitude plot.
    """
    frequencies = np.asarray(frequencies, dtype=float)
    magnitude_db = 20.0 * np.log10(
        np.maximum(np.abs(np.asarray(response)), _MAG_FLOOR)
    )
    if magnitude_db.size == 0 or magnitude_db[0] < 0.0:
        return float("nan")
    below = np.flatnonzero(magnitude_db < 0.0)
    if below.size == 0:
        return float("nan")
    k = int(below[0])
    log_f = np.log10(frequencies)
    slope = (magnitude_db[k] - magnitude_db[k - 1]) / (
        log_f[k] - log_f[k - 1]
    )
    return float(10.0 ** (log_f[k - 1] - magnitude_db[k - 1] / slope))


def phase_margin(frequencies: np.ndarray, response: np.ndarray) -> float:
    """Phase margin in degrees, or ``nan`` without a unity-gain crossing.

    ``PM = 180 + phase(f_ugf)`` with the phase unwrapped and normalized
    by the nearest multiple of 180 degrees at the first sweep point, so
    an inverting measurement path does not show up as a spurious
    180-degree offset while genuine low-frequency rolloff still counts.
    """
    f_unity = unity_gain_frequency(frequencies, response)
    if not np.isfinite(f_unity):
        return float("nan")
    frequencies = np.asarray(frequencies, dtype=float)
    phase = np.rad2deg(np.unwrap(np.angle(np.asarray(response))))
    phase = phase - 180.0 * np.round(phase[0] / 180.0)
    phase_at_unity = float(
        np.interp(np.log10(f_unity), np.log10(frequencies), phase)
    )
    return 180.0 + phase_at_unity


class ACSolution:
    """Swept small-signal response with named accessors.

    With the excitation source's ``ac`` magnitude set to 1, node phasors
    are transfer functions and the Bode metrics below read directly.
    """

    def __init__(
        self,
        circuit: Circuit,
        frequencies: np.ndarray,
        x: np.ndarray,
        x_op: np.ndarray,
    ):
        self.circuit = circuit
        self.frequencies = frequencies
        self.x = x  # (n_frequencies, n_unknowns) complex
        self.x_op = x_op

    # ------------------------------------------------------------------
    def voltage(self, node: str) -> np.ndarray:
        """Complex voltage phasor of ``node`` across the sweep."""
        idx = self.circuit.node_index(node)
        if idx < 0:
            return np.zeros(self.frequencies.size, dtype=complex)
        return self.x[:, idx]

    def branch_current(self, element_name: str) -> np.ndarray:
        """Complex branch-current phasor of a voltage-defined element."""
        element = self.circuit.element(element_name)
        if element.branch_index is None:
            raise TypeError(f"{element_name!r} has no branch current")
        return self.x[:, element.branch_index]

    def magnitude(self, node: str) -> np.ndarray:
        """``|V(node)|`` across the sweep."""
        return np.abs(self.voltage(node))

    def phase_deg(self, node: str, unwrap: bool = True) -> np.ndarray:
        """Phase of ``V(node)`` in degrees (unwrapped by default)."""
        angle = np.angle(self.voltage(node))
        if unwrap:
            angle = np.unwrap(angle)
        return np.rad2deg(angle)

    def gain_db(self, node: str) -> np.ndarray:
        """``20 log10 |V(node)|`` across the sweep."""
        return 20.0 * np.log10(np.maximum(self.magnitude(node), _MAG_FLOOR))

    # ------------------------------------------------------------------
    def dc_gain_db(self, node: str) -> float:
        """Gain at the lowest sweep frequency in dB."""
        return float(self.gain_db(node)[0])

    def unity_gain_frequency(self, node: str) -> float:
        """Frequency where the gain to ``node`` crosses 0 dB (hertz)."""
        return unity_gain_frequency(self.frequencies, self.voltage(node))

    def phase_margin(self, node: str) -> float:
        """Phase margin of the response at ``node`` in degrees."""
        return phase_margin(self.frequencies, self.voltage(node))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ACSolution({self.circuit.name!r}, "
            f"{self.frequencies.size} points, "
            f"{self.frequencies[0]:g}-{self.frequencies[-1]:g} Hz)"
        )
