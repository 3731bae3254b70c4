"""A small MNA circuit simulator: the paper's "simulation" substrate."""

from .ac import (
    ACSolution,
    phase_margin,
    solve_ac,
    unity_gain_frequency,
)
from .backend import (
    SPARSE_AUTO_THRESHOLD,
    DenseBackend,
    SparseBackend,
    resolve_backend,
)
from .dc import ConvergenceError, DCSolution, solve_dc
from .elements import (
    MOSFET,
    VCCS,
    VCVS,
    Capacitor,
    CurrentSource,
    Diode,
    Element,
    Inductor,
    PulseWave,
    Resistor,
    SineWave,
    StampContext,
    VoltageSource,
)
from .netlist import Circuit
from .transient import TransientResult, simulate_transient
from .waveform import Waveform, fourier_coefficients, thd, thd_db, to_dbm

__all__ = [
    "Circuit",
    "Element",
    "Resistor",
    "Capacitor",
    "Inductor",
    "VoltageSource",
    "CurrentSource",
    "VCVS",
    "VCCS",
    "Diode",
    "MOSFET",
    "SineWave",
    "PulseWave",
    "StampContext",
    "solve_dc",
    "DCSolution",
    "ConvergenceError",
    "DenseBackend",
    "SparseBackend",
    "resolve_backend",
    "SPARSE_AUTO_THRESHOLD",
    "solve_ac",
    "ACSolution",
    "unity_gain_frequency",
    "phase_margin",
    "simulate_transient",
    "TransientResult",
    "Waveform",
    "fourier_coefficients",
    "thd",
    "thd_db",
    "to_dbm",
]
