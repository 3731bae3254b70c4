"""Circuit elements and their compiled MNA stamps.

Every element contributes to the Newton system ``J dx = -r`` at the
candidate solution ``x``. A solver backend compiles each element once,
when the backend is built:

* :meth:`Element.compile` asks ``slot(row, col)`` for the flat workspace
  position of every matrix entry the element can touch in DC or
  transient analysis and returns a stamp function that closes over
  those integer slots and the element's parameters. The slots an
  element requests *are* its sparsity pattern.
* :meth:`Element.compile_ac` does the same for the small-signal
  ``G``/``C`` matrices and the excitation phasor.
* :meth:`Element.compile_accept` returns the companion-state update a
  reactive element runs once a transient step is accepted.

A Newton stamp is called as ``stamp(x, jac, res, ctx)``. ``x`` holds the
unknowns as Python floats followed by a ground ``0.0``, so node index
``-1`` (ground) reads zero. ``jac`` and ``res`` are flat Python-float
workspaces indexed by matrix slot and by row; the backends pass one
list for both, residual rows first. Their last entry is a dump slot:
ground rows and columns write there, and the backend discards it.
``ctx`` is the :class:`StampContext` of the solve point. AC stamps are
called as ``stamp(x_op, cond, susc, rhs, gmin)`` over the same layout.

The residual convention is Kirchhoff's current law per non-ground node —
``r[k]`` accumulates the current *leaving* node ``k`` — plus one
branch-voltage equation per voltage-defined element (voltage sources and
inductors).

Reactive elements use companion models: backward-Euler for the first
transient step and startup, trapezoidal afterwards, with per-element
state carried in the :class:`StampContext`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "StampContext",
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
]

#: Exponent clamp for the diode/subthreshold exponential.
_EXP_LIMIT = 40.0


def _floats(x) -> list:
    """``x`` as Python floats plus a trailing ground ``0.0`` (index -1)."""
    values = x.tolist()
    values.append(0.0)
    return values


@dataclass(frozen=True, eq=False)
class StampContext:
    """One solve point: everything a stamp reads besides the unknowns.

    A context is immutable, so what is derived from it is computed once
    and shared by every Newton iteration at that point: ``prev`` (the
    previous timepoint as Python floats, ground last) and, through
    :meth:`waveform_value`, the values of time-dependent sources.
    Transient analysis builds one context per timepoint; ``states`` is
    the one member carried, and mutated, from step to step.

    Attributes
    ----------
    mode:
        ``"dc"`` or ``"tran"``.
    time:
        Current simulation time (transient only).
    dt:
        Current step size (transient only).
    method:
        Integration method, ``"be"`` or ``"trap"``.
    x_prev:
        Converged solution of the previous timepoint.
    states:
        Mutable per-element companion state, keyed by element name.
    gmin:
        Convergence conductance added across nonlinear junctions.
    """

    mode: str = "dc"
    time: float = 0.0
    dt: float = 0.0
    method: str = "be"
    x_prev: np.ndarray | None = None
    states: dict = field(default_factory=dict)
    gmin: float = 1e-12
    prev: list | None = field(init=False, repr=False)
    _waveforms: dict = field(init=False, repr=False)

    def __post_init__(self):
        prev = None if self.x_prev is None else _floats(self.x_prev)
        object.__setattr__(self, "prev", prev)
        object.__setattr__(self, "_waveforms", {})

    def waveform_value(self, waveform) -> float:
        """``waveform`` at this point (``t = 0`` outside transient)."""
        value = self._waveforms.get(waveform)
        if value is None:
            t = self.time if self.mode == "tran" else 0.0
            value = self._waveforms[waveform] = float(waveform(t))
        return value


def _limited_exp(arg: np.ndarray | float):
    """Exponential with linear extrapolation above ``_EXP_LIMIT``.

    Returns ``(value, derivative)`` of a C1 extension of ``exp`` that
    keeps Newton iterations finite for large junction voltages.
    """
    if arg <= _EXP_LIMIT:
        value = np.exp(arg)
        return value, value
    peak = np.exp(_EXP_LIMIT)
    return peak * (1.0 + (arg - _EXP_LIMIT)), peak


def _pairwise(slot, i1: int, i2: int) -> tuple[int, int, int, int]:
    """Slots of the two-terminal block ``(i1,i1), (i1,i2), (i2,i1), (i2,i2)``."""
    return slot(i1, i1), slot(i1, i2), slot(i2, i1), slot(i2, i2)


def _branch(slot, i1: int, i2: int, bi: int) -> tuple[int, int, int, int]:
    """Slots of a branch incidence ``(i1,bi), (i2,bi), (bi,i1), (bi,i2)``."""
    return slot(i1, bi), slot(i2, bi), slot(bi, i1), slot(bi, i2)


class Element:
    """Base class for all circuit elements."""

    #: True for elements whose current is an MNA unknown.
    needs_branch_current: bool = False

    def __init__(self, name: str, nodes: tuple[str, ...]):
        if not name:
            raise ValueError("element name must be non-empty")
        self.name = name
        self.nodes = tuple(nodes)
        self.node_indices: tuple[int, ...] = ()
        self.branch_index: int | None = None

    # ------------------------------------------------------------------
    def compile(self, slot):
        """Return the Newton stamp ``stamp(x, jac, res, ctx)``.

        ``slot(row, col)`` gives the workspace position of one matrix
        entry (the dump slot for ground). The stamp adds the element's
        Jacobian and residual contribution at ``x``. Parameters are read
        here, once: a backend keeps the values its circuit had when it
        was built.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement compile"
        )

    def compile_ac(self, slot):
        """Return the small-signal stamp ``stamp(x_op, cond, susc, rhs, gmin)``.

        The AC MNA system is ``(G + j omega C) X = B``: the stamp adds
        the element's frequency-independent conductances to ``cond``
        (``G``), the omega-proportional part to ``susc`` (``C``) and its
        excitation phasor to the complex ``rhs`` (``B``). Nonlinear
        devices stamp their linearization at the DC operating point
        ``x_op``. By default the returned stamp raises, so an element
        without a small-signal model still serves DC and transient.
        """
        name = type(self).__name__

        def unsupported(x_op, cond, susc, rhs, gmin):
            raise NotImplementedError(
                f"{name} does not support AC small-signal analysis"
            )

        return unsupported

    def compile_accept(self):
        """Return the companion-state update ``accept(x, ctx)``, or ``None``.

        Transient analysis calls it with the solution ``x`` of each
        accepted step; only elements with companion state need one.
        """
        return None

    def validate(self, system_size: int) -> None:
        """Sanity check after elaboration."""
        if self.needs_branch_current and self.branch_index is None:
            raise RuntimeError(f"{self.name}: branch index not assigned")

    def card(self) -> str:
        """One-line SPICE-style netlist card."""
        return f"* {self.name} {' '.join(self.nodes)}"


# ----------------------------------------------------------------------
# waveforms
# ----------------------------------------------------------------------
class SineWave:
    """``offset + amplitude * sin(2 pi freq (t - delay) + phase)``."""

    def __init__(
        self,
        offset: float = 0.0,
        amplitude: float = 1.0,
        frequency: float = 1.0,
        delay: float = 0.0,
        phase: float = 0.0,
    ):
        if frequency <= 0:
            raise ValueError("frequency must be positive")
        self.offset = float(offset)
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)
        self.delay = float(delay)
        self.phase = float(phase)

    def __call__(self, t: float) -> float:
        if t < self.delay:
            return self.offset
        return self.offset + self.amplitude * np.sin(
            2.0 * np.pi * self.frequency * (t - self.delay) + self.phase
        )


class PulseWave:
    """SPICE PULSE waveform: v1 -> v2 with rise/fall/width/period."""

    def __init__(
        self,
        v1: float,
        v2: float,
        delay: float = 0.0,
        rise: float = 1e-9,
        fall: float = 1e-9,
        width: float = 1e-6,
        period: float = 2e-6,
    ):
        if rise <= 0 or fall <= 0:
            raise ValueError("rise and fall must be positive")
        if period <= rise + fall + width:
            raise ValueError("period must exceed rise + width + fall")
        self.v1, self.v2 = float(v1), float(v2)
        self.delay = float(delay)
        self.rise, self.fall = float(rise), float(fall)
        self.width, self.period = float(width), float(period)

    def __call__(self, t: float) -> float:
        if t < self.delay:
            return self.v1
        tau = (t - self.delay) % self.period
        if tau < self.rise:
            return self.v1 + (self.v2 - self.v1) * tau / self.rise
        tau -= self.rise
        if tau < self.width:
            return self.v2
        tau -= self.width
        if tau < self.fall:
            return self.v2 + (self.v1 - self.v2) * tau / self.fall
        return self.v1


# ----------------------------------------------------------------------
# linear two-terminal elements
# ----------------------------------------------------------------------
class Resistor(Element):
    """Linear resistor."""

    def __init__(self, name: str, n1: str, n2: str, resistance: float):
        if resistance <= 0:
            raise ValueError(f"{name}: resistance must be positive")
        super().__init__(name, (n1, n2))
        self.resistance = float(resistance)

    def compile(self, slot):
        i1, i2 = self.node_indices
        s11, s12, s21, s22 = _pairwise(slot, i1, i2)
        g = 1.0 / self.resistance

        def stamp(x, jac, res, ctx):
            current = g * (x[i1] - x[i2])
            res[i1] += current
            res[i2] -= current
            jac[s11] += g
            jac[s12] -= g
            jac[s21] -= g
            jac[s22] += g

        return stamp

    def compile_ac(self, slot):
        s11, s12, s21, s22 = _pairwise(slot, *self.node_indices)
        g = 1.0 / self.resistance

        def stamp(x_op, cond, susc, rhs, gmin):
            cond[s11] += g
            cond[s12] -= g
            cond[s21] -= g
            cond[s22] += g

        return stamp

    def card(self):
        return f"{self.name} {self.nodes[0]} {self.nodes[1]} {self.resistance:g}"


class Capacitor(Element):
    """Linear capacitor (open in DC, companion model in transient)."""

    def __init__(self, name: str, n1: str, n2: str, capacitance: float):
        if capacitance <= 0:
            raise ValueError(f"{name}: capacitance must be positive")
        super().__init__(name, (n1, n2))
        self.capacitance = float(capacitance)

    def _companion(self):
        """``companion(x, ctx) -> (geq, current)`` of the integration rule."""
        i1, i2 = self.node_indices
        capacitance, name = self.capacitance, self.name

        def companion(x, ctx):
            prev = ctx.prev
            dv = (x[i1] - x[i2]) - (prev[i1] - prev[i2])
            if ctx.method == "trap":
                geq = 2.0 * capacitance / ctx.dt
                return geq, geq * dv - ctx.states.get(name, 0.0)
            geq = capacitance / ctx.dt  # backward Euler
            return geq, geq * dv

        return companion

    def compile(self, slot):
        i1, i2 = self.node_indices
        s11, s12, s21, s22 = _pairwise(slot, i1, i2)
        companion = self._companion()

        def stamp(x, jac, res, ctx):
            if ctx.mode == "dc":
                return
            geq, current = companion(x, ctx)
            res[i1] += current
            res[i2] -= current
            jac[s11] += geq
            jac[s12] -= geq
            jac[s21] -= geq
            jac[s22] += geq

        return stamp

    def compile_accept(self):
        companion, name = self._companion(), self.name

        def accept(x, ctx):
            ctx.states[name] = companion(x, ctx)[1]

        return accept

    def compile_ac(self, slot):
        # Admittance j omega C: pure susceptance.
        s11, s12, s21, s22 = _pairwise(slot, *self.node_indices)
        c = self.capacitance

        def stamp(x_op, cond, susc, rhs, gmin):
            susc[s11] += c
            susc[s12] -= c
            susc[s21] -= c
            susc[s22] += c

        return stamp

    def card(self):
        return f"{self.name} {self.nodes[0]} {self.nodes[1]} {self.capacitance:g}"


class Inductor(Element):
    """Linear inductor (short in DC); its current is an MNA unknown."""

    needs_branch_current = True

    def __init__(self, name: str, n1: str, n2: str, inductance: float):
        if inductance <= 0:
            raise ValueError(f"{name}: inductance must be positive")
        super().__init__(name, (n1, n2))
        self.inductance = float(inductance)

    def compile(self, slot):
        i1, i2 = self.node_indices
        bi = self.branch_index
        s1b, s2b, sb1, sb2 = _branch(slot, i1, i2, bi)
        sbb = slot(bi, bi)
        inductance = self.inductance

        def stamp(x, jac, res, ctx):
            current = x[bi]
            # KCL: branch current leaves n1, enters n2.
            res[i1] += current
            res[i2] -= current
            jac[s1b] += 1.0
            jac[s2b] -= 1.0
            v_now = x[i1] - x[i2]
            if ctx.mode == "dc":
                res[bi] += v_now  # v = 0 (DC short)
                jac[sb1] += 1.0
                jac[sb2] -= 1.0
                return
            prev = ctx.prev
            i_prev = prev[bi]
            if ctx.method == "trap":
                v_prev = prev[i1] - prev[i2]
                req = 2.0 * inductance / ctx.dt
                res[bi] += v_now + v_prev - req * (current - i_prev)
            else:
                req = inductance / ctx.dt
                res[bi] += v_now - req * (current - i_prev)
            jac[sb1] += 1.0
            jac[sb2] -= 1.0
            jac[sbb] -= req

        return stamp

    def compile_ac(self, slot):
        # Branch equation v1 - v2 - j omega L i = 0.
        i1, i2 = self.node_indices
        bi = self.branch_index
        s1b, s2b, sb1, sb2 = _branch(slot, i1, i2, bi)
        sbb = slot(bi, bi)
        inductance = self.inductance

        def stamp(x_op, cond, susc, rhs, gmin):
            cond[s1b] += 1.0
            cond[s2b] -= 1.0
            cond[sb1] += 1.0
            cond[sb2] -= 1.0
            susc[sbb] -= inductance

        return stamp

    def card(self):
        return f"{self.name} {self.nodes[0]} {self.nodes[1]} {self.inductance:g}"


# ----------------------------------------------------------------------
# sources
# ----------------------------------------------------------------------
class _Source(Element):
    """Independent source: DC value, optional time waveform, AC phasor.

    ``ac`` / ``ac_phase`` set the small-signal excitation phasor used by
    :func:`repro.spice.solve_ac` (magnitude in volts or amperes, phase
    in degrees); they do not affect DC or transient analysis.
    """

    def __init__(self, name: str, n_pos: str, n_neg: str, dc: float = 0.0,
                 waveform=None, ac: float = 0.0, ac_phase: float = 0.0):
        super().__init__(name, (n_pos, n_neg))
        self.dc = float(dc)
        self.waveform = waveform
        self.ac = float(ac)
        self.ac_phase = float(ac_phase)

    @property
    def ac_value(self) -> complex:
        """Small-signal excitation phasor."""
        return self.ac * np.exp(1j * np.deg2rad(self.ac_phase))

    def value(self, ctx: StampContext) -> float:
        """Source value at the solve point ``ctx``."""
        if self.waveform is None:
            return self.dc
        return ctx.waveform_value(self.waveform)

    def card(self):
        return f"{self.name} {self.nodes[0]} {self.nodes[1]} DC {self.dc:g}"


class VoltageSource(_Source):
    """Independent voltage source with optional time waveform."""

    needs_branch_current = True

    def compile(self, slot):
        i1, i2 = self.node_indices
        bi = self.branch_index
        s1b, s2b, sb1, sb2 = _branch(slot, i1, i2, bi)
        dc, waveform = self.dc, self.waveform

        def stamp(x, jac, res, ctx):
            current = x[bi]
            res[i1] += current
            res[i2] -= current
            jac[s1b] += 1.0
            jac[s2b] -= 1.0
            value = dc if waveform is None else ctx.waveform_value(waveform)
            res[bi] += x[i1] - x[i2] - value
            jac[sb1] += 1.0
            jac[sb2] -= 1.0

        return stamp

    def compile_ac(self, slot):
        bi = self.branch_index
        s1b, s2b, sb1, sb2 = _branch(slot, *self.node_indices, bi)
        value = self.ac_value

        def stamp(x_op, cond, susc, rhs, gmin):
            cond[s1b] += 1.0
            cond[s2b] -= 1.0
            cond[sb1] += 1.0
            cond[sb2] -= 1.0
            rhs[bi] += value

        return stamp


class CurrentSource(_Source):
    """Independent current source (positive current flows n+ -> n-)."""

    def compile(self, slot):
        i1, i2 = self.node_indices
        dc, waveform = self.dc, self.waveform

        def stamp(x, jac, res, ctx):
            current = dc if waveform is None else ctx.waveform_value(waveform)
            res[i1] += current
            res[i2] -= current

        return stamp

    def compile_ac(self, slot):
        # KCL convention: residual accumulates current leaving the node,
        # so the source phasor enters the rhs with the opposite sign.
        i1, i2 = self.node_indices
        value = self.ac_value

        def stamp(x_op, cond, susc, rhs, gmin):
            rhs[i1] -= value
            rhs[i2] += value

        return stamp


class VCVS(Element):
    """Voltage-controlled voltage source (SPICE ``E`` element)."""

    needs_branch_current = True

    def __init__(self, name: str, n_pos: str, n_neg: str,
                 ctrl_pos: str, ctrl_neg: str, gain: float):
        super().__init__(name, (n_pos, n_neg, ctrl_pos, ctrl_neg))
        self.gain = float(gain)

    def _slots(self, slot):
        i1, i2, c1, c2 = self.node_indices
        bi = self.branch_index
        return (*_branch(slot, i1, i2, bi), slot(bi, c1), slot(bi, c2))

    def compile(self, slot):
        i1, i2, c1, c2 = self.node_indices
        bi = self.branch_index
        s1b, s2b, sb1, sb2, sbc1, sbc2 = self._slots(slot)
        gain = self.gain

        def stamp(x, jac, res, ctx):
            current = x[bi]
            res[i1] += current
            res[i2] -= current
            jac[s1b] += 1.0
            jac[s2b] -= 1.0
            res[bi] += x[i1] - x[i2] - gain * (x[c1] - x[c2])
            jac[sb1] += 1.0
            jac[sb2] -= 1.0
            jac[sbc1] -= gain
            jac[sbc2] += gain

        return stamp

    def compile_ac(self, slot):
        s1b, s2b, sb1, sb2, sbc1, sbc2 = self._slots(slot)
        gain = self.gain

        def stamp(x_op, cond, susc, rhs, gmin):
            cond[s1b] += 1.0
            cond[s2b] -= 1.0
            cond[sb1] += 1.0
            cond[sb2] -= 1.0
            cond[sbc1] -= gain
            cond[sbc2] += gain

        return stamp

    def card(self):
        return f"{self.name} {' '.join(self.nodes)} {self.gain:g}"


class VCCS(Element):
    """Voltage-controlled current source (SPICE ``G`` element)."""

    def __init__(self, name: str, n_pos: str, n_neg: str,
                 ctrl_pos: str, ctrl_neg: str, transconductance: float):
        super().__init__(name, (n_pos, n_neg, ctrl_pos, ctrl_neg))
        self.transconductance = float(transconductance)

    def _slots(self, slot):
        i1, i2, c1, c2 = self.node_indices
        return slot(i1, c1), slot(i1, c2), slot(i2, c1), slot(i2, c2)

    def compile(self, slot):
        i1, i2, c1, c2 = self.node_indices
        s11, s12, s21, s22 = self._slots(slot)
        gm = self.transconductance

        def stamp(x, jac, res, ctx):
            current = gm * (x[c1] - x[c2])
            res[i1] += current
            res[i2] -= current
            jac[s11] += gm
            jac[s12] -= gm
            jac[s21] -= gm
            jac[s22] += gm

        return stamp

    def compile_ac(self, slot):
        s11, s12, s21, s22 = self._slots(slot)
        gm = self.transconductance

        def stamp(x_op, cond, susc, rhs, gmin):
            cond[s11] += gm
            cond[s12] -= gm
            cond[s21] -= gm
            cond[s22] += gm

        return stamp

    def card(self):
        return f"{self.name} {' '.join(self.nodes)} {self.transconductance:g}"


# ----------------------------------------------------------------------
# nonlinear devices
# ----------------------------------------------------------------------
def _shockley(v: float, isat: float, nvt: float) -> tuple[float, float]:
    """Diode current and conductance at junction voltage ``v``."""
    value, derivative = _limited_exp(v / nvt)
    return isat * (value - 1.0), isat * derivative / nvt


class Diode(Element):
    """Shockley diode with exponent limiting and gmin."""

    def __init__(self, name: str, anode: str, cathode: str,
                 saturation_current: float = 1e-14, emission: float = 1.0,
                 thermal_voltage: float = 0.02585):
        if saturation_current <= 0 or emission <= 0 or thermal_voltage <= 0:
            raise ValueError(f"{name}: diode parameters must be positive")
        super().__init__(name, (anode, cathode))
        self.saturation_current = float(saturation_current)
        self.emission = float(emission)
        self.thermal_voltage = float(thermal_voltage)

    def current_and_conductance(self, v: float) -> tuple[float, float]:
        return _shockley(
            v, self.saturation_current, self.emission * self.thermal_voltage
        )

    def compile(self, slot):
        i1, i2 = self.node_indices
        s11, s12, s21, s22 = _pairwise(slot, i1, i2)
        isat, nvt = self.saturation_current, self.emission * self.thermal_voltage

        def stamp(x, jac, res, ctx):
            v = x[i1] - x[i2]
            current, g = _shockley(v, isat, nvt)
            g += ctx.gmin
            current += ctx.gmin * v
            res[i1] += current
            res[i2] -= current
            jac[s11] += g
            jac[s12] -= g
            jac[s21] -= g
            jac[s22] += g

        return stamp

    def compile_ac(self, slot):
        # Small-signal junction conductance at the DC operating point.
        i1, i2 = self.node_indices
        s11, s12, s21, s22 = _pairwise(slot, i1, i2)
        isat, nvt = self.saturation_current, self.emission * self.thermal_voltage

        def stamp(x_op, cond, susc, rhs, gmin):
            _, g = _shockley(x_op[i1] - x_op[i2], isat, nvt)
            g += gmin
            cond[s11] += g
            cond[s12] -= g
            cond[s21] -= g
            cond[s22] += g

        return stamp

    def card(self):
        return (
            f"{self.name} {self.nodes[0]} {self.nodes[1]} "
            f"IS={self.saturation_current:g} N={self.emission:g}"
        )


def _square_law(vov: float, vds: float, beta: float, lam: float):
    """Level-1 ``(ids, gm, gds)`` for ``vds >= 0`` in the NMOS frame."""
    if vov <= 0.0:
        return 0.0, 0.0, 0.0
    if vds < vov:  # triode
        ids = beta * (vov * vds - 0.5 * vds * vds) * (1 + lam * vds)
        gm = beta * vds * (1 + lam * vds)
        gds = (
            beta * (vov - vds) * (1 + lam * vds)
            + beta * (vov * vds - 0.5 * vds * vds) * lam
        )
    else:  # saturation
        ids = 0.5 * beta * vov * vov * (1 + lam * vds)
        gm = beta * vov * (1 + lam * vds)
        gds = 0.5 * beta * vov * vov * lam
    return ids, gm, gds


def _mos_eval(vd, vg, vs, pmos: bool, vth: float, beta: float, lam: float):
    """Drain current (drain->source positive) from circuit-frame voltages.

    Returns ``(ids, gm, gds, swapped)`` where the derivatives are with
    respect to the *effective* (possibly swapped) terminals.
    """
    if pmos:
        # Analyze the PMOS in the NMOS frame by mirroring voltages.
        vd, vg, vs = -vd, -vg, -vs
    swapped = vd < vs
    if swapped:
        vd, vs = vs, vd
    ids, gm, gds = _square_law(vg - vs - vth, vd - vs, beta, lam)
    return ids, gm, gds, swapped


class MOSFET(Element):
    """Level-1 (square-law) MOSFET with channel-length modulation.

    Terminals are (drain, gate, source); the body is tied to the source
    (no body effect, which suits the single-well testbenches here).
    ``vds < 0`` is handled by internally swapping drain and source, so
    the device conducts symmetrically.

    Parameters
    ----------
    kp:
        Process transconductance ``k' = mu Cox`` in A/V^2.
    vth:
        Threshold voltage (positive for NMOS, negative for PMOS).
    lambda_:
        Channel-length modulation in 1/V.
    w, l:
        Channel width/length in metres.
    """

    def __init__(self, name: str, drain: str, gate: str, source: str,
                 polarity: str = "nmos", w: float = 1e-6, l: float = 1e-6,
                 kp: float = 2e-4, vth: float = 0.5, lambda_: float = 0.05):
        if polarity not in ("nmos", "pmos"):
            raise ValueError(f"{name}: polarity must be 'nmos' or 'pmos'")
        if w <= 0 or l <= 0 or kp <= 0:
            raise ValueError(f"{name}: w, l and kp must be positive")
        super().__init__(name, (drain, gate, source))
        self.polarity = polarity
        self.w, self.l = float(w), float(l)
        self.kp = float(kp)
        self.vth = float(vth)
        self.lambda_ = float(lambda_)

    @property
    def beta(self) -> float:
        return self.kp * self.w / self.l

    def _ids(self, vgs: float, vds: float) -> tuple[float, float, float]:
        """Square-law drain current and (gm, gds) for vds >= 0 (NMOS frame)."""
        return _square_law(vgs - abs(self.vth), vds, self.beta, self.lambda_)

    def _model(self):
        return self.polarity == "pmos", abs(self.vth), self.beta, self.lambda_

    def operating_point(self, x: np.ndarray) -> dict:
        """Named small-signal quantities at the solution ``x``."""
        d, g, s = (0.0 if i < 0 else float(x[i]) for i in self.node_indices)
        ids, gm, gds, _ = _mos_eval(d, g, s, *self._model())
        return {"ids": ids, "gm": gm, "gds": gds}

    def _orientations(self, slot):
        """Residual rows and conductance slots per drain/source role.

        Index ``swapped`` of the result gives ``(eff_d, eff_s)`` plus
        the slots of ``(eff_d, g), (eff_d, eff_d), (eff_d, eff_s),
        (eff_s, g), (eff_s, eff_d), (eff_s, eff_s)``; both roles are
        requested, since they may flip between Newton iterations.
        """
        d, g, s = self.node_indices
        dg, dd, ds, sg, sd, ss = (
            slot(d, g), slot(d, d), slot(d, s), slot(s, g), slot(s, d), slot(s, s)
        )
        return (d, s, dg, dd, ds, sg, sd, ss), (s, d, sg, ss, sd, dg, ds, dd)

    def compile(self, slot):
        d, g, s = self.node_indices
        orientations = self._orientations(slot)
        _, _, _, sdd, sds, _, ssd, sss = orientations[False]
        model = self._model()
        sign = -1.0 if model[0] else 1.0

        def stamp(x, jac, res, ctx):
            vd, vs = x[d], x[s]
            ids, gm, gds, swapped = _mos_eval(vd, x[g], vs, *model)
            eff_d, eff_s, kdg, kdd, kds, ksg, ksd, kss = orientations[swapped]
            current = sign * ids
            # KCL: current flows from effective drain to effective source.
            res[eff_d] += current
            res[eff_s] -= current
            # In the mirrored/swapped frame, d(current)/d(node voltage)
            # picks up the same sign twice (once for the current sign,
            # once for the mirrored voltages), so the conductances stamp
            # positively.
            jac[kdg] += gm
            jac[kdd] += gds
            jac[kds] -= gm + gds
            jac[ksg] -= gm
            jac[ksd] -= gds
            jac[kss] += gm + gds
            # gmin across drain-source for convergence
            gmin = ctx.gmin
            leak = gmin * (vd - vs)
            res[d] += leak
            res[s] -= leak
            jac[sdd] += gmin
            jac[sds] -= gmin
            jac[ssd] -= gmin
            jac[sss] += gmin

        return stamp

    def compile_ac(self, slot):
        """Small-signal gm/gds stamps at the DC operating point.

        The conductance pattern matches the DC Jacobian of the Newton
        stamp evaluated at ``x_op`` — that Jacobian *is* the device
        linearization (the level-1 model carries no charge storage, so
        the susceptance contribution is zero).
        """
        d, g, s = self.node_indices
        orientations = self._orientations(slot)
        _, _, _, sdd, sds, _, ssd, sss = orientations[False]
        model = self._model()

        def stamp(x_op, cond, susc, rhs, gmin):
            _, gm, gds, swapped = _mos_eval(x_op[d], x_op[g], x_op[s], *model)
            _, _, kdg, kdd, kds, ksg, ksd, kss = orientations[swapped]
            cond[kdg] += gm
            cond[kdd] += gds
            cond[kds] -= gm + gds
            cond[ksg] -= gm
            cond[ksd] -= gds
            cond[kss] += gm + gds
            cond[sdd] += gmin
            cond[sds] -= gmin
            cond[ssd] -= gmin
            cond[sss] += gmin

        return stamp

    def card(self):
        return (
            f"{self.name} {self.nodes[0]} {self.nodes[1]} {self.nodes[2]} "
            f"{self.polarity.upper()} W={self.w:g} L={self.l:g}"
        )
