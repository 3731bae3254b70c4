"""Tests for repro.spice.elements: stamps and waveforms.

The central property test checks every device's analytic Jacobian stamp
against a finite-difference of its residual stamp — the invariant the
Newton solver relies on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spice import (
    MOSFET,
    VCCS,
    VCVS,
    Capacitor,
    CurrentSource,
    DenseBackend,
    Diode,
    Inductor,
    PulseWave,
    Resistor,
    SineWave,
    StampContext,
    VoltageSource,
)


class _Lone:
    """Just enough circuit for a backend around one elaborated element."""

    def __init__(self, element, n):
        self.elements, self.size = [element], n

    def _elaborate_if_needed(self):
        pass


def assemble(element, x, ctx, n):
    """Dense Jacobian and residual of one element's compiled stamp."""
    return DenseBackend(_Lone(element, n)).assemble(x, ctx)


def check_jacobian_consistency(element, x, ctx, n, eps=1e-7):
    """Analytic J must equal d(residual)/dx."""
    jacobian, _ = assemble(element, x, ctx, n)
    numeric = np.zeros_like(jacobian)
    for j in range(n):
        xp, xm = x.copy(), x.copy()
        xp[j] += eps
        xm[j] -= eps
        _, rp = assemble(element, xp, ctx, n)
        _, rm = assemble(element, xm, ctx, n)
        numeric[:, j] = (rp - rm) / (2 * eps)
    np.testing.assert_allclose(jacobian, numeric, rtol=1e-4, atol=1e-6)


def elaborate(element, node_indices, branch_index=None):
    element.node_indices = node_indices
    element.branch_index = branch_index
    return element


class TestResistor:
    def test_stamp_values(self):
        r = elaborate(Resistor("R1", "a", "b", 2.0), (0, 1))
        jacobian, residual = assemble(r, np.array([3.0, 1.0]),
                                      StampContext(), 2)
        assert residual[0] == pytest.approx(1.0)   # (3-1)/2 leaves a
        assert residual[1] == pytest.approx(-1.0)
        assert jacobian[0, 0] == pytest.approx(0.5)

    def test_grounded_terminal(self):
        r = elaborate(Resistor("R1", "a", "0", 4.0), (0, -1))
        jacobian, residual = assemble(r, np.array([2.0]), StampContext(), 1)
        assert residual[0] == pytest.approx(0.5)
        assert jacobian[0, 0] == pytest.approx(0.25)

    def test_invalid_resistance(self):
        with pytest.raises(ValueError):
            Resistor("R", "a", "b", 0.0)

    def test_jacobian_consistency(self):
        r = elaborate(Resistor("R1", "a", "b", 3.3), (0, 1))
        check_jacobian_consistency(r, np.array([0.7, -0.2]),
                                   StampContext(), 2)


class TestDiode:
    def test_forward_current_positive(self):
        d = elaborate(Diode("D1", "a", "0"), (0, -1))
        current, conductance = d.current_and_conductance(0.7)
        assert current > 0 and conductance > 0

    def test_reverse_saturation(self):
        d = Diode("D1", "a", "0", saturation_current=1e-14)
        current, _ = d.current_and_conductance(-1.0)
        assert current == pytest.approx(-1e-14, rel=1e-6)

    def test_exp_limiting_stays_finite(self):
        d = Diode("D1", "a", "0")
        current, conductance = d.current_and_conductance(100.0)
        assert np.isfinite(current) and np.isfinite(conductance)

    def test_jacobian_consistency(self):
        d = elaborate(Diode("D1", "a", "b"), (0, 1))
        check_jacobian_consistency(
            d, np.array([0.55, 0.0]), StampContext(gmin=1e-12), 2
        )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Diode("D", "a", "b", saturation_current=-1.0)


class TestMOSFET:
    def make_nmos(self, **kw):
        defaults = dict(polarity="nmos", w=10e-6, l=1e-6, kp=2e-4,
                        vth=0.5, lambda_=0.05)
        defaults.update(kw)
        return elaborate(MOSFET("M1", "d", "g", "s", **defaults), (0, 1, 2))

    def test_cutoff(self):
        m = self.make_nmos()
        ids, gm, gds = m._ids(vgs=0.3, vds=1.0)
        assert ids == 0.0 and gm == 0.0

    def test_saturation_square_law(self):
        m = self.make_nmos(lambda_=0.0)
        ids, gm, _ = m._ids(vgs=1.0, vds=2.0)
        beta = 2e-4 * 10
        assert ids == pytest.approx(0.5 * beta * 0.5**2)
        assert gm == pytest.approx(beta * 0.5)

    def test_triode_region(self):
        m = self.make_nmos(lambda_=0.0)
        ids, _, gds = m._ids(vgs=1.5, vds=0.1)
        beta = 2e-4 * 10
        assert ids == pytest.approx(beta * (1.0 * 0.1 - 0.005))
        assert gds > 0

    def test_continuity_at_pinchoff(self):
        m = self.make_nmos()
        vov = 0.5
        below, *_ = m._ids(vgs=1.0, vds=vov - 1e-9)
        above, *_ = m._ids(vgs=1.0, vds=vov + 1e-9)
        assert below == pytest.approx(above, rel=1e-6)

    @pytest.mark.parametrize("voltages", [
        np.array([2.0, 1.2, 0.0]),    # saturation
        np.array([0.1, 1.5, 0.0]),    # triode
        np.array([2.0, 0.2, 0.0]),    # cutoff
        np.array([0.0, 1.2, 2.0]),    # swapped (vds < 0)
    ])
    def test_nmos_jacobian_consistency(self, voltages):
        m = self.make_nmos()
        check_jacobian_consistency(m, voltages,
                                   StampContext(gmin=1e-12), 3)

    @pytest.mark.parametrize("voltages", [
        np.array([0.5, 1.0, 3.0]),    # pmos conducting
        np.array([3.0, 1.0, 0.5]),    # pmos swapped
        np.array([0.5, 2.8, 3.0]),    # pmos cutoff
    ])
    def test_pmos_jacobian_consistency(self, voltages):
        m = elaborate(
            MOSFET("MP", "d", "g", "s", polarity="pmos", w=10e-6, l=1e-6,
                   kp=1e-4, vth=-0.5, lambda_=0.04),
            (0, 1, 2),
        )
        check_jacobian_consistency(m, voltages,
                                   StampContext(gmin=1e-12), 3)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-1, 3), st.floats(-1, 3), st.floats(-1, 3))
    def test_property_jacobian_everywhere(self, vd, vg, vs):
        m = self.make_nmos()
        voltages = np.array([vd, vg, vs])
        vov = vg - vs - 0.5
        vds = vd - vs
        # skip the non-smooth region boundaries where FD is ill-defined
        if abs(vov) < 1e-3 or abs(vds) < 1e-3 or abs(vds - vov) < 1e-3:
            return
        check_jacobian_consistency(m, voltages,
                                   StampContext(gmin=1e-12), 3)

    def test_invalid_polarity(self):
        with pytest.raises(ValueError):
            MOSFET("M", "d", "g", "s", polarity="cmos")


class TestSources:
    def test_voltage_source_branch_equation(self):
        v = elaborate(VoltageSource("V1", "p", "0", dc=5.0), (0, -1), 1)
        jacobian, residual = assemble(v, np.array([3.0, 0.1]),
                                      StampContext(), 2)
        assert residual[1] == pytest.approx(3.0 - 5.0)
        assert residual[0] == pytest.approx(0.1)  # branch current into KCL

    def test_voltage_source_waveform_in_transient(self):
        wave = SineWave(0.0, 2.0, 1.0)
        v = VoltageSource("V1", "p", "0", dc=9.0, waveform=wave)
        ctx = StampContext(mode="tran", time=0.25)
        assert v.value(ctx) == pytest.approx(2.0)
        assert v.value(StampContext(mode="dc")) == pytest.approx(0.0)

    def test_current_source_injection(self):
        i = elaborate(CurrentSource("I1", "a", "b", dc=1e-3), (0, 1))
        _, residual = assemble(i, np.zeros(2), StampContext(), 2)
        assert residual[0] == pytest.approx(1e-3)
        assert residual[1] == pytest.approx(-1e-3)

    def test_vcvs_jacobian_consistency(self):
        e = elaborate(VCVS("E1", "p", "n", "cp", "cn", gain=3.0),
                      (0, 1, 2, 3), 4)
        check_jacobian_consistency(
            e, np.array([1.0, 0.0, 0.5, 0.2, 0.01]), StampContext(), 5
        )

    def test_vccs_jacobian_consistency(self):
        g = elaborate(VCCS("G1", "p", "n", "cp", "cn", 1e-3),
                      (0, 1, 2, 3))
        check_jacobian_consistency(
            g, np.array([1.0, 0.0, 0.5, 0.2]), StampContext(), 4
        )


class TestReactive:
    def test_capacitor_open_in_dc(self):
        c = elaborate(Capacitor("C1", "a", "b", 1e-6), (0, 1))
        jacobian, residual = assemble(c, np.array([1.0, 0.0]),
                                      StampContext(mode="dc"), 2)
        assert np.all(jacobian == 0) and np.all(residual == 0)

    def test_capacitor_be_companion(self):
        c = elaborate(Capacitor("C1", "a", "0", 1e-6), (0, -1))
        ctx = StampContext(mode="tran", dt=1e-6, method="be",
                           x_prev=np.array([1.0]))
        jacobian, residual = assemble(c, np.array([2.0]), ctx, 1)
        geq = 1e-6 / 1e-6
        assert jacobian[0, 0] == pytest.approx(geq)
        assert residual[0] == pytest.approx(geq * 1.0)

    def test_capacitor_trap_uses_state(self):
        c = elaborate(Capacitor("C1", "a", "0", 1e-6), (0, -1))
        ctx = StampContext(mode="tran", dt=1e-6, method="trap",
                           x_prev=np.array([1.0]))
        ctx.states["C1"] = 5e-7  # previous current
        _, residual = assemble(c, np.array([1.0]), ctx, 1)
        assert residual[0] == pytest.approx(-5e-7)

    def test_capacitor_state_update(self):
        c = elaborate(Capacitor("C1", "a", "0", 1e-6), (0, -1))
        ctx = StampContext(mode="tran", dt=1e-6, method="be",
                           x_prev=np.array([0.0]))
        DenseBackend(_Lone(c, 1)).accept(np.array([1.0]), ctx)
        assert ctx.states["C1"] == pytest.approx(1.0)

    def test_inductor_short_in_dc(self):
        ind = elaborate(Inductor("L1", "a", "b", 1e-3), (0, 1), 2)
        jacobian, residual = assemble(
            ind, np.array([2.0, 1.0, 0.5]), StampContext(mode="dc"), 3
        )
        assert residual[2] == pytest.approx(1.0)  # v across must be 0
        assert residual[0] == pytest.approx(0.5)   # branch current in KCL

    def test_inductor_be_companion(self):
        ind = elaborate(Inductor("L1", "a", "0", 1e-3), (0, -1), 1)
        ctx = StampContext(mode="tran", dt=1e-6, method="be",
                           x_prev=np.array([0.0, 1.0]))
        jacobian, residual = assemble(ind, np.array([0.0, 1.0]), ctx, 2)
        # v - (L/dt)(i - i_prev) = 0 - 0 = 0
        assert residual[1] == pytest.approx(0.0)
        assert jacobian[1, 1] == pytest.approx(-1e-3 / 1e-6)

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            Capacitor("C", "a", "b", -1e-9)
        with pytest.raises(ValueError):
            Inductor("L", "a", "b", 0.0)


class TestWaveforms:
    def test_sine_basic(self):
        wave = SineWave(offset=1.0, amplitude=2.0, frequency=1.0)
        assert wave(0.0) == pytest.approx(1.0)
        assert wave(0.25) == pytest.approx(3.0)
        assert wave(0.75) == pytest.approx(-1.0)

    def test_sine_delay(self):
        wave = SineWave(offset=0.5, amplitude=1.0, frequency=1.0, delay=1.0)
        assert wave(0.5) == pytest.approx(0.5)  # held at offset before delay

    def test_pulse_levels(self):
        wave = PulseWave(v1=0.0, v2=5.0, rise=1e-9, fall=1e-9,
                         width=1e-6, period=2e-6)
        assert wave(0.5e-6) == pytest.approx(5.0)
        assert wave(1.5e-6) == pytest.approx(0.0)

    def test_pulse_periodicity(self):
        wave = PulseWave(0.0, 1.0, rise=1e-9, fall=1e-9,
                         width=1e-6, period=2e-6)
        assert wave(0.5e-6) == pytest.approx(wave(2.5e-6))

    def test_pulse_edges_interpolate(self):
        wave = PulseWave(0.0, 1.0, rise=1e-6, fall=1e-6,
                         width=1e-6, period=4e-6)
        assert wave(0.5e-6) == pytest.approx(0.5)

    def test_invalid_waveforms(self):
        with pytest.raises(ValueError):
            SineWave(frequency=0.0)
        with pytest.raises(ValueError):
            PulseWave(0, 1, rise=1e-9, fall=1e-9, width=3e-6, period=2e-6)
