"""Tests for repro.spice AC small-signal analysis against closed forms."""

import numpy as np
import pytest

from repro.spice import (
    MOSFET,
    VCCS,
    VCVS,
    Capacitor,
    Circuit,
    CurrentSource,
    Diode,
    Inductor,
    Resistor,
    VoltageSource,
    phase_margin,
    solve_ac,
    solve_dc,
    unity_gain_frequency,
)


def _rc_lowpass(r=1e3, c=1e-9):
    circuit = Circuit("rc")
    circuit.add(VoltageSource("V1", "in", "0", ac=1.0))
    circuit.add(Resistor("R1", "in", "out", r))
    circuit.add(Capacitor("C1", "out", "0", c))
    return circuit


class TestGoldenTransferFunctions:
    """Engine output vs. analytic H(jw) at rtol <= 1e-6 over 6 decades."""

    def test_rc_lowpass_magnitude_and_phase(self):
        r, c = 1e3, 1e-9
        circuit = _rc_lowpass(r, c)
        solution = solve_ac(circuit, 1e2, 1e8, n_points=121)
        omega = 2.0 * np.pi * solution.frequencies
        h_ref = 1.0 / (1.0 + 1j * omega * r * c)
        h = solution.voltage("out")
        np.testing.assert_allclose(np.abs(h), np.abs(h_ref), rtol=1e-6)
        np.testing.assert_allclose(
            np.angle(h), np.angle(h_ref), rtol=1e-6, atol=1e-12
        )

    def test_rc_corner_frequency(self):
        r, c = 1e3, 1e-9
        f_corner = 1.0 / (2.0 * np.pi * r * c)
        solution = solve_ac(
            _rc_lowpass(r, c), f_corner, f_corner, n_points=1
        )
        assert solution.gain_db("out")[0] == pytest.approx(
            -10.0 * np.log10(2.0), rel=1e-9
        )
        assert solution.phase_deg("out")[0] == pytest.approx(-45.0, rel=1e-9)

    def test_rlc_divider_magnitude_and_phase(self):
        # series R-L-C driven by 1 V, output across the capacitor:
        # H = 1 / (1 - w^2 L C + j w R C)
        r, l, c = 50.0, 1e-6, 1e-9
        circuit = Circuit("rlc")
        circuit.add(VoltageSource("V1", "in", "0", ac=1.0))
        circuit.add(Resistor("R1", "in", "mid", r))
        circuit.add(Inductor("L1", "mid", "out", l))
        circuit.add(Capacitor("C1", "out", "0", c))
        solution = solve_ac(circuit, 1e3, 1e9, n_points=241)
        omega = 2.0 * np.pi * solution.frequencies
        h_ref = 1.0 / (1.0 - omega**2 * l * c + 1j * omega * r * c)
        h = solution.voltage("out")
        np.testing.assert_allclose(np.abs(h), np.abs(h_ref), rtol=1e-6)
        np.testing.assert_allclose(
            np.unwrap(np.angle(h)), np.unwrap(np.angle(h_ref)),
            rtol=1e-6, atol=1e-9,
        )

    def test_inductor_branch_current(self):
        # RL series: I = V / (R + j w L)
        r, l = 100.0, 1e-3
        circuit = Circuit("rl")
        circuit.add(VoltageSource("V1", "in", "0", ac=1.0))
        circuit.add(Resistor("R1", "in", "mid", r))
        circuit.add(Inductor("L1", "mid", "0", l))
        solution = solve_ac(circuit, 1e1, 1e7, n_points=121)
        omega = 2.0 * np.pi * solution.frequencies
        i_ref = 1.0 / (r + 1j * omega * l)
        np.testing.assert_allclose(
            solution.branch_current("L1"), i_ref, rtol=1e-6
        )

    def test_current_source_excitation(self):
        # 1 A AC into R || C: V = 1 / (1/R + j w C)
        r, c = 2e3, 1e-12
        circuit = Circuit("norton")
        circuit.add(CurrentSource("I1", "0", "out", ac=1.0))
        circuit.add(Resistor("R1", "out", "0", r))
        circuit.add(Capacitor("C1", "out", "0", c))
        solution = solve_ac(circuit, 1e3, 1e9, n_points=61)
        omega = 2.0 * np.pi * solution.frequencies
        v_ref = 1.0 / (1.0 / r + 1j * omega * c)
        np.testing.assert_allclose(
            solution.voltage("out"), v_ref, rtol=1e-6
        )

    def test_source_phase_rotates_response(self):
        circuit = _rc_lowpass()
        circuit.element("V1").ac_phase = 90.0
        solution = solve_ac(circuit, 1e3, 1e3, n_points=1)
        reference = solve_ac(_rc_lowpass(), 1e3, 1e3, n_points=1)
        np.testing.assert_allclose(
            solution.voltage("out"),
            reference.voltage("out") * np.exp(1j * np.pi / 2),
            rtol=1e-9,
        )


class TestControlledSourceAndDeviceStamps:
    def test_vcvs_ideal_gain(self):
        circuit = Circuit("e")
        circuit.add(VoltageSource("V1", "in", "0", ac=1.0))
        circuit.add(VCVS("E1", "out", "0", "in", "0", gain=12.5))
        circuit.add(Resistor("RL", "out", "0", 1e3))
        solution = solve_ac(circuit, 1.0, 1e6, n_points=13)
        np.testing.assert_allclose(solution.magnitude("out"), 12.5, rtol=1e-9)

    def test_vccs_single_pole(self):
        # gm into R || C: classic single-pole voltage amplifier
        gm, r, c = 1e-3, 1e5, 1e-12
        circuit = Circuit("g")
        circuit.add(VoltageSource("V1", "in", "0", ac=1.0))
        circuit.add(VCCS("G1", "0", "out", "in", "0", gm))
        circuit.add(Resistor("R1", "out", "0", r))
        circuit.add(Capacitor("C1", "out", "0", c))
        solution = solve_ac(circuit, 1e2, 1e8, n_points=121)
        omega = 2.0 * np.pi * solution.frequencies
        h_ref = gm * r / (1.0 + 1j * omega * r * c)
        np.testing.assert_allclose(
            solution.voltage("out"), h_ref, rtol=1e-6
        )

    def test_mosfet_common_source_gain(self):
        # |A| = gm (ro || RD) using the operating-point gm/gds
        circuit = Circuit("cs")
        circuit.add(VoltageSource("VDD", "vdd", "0", dc=3.0))
        circuit.add(VoltageSource("VG", "g", "0", dc=1.2, ac=1.0))
        rd = 10e3
        circuit.add(Resistor("RD", "vdd", "d", rd))
        device = circuit.add(
            MOSFET("M1", "d", "g", "0", w=10e-6, l=1e-6,
                   kp=2e-4, vth=0.5, lambda_=0.05)
        )
        op = solve_dc(circuit)
        params = device.operating_point(op.x)
        ro = 1.0 / params["gds"]
        expected = -params["gm"] * (ro * rd / (ro + rd))
        solution = solve_ac(circuit, 1.0, 10.0, n_points=2, x_op=op.x)
        gain = solution.voltage("d")[0]
        assert gain.real == pytest.approx(expected, rel=1e-6)
        assert gain.imag == pytest.approx(0.0, abs=1e-12)

    def test_diode_small_signal_resistance(self):
        # biased diode in parallel with an AC current probe: V = I * rd
        circuit = Circuit("d")
        circuit.add(CurrentSource("Ibias", "0", "a", dc=1e-3, ac=1.0))
        diode = circuit.add(Diode("D1", "a", "0"))
        op = solve_dc(circuit)
        v_op = op.voltage("a")
        _, g_d = diode.current_and_conductance(v_op)
        solution = solve_ac(circuit, 1e3, 1e3, n_points=1, x_op=op.x)
        assert solution.magnitude("a")[0] == pytest.approx(
            1.0 / g_d, rel=1e-6
        )

    def test_waveform_source_has_no_ac_excitation_by_default(self):
        circuit = _rc_lowpass()
        circuit.element("V1").ac = 0.0
        solution = solve_ac(circuit, 1e3, 1e6, n_points=13)
        np.testing.assert_allclose(solution.magnitude("out"), 0.0, atol=1e-15)


class TestDerivedMetrics:
    """UGF / phase-margin extraction on an analytic two-pole system."""

    #: DC gain and pole frequencies of the analytic reference.
    A0 = 1e4
    P1 = 1e3
    P2 = 1e7

    def _two_pole_response(self, frequencies):
        s = 1j * frequencies  # normalized: poles given in hertz
        return self.A0 / ((1.0 + s / self.P1) * (1.0 + s / self.P2))

    def _closed_form_crossover(self):
        # |H(f_u)| = 1 solved exactly for the two-pole magnitude
        from scipy.optimize import brentq

        def excess(f):
            return self.A0 / np.sqrt(
                (1.0 + (f / self.P1) ** 2) * (1.0 + (f / self.P2) ** 2)
            ) - 1.0

        f_unity = brentq(excess, self.P1, 1e12)
        pm = 180.0 - np.degrees(
            np.arctan(f_unity / self.P1) + np.arctan(f_unity / self.P2)
        )
        return f_unity, pm

    def test_unity_gain_frequency_matches_closed_form(self):
        frequencies = np.logspace(1, 10, 901)
        response = self._two_pole_response(frequencies)
        f_unity, _ = self._closed_form_crossover()
        assert unity_gain_frequency(frequencies, response) == pytest.approx(
            f_unity, rel=1e-3
        )

    def test_phase_margin_matches_closed_form(self):
        frequencies = np.logspace(1, 10, 901)
        response = self._two_pole_response(frequencies)
        _, pm_ref = self._closed_form_crossover()
        assert phase_margin(frequencies, response) == pytest.approx(
            pm_ref, abs=0.05
        )

    def test_phase_margin_ignores_inverting_sign(self):
        # An inverting measurement path shifts the absolute phase by 180
        # degrees but must not change the margin.
        frequencies = np.logspace(1, 10, 901)
        response = self._two_pole_response(frequencies)
        assert phase_margin(frequencies, -response) == pytest.approx(
            phase_margin(frequencies, response), abs=1e-9
        )

    def test_no_crossing_returns_nan(self):
        frequencies = np.logspace(1, 6, 51)
        flat = np.full(51, 0.5 + 0.0j)  # always below unity
        assert np.isnan(unity_gain_frequency(frequencies, flat))
        assert np.isnan(phase_margin(frequencies, flat))
        loud = np.full(51, 10.0 + 0.0j)  # never crosses down
        assert np.isnan(unity_gain_frequency(frequencies, loud))

    def test_two_pole_circuit_end_to_end(self):
        # the same two-pole shape built from VCCS stages and measured
        # through ACSolution's metric accessors
        circuit = Circuit("twopole")
        circuit.add(VoltageSource("Vin", "in", "0", ac=1.0))
        circuit.add(VCCS("G1", "0", "p1", "in", "0", 1e-3))
        circuit.add(Resistor("R1", "p1", "0", 1e5))
        circuit.add(Capacitor("C1", "p1", "0", 1.59155e-12))
        circuit.add(VCCS("G2", "0", "p2", "p1", "0", 1e-3))
        circuit.add(Resistor("R2", "p2", "0", 1e3))
        circuit.add(Capacitor("C2", "p2", "0", 1.59155e-12))
        solution = solve_ac(circuit, 1e2, 1e10, n_points=401)
        a0 = 1e-3 * 1e5 * 1e-3 * 1e3
        assert solution.dc_gain_db("p2") == pytest.approx(
            20.0 * np.log10(a0), abs=1e-4
        )
        f_unity = solution.unity_gain_frequency("p2")
        pm = solution.phase_margin("p2")
        p1 = 1.0 / (2.0 * np.pi * 1e5 * 1.59155e-12)
        p2 = 1.0 / (2.0 * np.pi * 1e3 * 1.59155e-12)
        pm_ref = 180.0 - np.degrees(
            np.arctan(f_unity / p1) + np.arctan(f_unity / p2)
        )
        assert pm == pytest.approx(pm_ref, abs=0.1)


class TestSolveAcValidation:
    def test_rejects_nonpositive_start(self):
        with pytest.raises(ValueError):
            solve_ac(_rc_lowpass(), 0.0, 1e6)

    def test_rejects_reversed_sweep(self):
        with pytest.raises(ValueError):
            solve_ac(_rc_lowpass(), 1e6, 1e3)

    def test_default_grid_density(self):
        solution = solve_ac(_rc_lowpass(), 1e2, 1e8)
        assert solution.frequencies.size == 121  # 6 decades x 20 + 1
        assert solution.frequencies[0] == pytest.approx(1e2)
        assert solution.frequencies[-1] == pytest.approx(1e8)

    def test_ground_voltage_is_zero(self):
        solution = solve_ac(_rc_lowpass(), 1e3, 1e6, n_points=7)
        np.testing.assert_array_equal(solution.voltage("0"), 0.0)

    def test_unsupported_element_raises(self):
        from repro.spice.elements import Element

        class Weird(Element):  # DC/transient only: no compile_ac
            def compile(self, slot):
                return lambda x, jac, res, ctx: None

        circuit = _rc_lowpass()
        circuit.add(Weird("X1", ("in",)))
        with pytest.raises(NotImplementedError, match="Weird"):
            solve_ac(circuit, 1e3, 1e6, n_points=3, x_op=np.zeros(3))
