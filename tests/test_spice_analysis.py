"""Tests for repro.spice DC and transient analyses against closed forms."""

import numpy as np
import pytest

from repro.spice import (
    MOSFET,
    VCCS,
    VCVS,
    Capacitor,
    Circuit,
    ConvergenceError,
    CurrentSource,
    Diode,
    Inductor,
    Resistor,
    SineWave,
    VoltageSource,
    simulate_transient,
    solve_dc,
)
from repro.spice import dc as dc_module


class TestCircuitElaboration:
    def test_node_and_branch_counts(self):
        c = Circuit("t")
        c.add(VoltageSource("V1", "in", "0", dc=1.0))
        c.add(Resistor("R1", "in", "out", 1e3))
        c.add(Inductor("L1", "out", "0", 1e-3))
        assert c.n_nodes == 2
        assert c.n_branches == 2  # V source + inductor
        assert c.size == 4

    def test_duplicate_name_rejected(self):
        c = Circuit()
        c.add(Resistor("R1", "a", "0", 1.0))
        with pytest.raises(ValueError):
            c.add(Resistor("R1", "b", "0", 1.0))

    def test_ground_aliases(self):
        c = Circuit()
        c.add(Resistor("R1", "a", "gnd", 1.0))
        c.add(Resistor("R2", "a", "0", 1.0))
        assert c.n_nodes == 1

    def test_element_lookup(self):
        c = Circuit()
        r = c.add(Resistor("R1", "a", "0", 1.0))
        assert c.element("R1") is r
        with pytest.raises(KeyError):
            c.element("R9")

    def test_netlist_text(self):
        c = Circuit("demo")
        c.add(Resistor("R1", "a", "0", 1e3))
        text = c.netlist_text()
        assert "* demo" in text and "R1 a 0 1000" in text and ".end" in text

    def test_branch_current_type_check(self):
        c = Circuit()
        c.add(Resistor("R1", "a", "0", 1.0))
        with pytest.raises(TypeError):
            c.branch_current(np.zeros(1), "R1")


class TestDC:
    def test_voltage_divider(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", dc=10.0))
        c.add(Resistor("R1", "in", "mid", 1e3))
        c.add(Resistor("R2", "mid", "0", 3e3))
        solution = solve_dc(c)
        assert solution.voltage("mid") == pytest.approx(7.5)
        assert solution.current("V1") == pytest.approx(-10.0 / 4e3)

    def test_current_source_into_resistor(self):
        c = Circuit()
        c.add(CurrentSource("I1", "0", "a", dc=1e-3))
        c.add(Resistor("R1", "a", "0", 2e3))
        assert solve_dc(c).voltage("a") == pytest.approx(2.0)

    def test_diode_clamp(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", dc=5.0))
        c.add(Resistor("R1", "in", "d", 1e3))
        c.add(Diode("D1", "d", "0"))
        v = solve_dc(c).voltage("d")
        assert 0.6 < v < 0.8
        # KCL: resistor current equals diode current
        diode = c.element("D1")
        i_diode, _ = diode.current_and_conductance(v)
        assert i_diode == pytest.approx((5.0 - v) / 1e3, rel=1e-6)

    def test_nmos_saturation_operating_point(self):
        c = Circuit()
        c.add(VoltageSource("VDD", "vdd", "0", dc=5.0))
        c.add(VoltageSource("VG", "g", "0", dc=1.0))
        c.add(Resistor("RD", "vdd", "d", 1e3))
        c.add(MOSFET("M1", "d", "g", "0", w=10e-6, l=1e-6, kp=2e-4,
                     vth=0.5, lambda_=0.0))
        solution = solve_dc(c)
        ids = 0.5 * 2e-4 * 10 * 0.5**2  # saturation square law
        assert solution.voltage("d") == pytest.approx(5.0 - 1e3 * ids,
                                                      rel=1e-4)

    def test_pmos_mirror_branch(self):
        c = Circuit()
        c.add(VoltageSource("VDD", "vdd", "0", dc=3.0))
        c.add(MOSFET("MP", "d", "g", "vdd", polarity="pmos", w=10e-6,
                     l=1e-6, kp=1e-4, vth=-0.5, lambda_=0.0))
        c.add(VoltageSource("VG", "g", "0", dc=2.0))
        c.add(Resistor("RL", "d", "0", 1e3))
        solution = solve_dc(c)
        # vsg = 1.0, vov = 0.5 -> id = 0.5 * 1e-3 * 0.25 = 0.125 mA
        assert solution.voltage("d") == pytest.approx(0.125, rel=1e-2)

    def test_vcvs_amplifier(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", dc=0.1))
        c.add(VCVS("E1", "out", "0", "in", "0", gain=10.0))
        c.add(Resistor("RL", "out", "0", 1e3))
        assert solve_dc(c).voltage("out") == pytest.approx(1.0)

    def test_vccs_transconductor(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", dc=1.0))
        c.add(VCCS("G1", "0", "out", "in", "0", transconductance=1e-3))
        c.add(Resistor("RL", "out", "0", 1e3))
        assert solve_dc(c).voltage("out") == pytest.approx(1.0)

    def test_floating_node_raises(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", dc=1.0))
        c.add(Capacitor("C1", "in", "float", 1e-9))  # float is floating in DC
        with pytest.raises(ConvergenceError):
            solve_dc(c)

    def test_warm_start(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", dc=10.0))
        c.add(Resistor("R1", "in", "mid", 1e3))
        c.add(Resistor("R2", "mid", "0", 1e3))
        first = solve_dc(c)
        again = solve_dc(c, x0=first.x)
        assert again.iterations <= first.iterations

    def test_gmin_ladder_reaches_a_requested_gmin_below_its_last_rung(
        self, monkeypatch
    ):
        # Two stacked diodes fed by a current source defeat plain Newton
        # within 12 iterations; gmin stepping converges. The 1 TOhm leak
        # into a cut-off MOSFET (only gmin across its channel) puts the
        # final gmin in the answer: v(leak) = v(a) / (1 + R * gmin).
        c = Circuit("stacked-diodes")
        c.add(CurrentSource("I1", "0", "a", dc=1e-3))
        c.add(Diode("D1", "a", "b"))
        c.add(Diode("D2", "b", "0"))
        c.add(Resistor("RL", "a", "leak", 1e12))
        c.add(MOSFET("M1", "leak", "0", "0"))
        attempts = []
        newton = dc_module._newton

        def recording(circuit, solver, x0, ctx, *args):
            try:
                result = newton(circuit, solver, x0, ctx, *args)
            except ConvergenceError:
                attempts.append((ctx.gmin, False))
                raise
            attempts.append((ctx.gmin, True))
            return result

        monkeypatch.setattr(dc_module, "_newton", recording)
        solution = solve_dc(c, max_iterations=12, gmin=1e-14)
        ladder = [10.0 ** (-k) for k in range(2, 13)]
        assert attempts == [(1e-14, False)] + [
            (level, True) for level in ladder + [1e-14]
        ]
        assert solution.voltage("leak") == pytest.approx(
            solution.voltage("a") / (1.0 + 1e12 * 1e-14), rel=1e-9
        )


class TestTransient:
    def test_rc_step_response(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", dc=1.0))
        c.add(Resistor("R1", "in", "out", 1e3))
        c.add(Capacitor("C1", "out", "0", 1e-6))
        tau = 1e-3
        result = simulate_transient(c, t_stop=3 * tau, dt=tau / 100,
                                    use_ic=True)
        wave = result.voltage("out")
        for multiple in (1.0, 2.0):
            idx = int(np.argmin(np.abs(wave.times - multiple * tau)))
            expected = 1.0 - np.exp(-multiple)
            assert wave.values[idx] == pytest.approx(expected, abs=2e-3)

    def test_rl_current_rise(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", dc=1.0))
        c.add(Resistor("R1", "in", "a", 100.0))
        c.add(Inductor("L1", "a", "0", 1e-3))
        tau = 1e-3 / 100.0
        result = simulate_transient(c, t_stop=3 * tau, dt=tau / 100,
                                    use_ic=True)
        current = result.current("L1")
        idx = int(np.argmin(np.abs(current.times - tau)))
        expected = (1.0 / 100.0) * (1.0 - np.exp(-1.0))
        assert current.values[idx] == pytest.approx(expected, rel=5e-3)

    def test_lc_resonance_energy_conserved(self):
        # trapezoidal integration conserves LC oscillation amplitude
        c = Circuit()
        c.add(Capacitor("C1", "a", "0", 1e-9))
        c.add(Inductor("L1", "a", "0", 1e-6))
        c.add(Resistor("Rbig", "a", "0", 1e9))  # keeps node grounded-ish
        f0 = 1.0 / (2 * np.pi * np.sqrt(1e-6 * 1e-9))
        x0 = np.zeros(c.size)
        x0[c.node_index("a")] = 1.0  # charged capacitor
        result = simulate_transient(c, t_stop=5 / f0, dt=1 / f0 / 200, x0=x0)
        wave = result.voltage("a")
        first_peak = np.max(np.abs(wave.values[: len(wave) // 5]))
        last_peak = np.max(np.abs(wave.values[-len(wave) // 5:]))
        assert last_peak == pytest.approx(first_peak, rel=0.02)

    def test_sine_steady_state_amplitude(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0",
                            waveform=SineWave(0.0, 2.0, 1e6)))
        c.add(Resistor("R1", "in", "out", 50.0))
        c.add(Resistor("R2", "out", "0", 50.0))
        result = simulate_transient(c, t_stop=3e-6, dt=2e-9)
        wave = result.voltage("out").last_periods(1e6, 2)
        assert wave.rms() == pytest.approx(1.0 / np.sqrt(2), rel=1e-3)

    def test_starts_from_dc_operating_point(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", "0", dc=2.0))
        c.add(Resistor("R1", "in", "out", 1e3))
        c.add(Capacitor("C1", "out", "0", 1e-9))
        result = simulate_transient(c, t_stop=1e-6, dt=1e-8)
        # capacitor pre-charged by the DC solve: output flat at 2 V
        np.testing.assert_allclose(result.voltage("out").values, 2.0,
                                   atol=1e-6)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_singular_system_raises_convergence_error(self, backend):
        # Two sources fixing one node make identical branch rows.
        c = Circuit()
        c.add(VoltageSource("V1", "a", "0", dc=1.0))
        c.add(VoltageSource("V2", "a", "0", dc=1.0))
        c.add(Resistor("R1", "a", "0", 1.0))
        with pytest.raises(ConvergenceError, match="singular Jacobian at t="):
            simulate_transient(c, t_stop=1e-8, dt=1e-9, use_ic=True,
                               backend=backend)

    def test_invalid_args(self):
        c = Circuit()
        c.add(VoltageSource("V1", "a", "0", dc=1.0))
        c.add(Resistor("R1", "a", "0", 1.0))
        with pytest.raises(ValueError):
            simulate_transient(c, t_stop=0.0, dt=1e-9)
        with pytest.raises(ValueError):
            simulate_transient(c, t_stop=1e-6, dt=-1.0)

    def test_current_accessor_type_check(self):
        c = Circuit()
        c.add(VoltageSource("V1", "a", "0", dc=1.0))
        c.add(Resistor("R1", "a", "0", 1.0))
        result = simulate_transient(c, t_stop=1e-8, dt=1e-9)
        with pytest.raises(TypeError):
            result.current("R1")
        assert result.current("V1").values.shape == result.times.shape
