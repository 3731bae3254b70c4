"""Tests for repro.circuits (PVT corners, PA testbench, charge pump)."""

import functools
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import repro
from repro.circuits import (
    N_CORNERS,
    ChargePumpProblem,
    Corner,
    InterconnectLadderProblem,
    OpAmpProblem,
    PowerAmplifierProblem,
    all_corners,
    build_opamp_circuit,
    build_pa_circuit,
    charge_pump_currents,
    power_amplifier,
    simulate_ladder,
    simulate_opamp,
    simulate_pa,
    typical_corner,
)
from repro.circuits.charge_pump import DEVICE_NAMES
from repro.circuits.power_amplifier import FAILED_METRICS
from repro.problems import FIDELITY_HIGH, FIDELITY_LOW, FailedEvaluation
from repro.spice import ConvergenceError, simulate_transient
from repro.spice.waveform import Waveform


class TestPVT:
    def test_27_corners(self):
        corners = all_corners()
        assert len(corners) == N_CORNERS == 27
        assert len({c.name for c in corners}) == 27

    def test_typical_corner_first(self):
        assert all_corners()[0].is_typical

    def test_typical_corner_identity(self):
        corner = typical_corner()
        assert corner.vth_shift == pytest.approx(0.0)
        assert corner.mobility_factor == pytest.approx(1.0, abs=1e-3)
        assert corner.skew == pytest.approx(0.0, abs=1e-6)

    def test_temperature_lowers_mobility(self):
        hot = Corner("tt", 1.0, 125.0)
        cold = Corner("tt", 1.0, -40.0)
        assert hot.mobility_factor < 1.0 < cold.mobility_factor

    def test_temperature_lowers_vth(self):
        hot = Corner("tt", 1.0, 125.0)
        assert hot.vth_shift < 0.0

    def test_process_ordering(self):
        ss, ff = Corner("ss", 1.0, 27.0), Corner("ff", 1.0, 27.0)
        assert ss.vth_shift > ff.vth_shift
        assert ss.mobility_factor < ff.mobility_factor
        assert ss.skew < 0 < ff.skew

    def test_skew_bounded(self):
        for corner in all_corners():
            assert -1.0 <= corner.skew <= 1.0

    def test_vdd_scaling(self):
        assert Corner("tt", 0.9, 27.0).vdd(1.1) == pytest.approx(0.99)

    def test_invalid_process(self):
        with pytest.raises(ValueError):
            Corner("xx", 1.0, 27.0)


class TestPowerAmplifier:
    def test_netlist_structure(self):
        circuit = build_pa_circuit(250e-12, 640e-12, 500e-6, 2.5, 1.5)
        names = {e.name for e in circuit.elements}
        assert {"VDD", "VG", "Lchoke", "M1", "Cp", "Cs", "Ls", "RL"} == names

    def test_good_design_metrics(self):
        metrics = simulate_pa(250e-12, 640e-12, 500e-6, 2.5, 1.5,
                              FIDELITY_HIGH)
        assert 40.0 < metrics["Eff"] < 100.0
        assert 15.0 < metrics["Pout"] < 30.0
        assert np.isfinite(metrics["thd"])

    def test_fidelities_differ_nonlinearly(self):
        low = simulate_pa(250e-12, 640e-12, 500e-6, 2.5, 1.5, FIDELITY_LOW)
        high = simulate_pa(250e-12, 640e-12, 500e-6, 2.5, 1.5, FIDELITY_HIGH)
        assert abs(low["Eff"] - high["Eff"]) > 1.0

    def test_cost_ratio_is_20(self):
        problem = PowerAmplifierProblem()
        ratio = problem.cost(FIDELITY_HIGH) / problem.cost(FIDELITY_LOW)
        assert ratio == pytest.approx(20.0)

    def test_problem_interface(self):
        problem = PowerAmplifierProblem()
        assert problem.dim == 5
        assert problem.n_constraints == 2
        evaluation = problem.evaluate_unit(
            np.full(5, 0.5), FIDELITY_LOW
        )
        assert evaluation.objective == pytest.approx(
            -evaluation.metrics["Eff"]
        )

    def test_constraint_signs(self):
        problem = PowerAmplifierProblem(pout_min_dbm=-100.0, thd_max_db=1000.0)
        evaluation = problem.evaluate_unit(np.full(5, 0.5), FIDELITY_LOW)
        assert evaluation.feasible  # trivially loose constraints

    def test_efficiency_physical(self):
        # efficiency can never meaningfully exceed 100%
        rng = np.random.default_rng(0)
        problem = PowerAmplifierProblem()
        for _ in range(3):
            evaluation = problem.evaluate_unit(rng.random(5), FIDELITY_LOW)
            assert evaluation.metrics["Eff"] <= 120.0

    def test_transient_non_convergence_is_a_failed_evaluation(self, monkeypatch):
        # One Newton iteration per timepoint cannot follow the switch.
        monkeypatch.setattr(
            power_amplifier,
            "simulate_transient",
            functools.partial(simulate_transient, max_iterations=1),
        )
        problem = PowerAmplifierProblem()
        evaluation = problem.evaluate_unit(np.full(5, 0.5), FIDELITY_LOW)
        assert isinstance(evaluation, FailedEvaluation)
        assert evaluation.error_type == "ConvergenceError"
        assert "did not converge" in evaluation.error
        assert evaluation.metrics == power_amplifier.FAILED_METRICS
        assert evaluation.objective == -power_amplifier.FAILED_METRICS["Eff"]
        assert not evaluation.feasible


# ----------------------------------------------------------------------
# the real bug REPRO-XF003 caught: simulate_pa leaking to_dbm's -inf
# ----------------------------------------------------------------------
def test_simulate_pa_dead_output_reports_finite_metrics(monkeypatch):
    # A dead output stage (v_out identically zero) makes p_load == 0 and
    # to_dbm return -inf; before the guard this flowed straight into the
    # metrics dict and both PA problems' evaluations.
    monkeypatch.setattr(Waveform, "rms", lambda self: 0.0)
    metrics = simulate_pa(250e-12, 640e-12, 500e-6, 2.5, 1.5, FIDELITY_LOW)
    assert all(np.isfinite(v) for v in metrics.values())
    assert metrics["Pout"] == FAILED_METRICS["Pout"]


def test_pa_problem_dead_output_evaluation_is_finite(monkeypatch):
    monkeypatch.setattr(Waveform, "rms", lambda self: 0.0)
    problem = PowerAmplifierProblem()
    evaluation = problem.evaluate_unit(np.full(5, 0.5), FIDELITY_LOW)
    assert np.isfinite(evaluation.objective)
    assert np.all(np.isfinite(evaluation.constraints))
    assert not evaluation.feasible


# ----------------------------------------------------------------------
# the exception half of the failure contract
# ----------------------------------------------------------------------
#: Exception classes defined under ``repro.spice`` or ``repro.circuits``
#: that may leave a circuit problem's ``evaluate()`` unregistered, each
#: with the reason it must kill the run. Empty: every simulator error is
#: a scored failure.
ESCAPING_EXCEPTIONS: dict[type, str] = {}

CIRCUIT_PROBLEMS = [
    name
    for name in repro.list_problems()
    if type(repro.get_problem(name)).__module__.startswith("repro.circuits.")
]


def defined_exceptions(*packages):
    """Every exception class defined at module level under ``packages``."""
    found = []
    for package in packages:
        path = importlib.import_module(package).__path__
        for info in pkgutil.walk_packages(path, f"{package}."):
            module = importlib.import_module(info.name)
            found += [
                obj
                for _, obj in inspect.getmembers(module, inspect.isclass)
                if issubclass(obj, BaseException) and obj.__module__ == info.name
            ]
    return found


@pytest.mark.parametrize("name", CIRCUIT_PROBLEMS)
def test_simulator_exceptions_are_registered_failures(name):
    """An exception ``evaluate()`` does not catch escapes Algorithm 1 and
    kills the run (or a farm worker), so every error the simulator and
    testbenches define must be in the problem's ``failure_exceptions``,
    subclass-aware as ``except`` is."""
    problem = repro.get_problem(name)
    exceptions = defined_exceptions("repro.spice", "repro.circuits")
    assert ConvergenceError in exceptions
    unregistered = [
        f"{exc.__module__}.{exc.__qualname__}"
        for exc in exceptions
        if not issubclass(exc, problem.failure_exceptions)
        and exc not in ESCAPING_EXCEPTIONS
    ]
    assert unregistered == []


class TestChargePumpModel:
    def good_design(self):
        sizes = dict(
            MB1=(5, 0.5), MB2=(20, 0.5), MB3=(8, 0.4), MB4=(8, 0.4),
            MB5=(1, 0.5), MB6=(40, 0.05),
            MPref=(5, 0.75), MPmir=(40, 1.0), MPcas=(40, 0.05),
            MPsw=(10, 0.1),
            MNref=(5, 0.75), MNmir=(40, 1.0), MNcas=(40, 0.05),
            MNsw=(10, 0.1),
            MD1=(40, 0.05), MD2=(40, 0.05), MD3=(40, 0.05), MD4=(40, 0.05),
        )
        return np.array([v for n in DEVICE_NAMES for v in sizes[n]])

    def test_currents_structure(self):
        currents = charge_pump_currents(self.good_design(), typical_corner())
        assert currents["i_m1"].shape == (9,)
        assert np.all(currents["i_m1"] > 0)
        assert np.all(currents["i_m1_peak"] >= currents["i_m1"])

    def test_good_design_near_target(self):
        currents = charge_pump_currents(self.good_design(), typical_corner())
        assert np.mean(currents["i_m1"]) == pytest.approx(40.0, abs=5.0)
        assert np.mean(currents["i_m2"]) == pytest.approx(40.0, abs=5.0)

    def test_good_design_feasible_at_all_corners(self):
        problem = ChargePumpProblem()
        evaluation = problem.evaluate(self.good_design(), FIDELITY_HIGH)
        assert evaluation.feasible
        assert evaluation.metrics["FOM"] < 10.0

    def test_worst_case_fom_exceeds_typical(self):
        problem = ChargePumpProblem()
        x = self.good_design()
        low = problem.evaluate(x, FIDELITY_LOW)
        high = problem.evaluate(x, FIDELITY_HIGH)
        assert high.metrics["FOM"] >= low.metrics["FOM"] - 1e-9

    def test_fom_formula(self):
        problem = ChargePumpProblem()
        metrics = problem.evaluate(self.good_design(), FIDELITY_HIGH).metrics
        expected = (
            0.3 * (metrics["max_diff1"] + metrics["max_diff2"]
                   + metrics["max_diff3"] + metrics["max_diff4"])
            + 0.5 * metrics["deviation"]
        )
        assert metrics["FOM"] == pytest.approx(expected)

    def test_larger_area_reduces_mismatch_impact(self):
        x_small = self.good_design()
        x_large = x_small.copy()
        # grow the mirror + dummy areas (W entries of MPmir/MPref/MD1/MD2)
        for name in ("MPref", "MPmir", "MD1", "MD2"):
            idx = 2 * DEVICE_NAMES.index(name)
            x_small[idx] = 1.0
        corner = Corner("ff", 1.1, -40.0)  # strongly skewed corner
        small = charge_pump_currents(x_small, corner)
        large = charge_pump_currents(x_large, corner)
        # mismatch contribution shows as |avg - nominal| gap
        small_gap = abs(np.mean(small["i_m1"]) - small["i_up_nom"])
        large_gap = abs(np.mean(large["i_m1"]) - large["i_up_nom"])
        assert large_gap <= small_gap + 1e-6

    def test_longer_mirror_reduces_ripple(self):
        x_short = self.good_design()
        x_long = x_short.copy()
        idx = 2 * DEVICE_NAMES.index("MPmir") + 1
        x_short[idx] = 0.05
        x_long[idx] = 1.0
        corner = typical_corner()
        def ripple(c):
            return float(np.max(c["i_m1"]) - np.min(c["i_m1"]))

        assert (ripple(charge_pump_currents(x_long, corner))
                <= ripple(charge_pump_currents(x_short, corner)) + 1e-9)

    def test_deterministic(self):
        x = self.good_design()
        corner = Corner("ss", 0.9, 125.0)
        a = charge_pump_currents(x, corner)
        b = charge_pump_currents(x, corner)
        np.testing.assert_array_equal(a["i_m1"], b["i_m1"])

    def test_wrong_size_raises(self):
        with pytest.raises(ValueError):
            charge_pump_currents(np.ones(10), typical_corner())


class TestChargePumpProblem:
    def test_dimensions(self):
        problem = ChargePumpProblem()
        assert problem.dim == 36
        assert problem.n_constraints == 5
        assert problem.cost(FIDELITY_LOW) == pytest.approx(1.0 / 27.0)

    def test_constraint_thresholds(self):
        problem = ChargePumpProblem()
        evaluation = problem.evaluate_unit(np.full(36, 0.5), FIDELITY_LOW)
        metrics = evaluation.metrics
        limits = problem.LIMITS
        expected = np.array([
            metrics["max_diff1"] - limits[0],
            metrics["max_diff2"] - limits[1],
            metrics["max_diff3"] - limits[2],
            metrics["max_diff4"] - limits[3],
            metrics["deviation"] - limits[4],
        ])
        np.testing.assert_allclose(evaluation.constraints, expected)

    def test_random_designs_rarely_feasible(self):
        problem = ChargePumpProblem()
        rng = np.random.default_rng(0)
        flags = [
            problem.evaluate_unit(rng.random(36), FIDELITY_HIGH).feasible
            for _ in range(25)
        ]
        assert sum(flags) <= 2  # needle in a haystack, like the paper


class TestOpAmpCircuit:
    #: A known-good design: W1, W3, W6, Rb, Cc.
    GOOD = (20e-6, 10e-6, 100e-6, 200e3, 2e-12)

    def test_netlist_structure(self):
        circuit = build_opamp_circuit(*self.GOOD)
        names = {e.name for e in circuit.elements}
        assert {"M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8",
                "Cc", "CL", "Rb", "VDD", "VIP", "VIN"} <= names
        assert circuit.element("VIP").ac == pytest.approx(1.0)

    def test_offset_free_output_stage_sizing(self):
        # M7 is sized W8 * W6 / W3 so the second stage carries the
        # mirrored current without systematic offset.
        circuit = build_opamp_circuit(*self.GOOD)
        w6 = circuit.element("M6").w
        w3 = circuit.element("M3").w
        w8 = circuit.element("M8").w
        assert circuit.element("M7").w == pytest.approx(w8 * w6 / w3)

    def test_good_design_metrics(self):
        metrics = simulate_opamp(*self.GOOD, FIDELITY_HIGH)
        assert metrics["gain_db"] > 80.0
        assert metrics["ugf_mhz"] > 5.0
        assert 0.0 < metrics["pm_deg"] < 120.0
        assert 0.0 < metrics["power_mw"] < 1.0

    def test_fidelities_correlate_but_differ(self):
        fine = simulate_opamp(*self.GOOD, FIDELITY_HIGH)
        coarse = simulate_opamp(*self.GOOD, FIDELITY_LOW)
        # the simplified coarse device model biases the gain low
        assert coarse["gain_db"] < fine["gain_db"]
        assert coarse["gain_db"] == pytest.approx(fine["gain_db"], abs=15.0)
        assert coarse["ugf_mhz"] == pytest.approx(fine["ugf_mhz"], rel=0.3)

    def test_more_current_more_power(self):
        w1, w3, w6, _, cc = self.GOOD
        hungry = simulate_opamp(w1, w3, w6, 50e3, cc, FIDELITY_HIGH)
        frugal = simulate_opamp(w1, w3, w6, 500e3, cc, FIDELITY_HIGH)
        assert hungry["power_mw"] > frugal["power_mw"]

    def test_larger_cc_lower_ugf(self):
        w1, w3, w6, rb, _ = self.GOOD
        fast = simulate_opamp(w1, w3, w6, rb, 0.5e-12, FIDELITY_HIGH)
        slow = simulate_opamp(w1, w3, w6, rb, 5e-12, FIDELITY_HIGH)
        assert slow["ugf_mhz"] < fast["ugf_mhz"]


class TestOpAmpProblem:
    def test_dimensions_and_costs(self):
        problem = OpAmpProblem()
        assert problem.dim == 5
        assert problem.n_constraints == 4
        assert problem.cost(FIDELITY_LOW) == pytest.approx(1.0 / 6.0)
        assert problem.cost(FIDELITY_HIGH) == pytest.approx(1.0)

    def test_constraint_wiring(self):
        problem = OpAmpProblem()
        evaluation = problem.evaluate_unit(np.full(5, 0.5), FIDELITY_HIGH)
        metrics = evaluation.metrics
        expected = np.array([
            problem.gain_min_db - metrics["gain_db"],
            problem.ugf_min_mhz - metrics["ugf_mhz"],
            problem.pm_min_deg - metrics["pm_deg"],
            metrics["power_mw"] - problem.power_max_mw,
        ])
        np.testing.assert_allclose(evaluation.constraints, expected)
        assert evaluation.objective == pytest.approx(metrics["power_mw"])

    def test_feasible_region_is_reachable_but_small(self):
        problem = OpAmpProblem()
        rng = np.random.default_rng(0)
        flags = [
            problem.evaluate_unit(rng.random(5), FIDELITY_HIGH).feasible
            for _ in range(60)
        ]
        assert 0 < sum(flags) <= 15

    def test_evaluation_is_deterministic(self):
        problem = OpAmpProblem()
        u = np.full(5, 0.4)
        a = problem.evaluate_unit(u, FIDELITY_LOW)
        b = problem.evaluate_unit(u, FIDELITY_LOW)
        assert a.objective == b.objective
        np.testing.assert_array_equal(a.constraints, b.constraints)


class TestInterconnectLadder:
    def test_constraint_wiring_and_metrics(self):
        problem = InterconnectLadderProblem(n_sections=64)
        evaluation = problem.evaluate_unit(np.full(3, 0.5), FIDELITY_HIGH)
        metrics = evaluation.metrics
        for key in ("bandwidth_mhz", "dc_attenuation_db", "wire_cap_pf", "fom"):
            assert np.isfinite(metrics[key])
        expected = np.array([
            problem.bw_min_mhz - metrics["bandwidth_mhz"],
            problem.att_min_db - metrics["dc_attenuation_db"],
        ])
        np.testing.assert_allclose(evaluation.constraints, expected)
        assert evaluation.objective == pytest.approx(metrics["fom"])

    def test_low_fidelity_is_cheaper_and_optimistic(self):
        problem = InterconnectLadderProblem(n_sections=64)
        assert problem.cost(FIDELITY_LOW) < problem.cost(FIDELITY_HIGH)
        low = simulate_ladder(1.0, 100.0, 1.0, FIDELITY_LOW, n_sections=64)
        high = simulate_ladder(1.0, 100.0, 1.0, FIDELITY_HIGH, n_sections=64)
        # the lumped approximation systematically overestimates bandwidth
        assert low["bandwidth_mhz"] > high["bandwidth_mhz"]

    def test_wider_wire_improves_attenuation(self):
        narrow = simulate_ladder(0.3, 100.0, 1.0, FIDELITY_HIGH, n_sections=64)
        wide = simulate_ladder(4.0, 100.0, 1.0, FIDELITY_HIGH, n_sections=64)
        assert wide["dc_attenuation_db"] > narrow["dc_attenuation_db"]
        assert wide["wire_cap_pf"] > narrow["wire_cap_pf"]
