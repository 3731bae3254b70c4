"""Compiled stamps against an element-by-element reference stamper.

The backends compile every element once into a stamp function over flat
slots. Their assembled Jacobians, residuals and small-signal systems
must equal, bit for bit, what the classic per-entry stamper below
produces: same values, same expressions, same accumulation order. The
reference is the engine's original dense stamper, kept here as the
contract. Random netlists cover every element class on both backends in
DC, transient (backward Euler and trapezoidal) and AC modes, and the
power amplifier's transient states must match a reference Newton loop
exactly at both fidelities.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.power_amplifier import (
    CARRIER_HZ,
    SIM_PERIODS,
    STEPS_PER_PERIOD,
    build_pa_circuit,
)
from repro.spice import (
    MOSFET,
    VCCS,
    VCVS,
    Capacitor,
    Circuit,
    CurrentSource,
    DenseBackend,
    Diode,
    Inductor,
    PulseWave,
    Resistor,
    SineWave,
    SparseBackend,
    StampContext,
    VoltageSource,
    simulate_transient,
)

_EXP_LIMIT = 40.0


# ----------------------------------------------------------------------
# reference stamper: one dense add per matrix entry, ground skipped
# ----------------------------------------------------------------------
def _v(x, idx):
    return 0.0 if idx < 0 else float(x[idx])


def _add(vec, idx, value):
    if idx >= 0:
        vec[idx] += value


def _madd(matrix, row, col, value):
    if row >= 0 and col >= 0:
        matrix[row, col] += value


def _pairwise(matrix, i1, i2, g):
    _madd(matrix, i1, i1, g)
    _madd(matrix, i1, i2, -g)
    _madd(matrix, i2, i1, -g)
    _madd(matrix, i2, i2, g)


def _incidence(matrix, i1, i2, bi):
    _madd(matrix, i1, bi, 1.0)
    _madd(matrix, i2, bi, -1.0)
    _madd(matrix, bi, i1, 1.0)
    _madd(matrix, bi, i2, -1.0)


def _source_value(e, ctx):
    if e.waveform is None:
        return e.dc
    return float(e.waveform(ctx.time if ctx.mode == "tran" else 0.0))


def _limited_exp(arg):
    if arg <= _EXP_LIMIT:
        value = np.exp(arg)
        return value, value
    peak = np.exp(_EXP_LIMIT)
    return peak * (1.0 + (arg - _EXP_LIMIT)), peak


def _diode_iv(e, v):
    nvt = e.emission * e.thermal_voltage
    value, derivative = _limited_exp(v / nvt)
    current = e.saturation_current * (value - 1.0)
    conductance = e.saturation_current * derivative / nvt
    return current, conductance


def _mos_evaluate(e, x):
    d, g, s = e.node_indices
    vd, vg, vs = _v(x, d), _v(x, g), _v(x, s)
    if e.polarity == "pmos":
        vd, vg, vs = -vd, -vg, -vs
    swapped = vd < vs
    if swapped:
        vd, vs = vs, vd
    vgs, vds = vg - vs, vd - vs
    beta, lam = e.kp * e.w / e.l, e.lambda_
    vov = vgs - abs(e.vth)
    if vov <= 0.0:
        return 0.0, 0.0, 0.0, swapped
    if vds < vov:
        ids = beta * (vov * vds - 0.5 * vds * vds) * (1 + lam * vds)
        gm = beta * vds * (1 + lam * vds)
        gds = (
            beta * (vov - vds) * (1 + lam * vds)
            + beta * (vov * vds - 0.5 * vds * vds) * lam
        )
    else:
        ids = 0.5 * beta * vov * vov * (1 + lam * vds)
        gm = beta * vov * (1 + lam * vds)
        gds = 0.5 * beta * vov * vov * lam
    return ids, gm, gds, swapped


def _mos_conductances(matrix, e, gm, gds, swapped, gmin):
    d, g, s = e.node_indices
    eff_d, eff_s = (s, d) if swapped else (d, s)
    _madd(matrix, eff_d, g, gm)
    _madd(matrix, eff_d, eff_d, gds)
    _madd(matrix, eff_d, eff_s, -(gm + gds))
    _madd(matrix, eff_s, g, -gm)
    _madd(matrix, eff_s, eff_d, -gds)
    _madd(matrix, eff_s, eff_s, gm + gds)
    _pairwise(matrix, d, s, gmin)


def reference_stamp(e, jac, res, x, ctx):
    """Add one element's Newton contribution at ``x`` (dense, in place)."""
    nodes = e.node_indices
    if isinstance(e, Resistor):
        i1, i2 = nodes
        g = 1.0 / e.resistance
        current = g * (_v(x, i1) - _v(x, i2))
        _add(res, i1, current)
        _add(res, i2, -current)
        _pairwise(jac, i1, i2, g)
    elif isinstance(e, Capacitor):
        if ctx.mode == "dc":
            return
        i1, i2 = nodes
        v_now = _v(x, i1) - _v(x, i2)
        v_prev = _v(ctx.x_prev, i1) - _v(ctx.x_prev, i2)
        if ctx.method == "trap":
            geq = 2.0 * e.capacitance / ctx.dt
            current = geq * (v_now - v_prev) - ctx.states.get(e.name, 0.0)
        else:
            geq = e.capacitance / ctx.dt
            current = geq * (v_now - v_prev)
        _add(res, i1, current)
        _add(res, i2, -current)
        _pairwise(jac, i1, i2, geq)
    elif isinstance(e, Inductor):
        i1, i2 = nodes
        bi = e.branch_index
        current = float(x[bi])
        _add(res, i1, current)
        _add(res, i2, -current)
        _madd(jac, i1, bi, 1.0)
        _madd(jac, i2, bi, -1.0)
        v_now = _v(x, i1) - _v(x, i2)
        if ctx.mode == "dc":
            res[bi] += v_now
            _madd(jac, bi, i1, 1.0)
            _madd(jac, bi, i2, -1.0)
            return
        i_prev = float(ctx.x_prev[bi])
        if ctx.method == "trap":
            v_prev = _v(ctx.x_prev, i1) - _v(ctx.x_prev, i2)
            req = 2.0 * e.inductance / ctx.dt
            res[bi] += v_now + v_prev - req * (current - i_prev)
        else:
            req = e.inductance / ctx.dt
            res[bi] += v_now - req * (current - i_prev)
        _madd(jac, bi, i1, 1.0)
        _madd(jac, bi, i2, -1.0)
        _madd(jac, bi, bi, -req)
    elif isinstance(e, VoltageSource):
        i1, i2 = nodes
        bi = e.branch_index
        current = float(x[bi])
        _add(res, i1, current)
        _add(res, i2, -current)
        _madd(jac, i1, bi, 1.0)
        _madd(jac, i2, bi, -1.0)
        res[bi] += _v(x, i1) - _v(x, i2) - _source_value(e, ctx)
        _madd(jac, bi, i1, 1.0)
        _madd(jac, bi, i2, -1.0)
    elif isinstance(e, CurrentSource):
        i1, i2 = nodes
        current = _source_value(e, ctx)
        _add(res, i1, current)
        _add(res, i2, -current)
    elif isinstance(e, VCVS):
        i1, i2, c1, c2 = nodes
        bi = e.branch_index
        current = float(x[bi])
        _add(res, i1, current)
        _add(res, i2, -current)
        _madd(jac, i1, bi, 1.0)
        _madd(jac, i2, bi, -1.0)
        res[bi] += (
            _v(x, i1) - _v(x, i2) - e.gain * (_v(x, c1) - _v(x, c2))
        )
        _madd(jac, bi, i1, 1.0)
        _madd(jac, bi, i2, -1.0)
        _madd(jac, bi, c1, -e.gain)
        _madd(jac, bi, c2, e.gain)
    elif isinstance(e, VCCS):
        i1, i2, c1, c2 = nodes
        gm = e.transconductance
        current = gm * (_v(x, c1) - _v(x, c2))
        _add(res, i1, current)
        _add(res, i2, -current)
        _madd(jac, i1, c1, gm)
        _madd(jac, i1, c2, -gm)
        _madd(jac, i2, c1, -gm)
        _madd(jac, i2, c2, gm)
    elif isinstance(e, Diode):
        i1, i2 = nodes
        v = _v(x, i1) - _v(x, i2)
        current, g = _diode_iv(e, v)
        g += ctx.gmin
        current += ctx.gmin * v
        _add(res, i1, current)
        _add(res, i2, -current)
        _pairwise(jac, i1, i2, g)
    elif isinstance(e, MOSFET):
        d, g, s = nodes
        ids, gm, gds, swapped = _mos_evaluate(e, x)
        sign = -1.0 if e.polarity == "pmos" else 1.0
        eff_d, eff_s = (s, d) if swapped else (d, s)
        current = sign * ids
        _add(res, eff_d, current)
        _add(res, eff_s, -current)
        leak = ctx.gmin * (_v(x, d) - _v(x, s))
        _mos_conductances(jac, e, gm, gds, swapped, ctx.gmin)
        _add(res, d, leak)
        _add(res, s, -leak)
    else:  # pragma: no cover - every element class is listed above
        raise TypeError(type(e).__name__)


def reference_ac_stamp(e, cond, susc, rhs, x_op, gmin):
    """Add one element's small-signal contribution at ``x_op``."""
    nodes = e.node_indices
    if isinstance(e, Resistor):
        _pairwise(cond, *nodes, 1.0 / e.resistance)
    elif isinstance(e, Capacitor):
        _pairwise(susc, *nodes, e.capacitance)
    elif isinstance(e, Inductor):
        bi = e.branch_index
        _incidence(cond, *nodes, bi)
        _madd(susc, bi, bi, -e.inductance)
    elif isinstance(e, VoltageSource):
        _incidence(cond, *nodes, e.branch_index)
        rhs[e.branch_index] += e.ac_value
    elif isinstance(e, CurrentSource):
        _add(rhs, nodes[0], -e.ac_value)
        _add(rhs, nodes[1], e.ac_value)
    elif isinstance(e, VCVS):
        i1, i2, c1, c2 = nodes
        bi = e.branch_index
        _incidence(cond, i1, i2, bi)
        _madd(cond, bi, c1, -e.gain)
        _madd(cond, bi, c2, e.gain)
    elif isinstance(e, VCCS):
        i1, i2, c1, c2 = nodes
        gm = e.transconductance
        _madd(cond, i1, c1, gm)
        _madd(cond, i1, c2, -gm)
        _madd(cond, i2, c1, -gm)
        _madd(cond, i2, c2, gm)
    elif isinstance(e, Diode):
        _, g = _diode_iv(e, _v(x_op, nodes[0]) - _v(x_op, nodes[1]))
        _pairwise(cond, *nodes, g + gmin)
    elif isinstance(e, MOSFET):
        _, gm, gds, swapped = _mos_evaluate(e, x_op)
        _mos_conductances(cond, e, gm, gds, swapped, gmin)
    else:  # pragma: no cover
        raise TypeError(type(e).__name__)


def reference_update_state(e, x, ctx):
    """Companion state after an accepted step (capacitors only)."""
    if not isinstance(e, Capacitor):
        return
    i1, i2 = e.node_indices
    v_now = _v(x, i1) - _v(x, i2)
    v_prev = _v(ctx.x_prev, i1) - _v(ctx.x_prev, i2)
    if ctx.method == "trap":
        geq = 2.0 * e.capacitance / ctx.dt
        ctx.states[e.name] = geq * (v_now - v_prev) - ctx.states.get(e.name, 0.0)
    else:
        ctx.states[e.name] = e.capacitance / ctx.dt * (v_now - v_prev)


def reference_assemble(circuit, x, ctx):
    n = circuit.size
    jac, res = np.zeros((n, n)), np.zeros(n)
    for element in circuit.elements:
        reference_stamp(element, jac, res, x, ctx)
    return jac, res


def reference_assemble_ac(circuit, x_op, gmin):
    n = circuit.size
    cond, susc = np.zeros((n, n)), np.zeros((n, n))
    rhs = np.zeros(n, dtype=complex)
    for element in circuit.elements:
        reference_ac_stamp(element, cond, susc, rhs, x_op, gmin)
    return cond, susc, rhs


def _reference_newton(circuit, x, ctx, max_iterations, max_step):
    for _ in range(max_iterations):
        jac, res = reference_assemble(circuit, x, ctx)
        delta = np.linalg.solve(jac, -res)
        step = float(np.max(np.abs(delta)))
        if step > max_step:
            delta *= max_step / step
        x = x + delta
        if step < 1e-9 + 1e-6 * float(np.max(np.abs(x))):
            return x
    raise AssertionError("reference Newton did not converge")


def reference_transient(circuit, t_stop, dt):
    """The engine's original DC-then-fixed-step transient loop."""
    circuit._elaborate_if_needed()
    dc = StampContext(mode="dc", gmin=1e-12)
    x = _reference_newton(circuit, np.zeros(circuit.size), dc, 200, 1.0)
    n_steps = max(1, int(np.ceil(t_stop / dt - 1e-9)))
    times = dt * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, circuit.size))
    states[0] = x
    companion = {}
    for k in range(1, n_steps + 1):
        ctx = StampContext(
            mode="tran", time=float(times[k]), dt=dt,
            method="be" if k == 1 else "trap", x_prev=states[k - 1],
            states=companion, gmin=1e-12,
        )
        states[k] = _reference_newton(circuit, states[k - 1].copy(), ctx, 100, 1.0)
        for element in circuit.elements:
            reference_update_state(element, states[k], ctx)
    return states


# ----------------------------------------------------------------------
# random netlists over every element class
# ----------------------------------------------------------------------
_NODES = ("0", "a", "b", "c", "d")


@st.composite
def netlists(draw):
    """Up to ten random elements over four nodes and ground."""
    node = st.sampled_from(_NODES)
    value = st.floats(min_value=0.1, max_value=10.0)
    circuit = Circuit("random")
    kinds = draw(
        st.lists(
            st.sampled_from(
                ["R", "C", "L", "Vsin", "Vpulse", "Vdc", "I", "E", "G",
                 "D", "NMOS", "PMOS"]
            ),
            min_size=1,
            max_size=10,
        )
    )
    for k, kind in enumerate(kinds):
        n1, n2 = draw(node), draw(node)
        name = f"{kind}{k}"
        if kind == "R":
            element = Resistor(name, n1, n2, draw(value) * 1e3)
        elif kind == "C":
            element = Capacitor(name, n1, n2, draw(value) * 1e-9)
        elif kind == "L":
            element = Inductor(name, n1, n2, draw(value) * 1e-6)
        elif kind == "Vsin":
            element = VoltageSource(
                name, n1, n2, dc=draw(value),
                waveform=SineWave(draw(value), draw(value), 1e6),
                ac=draw(value), ac_phase=draw(value) * 10.0,
            )
        elif kind == "Vpulse":
            element = VoltageSource(
                name, n1, n2, waveform=PulseWave(
                    0.0, draw(value), rise=1e-8, fall=1e-8, width=2e-7,
                    period=5e-7,
                ),
            )
        elif kind == "Vdc":
            element = VoltageSource(name, n1, n2, dc=draw(value))
        elif kind == "I":
            element = CurrentSource(
                name, n1, n2, dc=draw(value) * 1e-3, ac=draw(value),
                waveform=draw(st.sampled_from([None, SineWave(0.0, 1e-3, 1e6)])),
            )
        elif kind == "E":
            element = VCVS(name, n1, n2, draw(node), draw(node), draw(value))
        elif kind == "G":
            element = VCCS(name, n1, n2, draw(node), draw(node), draw(value) * 1e-3)
        elif kind == "D":
            element = Diode(name, n1, n2)
        else:
            element = MOSFET(
                name, n1, draw(node), n2,
                polarity="nmos" if kind == "NMOS" else "pmos",
                w=draw(value) * 1e-6,
                vth=0.5 if kind == "NMOS" else -0.5,
            )
        circuit.add(element)
    return circuit


def _contexts(draw, circuit):
    n = circuit.size
    voltages = st.floats(min_value=-3.0, max_value=3.0)
    x_prev = np.array(draw(st.lists(voltages, min_size=n, max_size=n)))
    states = {
        e.name: draw(voltages) * 1e-3
        for e in circuit.elements if isinstance(e, Capacitor)
    }
    common = dict(
        time=draw(st.floats(0.0, 1e-6)),
        gmin=draw(st.sampled_from([1e-12, 1e-3])),
    )
    return [
        StampContext(mode="dc", **common),
        StampContext(mode="tran", dt=1e-8, method="be", x_prev=x_prev,
                     states=dict(states), **common),
        StampContext(mode="tran", dt=1e-8, method="trap", x_prev=x_prev,
                     states=dict(states), **common),
    ]


def _dense_of(backend, data):
    if isinstance(backend, SparseBackend):
        return backend._matrix(data).toarray()
    return data


@settings(max_examples=150, deadline=None)
@given(circuit=netlists(), data=st.data())
def test_compiled_assembly_matches_reference(circuit, data):
    circuit._elaborate_if_needed()
    n = circuit.size
    # +-3 V across a junction reaches past the diode exponent limit.
    x = np.array(data.draw(st.lists(
        st.floats(min_value=-3.0, max_value=3.0), min_size=n, max_size=n
    )))
    backends = (DenseBackend(circuit), SparseBackend(circuit))
    for ctx in _contexts(data.draw, circuit):
        jac, res = reference_assemble(circuit, x, ctx)
        for backend in backends:
            got_jac, got_res = backend.assemble(x, ctx)
            assert np.array_equal(_dense_of(backend, got_jac), jac)
            assert np.array_equal(got_res, res)
        if ctx.mode == "tran":
            expected = dict(ctx.states)
            for element in circuit.elements:
                reference_update_state(
                    element, x, replace(ctx, states=expected)
                )
            for backend in backends:
                accepted = replace(ctx, states=dict(ctx.states))
                backend.accept(x, accepted)
                assert accepted.states == expected

    gmin = data.draw(st.sampled_from([1e-12, 1e-3]))
    cond, susc, rhs = reference_assemble_ac(circuit, x, gmin)
    for backend in backends:
        got_cond, got_susc, got_rhs = backend.assemble_ac(x, gmin)
        assert np.array_equal(_dense_of(backend, got_cond), cond)
        assert np.array_equal(_dense_of(backend, got_susc), susc)
        assert np.array_equal(got_rhs, rhs)


def test_overlapping_stamps_match_reference():
    """Every element class piled onto three nodes, at many points.

    Each matrix entry collects several contributions, so any change in
    the order or grouping of the additions shows up as a rounding
    difference somewhere among the points.
    """
    circuit = Circuit("pile-up")
    for k, (n1, n2) in enumerate([("a", "b"), ("b", "c"), ("c", "a")]):
        circuit.add(Resistor(f"R{k}", n1, n2, 1.3e3 * (k + 1)))
        circuit.add(Capacitor(f"C{k}", n1, n2, 2.7e-9 * (k + 1)))
        circuit.add(MOSFET(f"MN{k}", n1, n2, "c", w=(k + 3) * 1e-6))
        circuit.add(MOSFET(f"MP{k}", n2, "a", n1, polarity="pmos", vth=-0.4))
        circuit.add(Diode(f"D{k}", n1, n2))
        circuit.add(VCCS(f"G{k}", n1, n2, n2, "c", 1.7e-3))
    circuit.add(VCVS("E0", "a", "b", "c", "b", 2.3))
    circuit.add(Inductor("L0", "b", "c", 4.1e-6))
    circuit.add(VoltageSource("V0", "c", "0", waveform=SineWave(0.3, 1.1, 1e6)))
    circuit.add(CurrentSource("I0", "a", "c", dc=1.9e-3))
    circuit._elaborate_if_needed()
    rng = np.random.default_rng(7)
    backends = (DenseBackend(circuit), SparseBackend(circuit))
    for _ in range(40):
        x = rng.uniform(-1.5, 1.5, circuit.size)
        x_prev = rng.uniform(-1.5, 1.5, circuit.size)
        states = {f"C{k}": rng.uniform(-1e-3, 1e-3) for k in range(3)}
        for ctx in (
            StampContext(mode="dc", gmin=1e-3),
            StampContext(mode="tran", time=1.7e-7, dt=1e-8, method="trap",
                         x_prev=x_prev, states=states, gmin=1e-3),
        ):
            jac, res = reference_assemble(circuit, x, ctx)
            for backend in backends:
                got_jac, got_res = backend.assemble(x, ctx)
                assert np.array_equal(_dense_of(backend, got_jac), jac)
                assert np.array_equal(got_res, res)
        cond, _, _ = reference_assemble_ac(circuit, x, 1e-3)
        for backend in backends:
            got_cond = backend.assemble_ac(x, 1e-3)[0]
            assert np.array_equal(_dense_of(backend, got_cond), cond)


def test_diode_past_exponent_limit_matches_reference():
    circuit = Circuit("forward")
    circuit.add(Diode("D1", "a", "0"))
    circuit.add(Resistor("R1", "a", "0", 1e3))
    circuit._elaborate_if_needed()
    x = np.array([2.5])  # 2.5 V / 25.85 mV is past the limit of 40
    ctx = StampContext(mode="dc")
    jac, res = reference_assemble(circuit, x, ctx)
    for backend in (DenseBackend(circuit), SparseBackend(circuit)):
        got_jac, got_res = backend.assemble(x, ctx)
        assert np.array_equal(_dense_of(backend, got_jac), jac)
        assert np.array_equal(got_res, res)


@pytest.mark.parametrize("fidelity", sorted(SIM_PERIODS))
@pytest.mark.parametrize(
    "design",
    [(250e-12, 640e-12, 500e-6, 2.5, 1.5), (80e-12, 1.1e-9, 150e-6, 3.2, 1.1)],
)
def test_pa_transient_is_bitwise_reference(design, fidelity):
    period = 1.0 / CARRIER_HZ
    t_stop, dt = SIM_PERIODS[fidelity] * period, period / STEPS_PER_PERIOD
    expected = reference_transient(build_pa_circuit(*design), t_stop, dt)
    result = simulate_transient(build_pa_circuit(*design), t_stop=t_stop, dt=dt)
    assert np.array_equal(result.states, expected)
