"""Dense-vs-sparse solver backend equivalence.

The sparse backend must be a drop-in replacement: identical assembled
matrices (pinned bitwise by a hypothesis sweep over random RC ladders)
and solutions agreeing to rtol <= 1e-9 for every analysis on every
circuit family in the repo. Also pins the dense AC chunking (the OOM
bugfix) and the auto-switch policy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.ladder import build_amplifier_chain, build_ladder_circuit
from repro.circuits.opamp import build_opamp_circuit
from repro.circuits.power_amplifier import build_pa_circuit
from repro.spice import (
    SPARSE_AUTO_THRESHOLD,
    VCCS,
    VCVS,
    Capacitor,
    Circuit,
    CurrentSource,
    DenseBackend,
    Diode,
    Inductor,
    Resistor,
    SparseBackend,
    StampContext,
    VoltageSource,
    resolve_backend,
    simulate_transient,
    solve_ac,
    solve_dc,
)
from repro.spice import backend as backend_module


def _rlc_filter():
    c = Circuit("rlc")
    c.add(VoltageSource("V1", "in", "0", dc=1.0, ac=1.0))
    c.add(Resistor("R1", "in", "a", 50.0))
    c.add(Inductor("L1", "a", "out", 1e-3))
    c.add(Capacitor("C1", "out", "0", 1e-9))
    c.add(Resistor("RL", "out", "0", 1e6))
    return c


def _kitchen_sink():
    """Every element type in one solvable netlist."""
    c = Circuit("kitchen-sink")
    c.add(VoltageSource("V1", "in", "0", dc=2.0, ac=1.0))
    c.add(Resistor("R1", "in", "a", 1e3))
    c.add(Diode("D1", "a", "b"))
    c.add(Resistor("R2", "b", "0", 2e3))
    c.add(CurrentSource("I1", "0", "a", dc=1e-4, ac=0.5))
    c.add(VCVS("E1", "c", "0", "a", "b", 3.0))
    c.add(Resistor("R3", "c", "d", 5e2))
    c.add(Capacitor("C1", "d", "0", 1e-8))
    c.add(VCCS("G1", "d", "0", "in", "a", 1e-3))
    c.add(Inductor("L1", "b", "e", 1e-4))
    c.add(Resistor("R4", "e", "0", 1e3))
    return c


def _opamp():
    return build_opamp_circuit(20e-6, 10e-6, 100e-6, 100e3, 2e-12)


def _pa():
    return build_pa_circuit(250e-12, 640e-12, 500e-6, 2.5, 1.5)


CIRCUITS = {
    "rlc": _rlc_filter,
    "kitchen-sink": _kitchen_sink,
    "opamp": _opamp,
    "pa": _pa,
    "ladder-50": lambda: build_ladder_circuit(50),
    "amp-chain-40": lambda: build_amplifier_chain(40),
}


@pytest.mark.parametrize("build", CIRCUITS.values(), ids=CIRCUITS.keys())
class TestDenseSparseEquivalence:
    def test_dc_operating_point(self, build):
        dense = solve_dc(build(), backend="dense")
        sparse = solve_dc(build(), backend="sparse")
        np.testing.assert_allclose(sparse.x, dense.x, rtol=1e-9, atol=1e-12)

    def test_ac_sweep(self, build):
        x_op = solve_dc(build(), backend="dense").x
        dense = solve_ac(build(), 1e2, 1e9, n_points=40, x_op=x_op, backend="dense")
        sparse = solve_ac(build(), 1e2, 1e9, n_points=40, x_op=x_op, backend="sparse")
        # circuits without AC excitation respond identically zero
        scale = np.maximum(np.max(np.abs(dense.x), axis=1, keepdims=True), 1e-30)
        np.testing.assert_allclose(
            sparse.x / scale, dense.x / scale, rtol=1e-9, atol=1e-9
        )


@pytest.mark.parametrize(
    "build",
    [_rlc_filter, _kitchen_sink, _pa],
    ids=["rlc", "kitchen-sink", "pa"],
)
def test_transient_equivalence(build):
    dense = simulate_transient(build(), t_stop=2e-6, dt=2e-9, backend="dense")
    sparse = simulate_transient(build(), t_stop=2e-6, dt=2e-9, backend="sparse")
    scale = np.max(np.abs(dense.states))
    np.testing.assert_allclose(
        sparse.states / scale, dense.states / scale, rtol=1e-9, atol=1e-9
    )


def test_sparse_backend_reuses_lu_on_linear_transient(monkeypatch):
    """A linear circuit refactorizes once per integration method."""
    circuit = _rlc_filter()
    solver = SparseBackend(circuit)
    calls = []
    original = SparseBackend._factorize

    def counting(matrix):
        calls.append(1)
        return original(matrix)

    monkeypatch.setattr(SparseBackend, "_factorize", staticmethod(counting))
    simulate_transient(circuit, t_stop=1e-6, dt=2e-9, backend=solver)
    # one factorization for the DC operating point, one for the first
    # backward-Euler step, one for the trapezoidal steps
    assert len(calls) == 3


# ----------------------------------------------------------------------
# hypothesis: random RC ladders stamp identical matrices
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    n_sections=st.integers(min_value=1, max_value=25),
    log_r=st.lists(st.floats(min_value=-1.0, max_value=4.0), min_size=1, max_size=25),
    log_c=st.lists(st.floats(min_value=-15.0, max_value=-9.0), min_size=1, max_size=25),
)
def test_random_ladders_stamp_identical_matrices(n_sections, log_r, log_c):
    circuit = Circuit("random-ladder")
    circuit.add(VoltageSource("Vin", "n0", "0", dc=1.0, ac=1.0))
    for k in range(n_sections):
        r = 10.0 ** log_r[k % len(log_r)]
        c = 10.0 ** log_c[k % len(log_c)]
        circuit.add(Resistor(f"R{k}", f"n{k}", f"n{k + 1}", r))
        circuit.add(Capacitor(f"C{k}", f"n{k + 1}", "0", c))
    circuit.add(Resistor("Rterm", f"n{n_sections}", "0", 1e5))

    dense = DenseBackend(circuit)
    sparse = SparseBackend(circuit)
    x = np.linspace(-1.0, 1.0, circuit.size)

    # transient Newton system (exercises the companion models)
    ctx = StampContext(
        mode="tran", dt=1e-9, method="trap", x_prev=np.zeros(circuit.size)
    )
    jac_dense, res_dense = dense.assemble(x, ctx)
    data, res_sparse = sparse.assemble(x, ctx)
    jac_sparse = sparse._matrix(data).toarray()
    assert np.array_equal(jac_sparse, jac_dense)
    assert np.array_equal(res_sparse, res_dense)

    # AC small-signal system
    g_dense, c_dense, rhs_dense = dense.assemble_ac(x, 1e-12)
    g_data, c_data, rhs_sparse = sparse.assemble_ac(x, 1e-12)
    assert np.array_equal(sparse._matrix(g_data).toarray(), g_dense)
    assert np.array_equal(sparse._matrix(c_data).toarray(), c_dense)
    assert np.array_equal(rhs_sparse, rhs_dense)


# ----------------------------------------------------------------------
# dense AC chunking (OOM bugfix) regression
# ----------------------------------------------------------------------
def test_chunked_ac_sweep_matches_unchunked_and_analytic_peak(monkeypatch):
    """A long sweep solved in many small chunks keeps the peak shape."""
    r, l, c = 50.0, 1e-3, 1e-9
    f0 = 1.0 / (2.0 * np.pi * np.sqrt(l * c))
    q = np.sqrt(l / c) / r

    unchunked = solve_ac(_rlc_filter(), 1e4, 1e7, n_points=3001, backend="dense")
    # force chunk size 1: every frequency solved in its own batch
    monkeypatch.setattr(backend_module, "AC_CHUNK_BYTES", 1)
    chunked = solve_ac(_rlc_filter(), 1e4, 1e7, n_points=3001, backend="dense")

    assert np.array_equal(chunked.x, unchunked.x)
    magnitude = chunked.magnitude("out")
    peak = int(np.argmax(magnitude))
    assert chunked.frequencies[peak] == pytest.approx(f0, rel=2e-3)
    # RL loads the tank slightly, so allow a few percent on the Q peak
    assert magnitude[peak] == pytest.approx(q, rel=5e-2)


def test_auto_backend_switches_on_circuit_size():
    small = _rlc_filter()
    assert isinstance(resolve_backend(small, "auto"), DenseBackend)
    large = build_ladder_circuit(SPARSE_AUTO_THRESHOLD)
    assert large.size >= SPARSE_AUTO_THRESHOLD
    assert isinstance(resolve_backend(large, "auto"), SparseBackend)


def test_backend_instance_is_validated_against_circuit():
    a, b = _rlc_filter(), _rlc_filter()
    solver = DenseBackend(a)
    assert resolve_backend(a, solver) is solver
    with pytest.raises(ValueError):
        resolve_backend(b, solver)
    with pytest.raises(ValueError):
        resolve_backend(a, "cholesky")
