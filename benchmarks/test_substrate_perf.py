"""Micro-benchmarks of the two substrates the experiments lean on.

Unlike the table/figure benches these are true performance benchmarks
(multiple rounds): GP training/prediction and MNA transient throughput
set the wall-clock of every experiment above.
"""

import numpy as np
import pytest

from repro.acquisition import WeightedEI
from repro.circuits.power_amplifier import simulate_pa
from repro.core.loop import fit_pairs
from repro.gp import GPR, nargp_kernel
from repro.gp.gpr import Likelihood
from repro.mf import NARGP
from repro.optim import MSPOptimizer
from repro.problems import (
    FIDELITY_HIGH,
    FIDELITY_LOW,
    pedagogical_high,
    pedagogical_low,
)
from repro.spice import (
    Capacitor,
    Circuit,
    Resistor,
    SineWave,
    VoltageSource,
    simulate_transient,
)


@pytest.fixture(scope="module")
def training_data():
    rng = np.random.default_rng(0)
    x = rng.random((60, 5))
    y = np.sin(x @ np.arange(1.0, 6.0)) + 0.01 * rng.standard_normal(60)
    return x, y


def test_gpr_fit_60x5(benchmark, training_data):
    x, y = training_data
    rng = np.random.default_rng(1)

    def fit():
        return GPR(max_opt_iter=40).fit(x, y, n_restarts=1, rng=rng)

    model = benchmark(fit)
    assert model.n_train == 60


def test_gpr_predict_batch(benchmark, training_data):
    x, y = training_data
    model = GPR(max_opt_iter=40).fit(
        x, y, n_restarts=1, rng=np.random.default_rng(2)
    )
    grid = np.random.default_rng(3).random((500, 5))
    mu, var = benchmark(model.predict, grid)
    assert mu.shape == (500,)
    assert np.all(var > 0)


def test_nargp_fit_pedagogical(benchmark):
    rng = np.random.default_rng(4)
    x_low = np.sort(rng.random(40))[:, None]
    x_high = np.sort(rng.random(10))[:, None]

    def fit():
        return NARGP(n_restarts=1, max_opt_iter=40).fit(
            x_low, pedagogical_low(x_low),
            x_high, pedagogical_high(x_high),
            rng=np.random.default_rng(5),
        )

    model = benchmark(fit)
    assert model.high_model is not None


@pytest.fixture(scope="module")
def nargp_model():
    rng = np.random.default_rng(4)
    x_low = np.sort(rng.random(40))[:, None]
    x_high = np.sort(rng.random(10))[:, None]
    return NARGP(n_restarts=1, max_opt_iter=40).fit(
        x_low, pedagogical_low(x_low),
        x_high, pedagogical_high(x_high),
        rng=np.random.default_rng(5),
    )


def test_nargp_predict_mc_fused(benchmark, nargp_model):
    """Monte-Carlo fused prediction (paper eq. 10) — the BO-loop hot path."""
    grid = np.linspace(0.0, 1.0, 200)[:, None]
    z = np.random.default_rng(6).standard_normal(64)
    mu, var = benchmark(nargp_model.predict, grid, z=z)
    assert mu.shape == (200,)
    assert np.all(var > 0)


@pytest.fixture(scope="module")
def polish_shape():
    """Models and inputs of one wEI call at the MSP polish shape.

    The served op-amp maximizes wEI (paper eq. 6) over an objective and
    four constraints; its polish steps evaluate 6 points (d = 5) with 10
    Monte-Carlo draws. One low GP and one fused NARGP per output are fit
    once on a seeded synthetic set of 12 low / 5 high points, so no
    simulation runs. At this size per-call dispatch, not arithmetic,
    sets the cost, which ``test_nargp_predict_mc_fused`` (200 points x
    64 draws) never sees.
    """
    rng = np.random.default_rng(11)
    x_low, x_high = rng.random((12, 5)), rng.random((5, 5))
    weights = rng.standard_normal((5, 5))
    low_models, fused_models = [], []
    for w in weights:
        low = GPR(max_opt_iter=30).fit(
            x_low, np.sin(x_low @ w), n_restarts=1, rng=rng
        )
        fused = NARGP(n_restarts=1, max_opt_iter=30).fit(
            x_low, np.sin(x_low @ w),
            x_high, 1.5 * np.sin(x_high @ w) + 0.2 * (x_high @ w) ** 2,
            rng=rng, low_model=low,
        )
        low_models.append(low)
        fused_models.append(fused)
    z = rng.standard_normal(10)
    x = rng.random((6, 5))
    return low_models, fused_models, z, x


def test_wei_low_polish_shape(benchmark, polish_shape):
    """wEI on the low-fidelity GPs (Algorithm 1 line 5), one polish step."""
    low_models, _, _, x = polish_shape
    predictors = [lambda x, m=m: m.predict(x) for m in low_models]
    acq = WeightedEI(predictors[0], predictors[1:], tau=-0.5)
    values = benchmark(acq, x)
    assert values.shape == (6,)
    assert np.all(np.isfinite(values))


def test_wei_fused_polish_shape(benchmark, polish_shape):
    """wEI on the Monte-Carlo fused NARGP posteriors (line 6, eq. 10)."""
    _, fused_models, z, x = polish_shape
    predictors = [lambda x, m=m: m.predict(x, z=z) for m in fused_models]
    acq = WeightedEI(predictors[0], predictors[1:], tau=-0.5)
    values = benchmark(acq, x)
    assert values.shape == (6,)
    assert np.all(np.isfinite(values))


@pytest.fixture(scope="module")
def nlml_shape():
    """Training set of one served op-amp hyperparameter search.

    The op-amp fits its GPs on about 20 points in d = 5; L-BFGS-B calls
    the negative log marginal likelihood (paper eq. 3) and its gradient
    ~12.6k times per run, so one call's dispatch, not its arithmetic,
    sets the cost of ``gp.fit``. The fused NARGP model (eq. 9) sees the
    low-fidelity output as a sixth column. The benchmarks below time one
    model at one theta; ``test_fit_pairs_opamp_shape`` times the stacked
    calls a whole iteration makes.
    """
    rng = np.random.default_rng(12)
    x = rng.random((20, 5))
    f_low = np.sin(x @ rng.standard_normal(5))
    y = 1.5 * f_low + 0.2 * (x @ rng.standard_normal(5)) ** 2
    return x, f_low, y


def _nlml_call(benchmark, model):
    theta = (model._full_theta() + 0.1)[None]
    values, grads = benchmark(Likelihood([model]), theta, np.zeros(1, int))
    assert np.isfinite(values[0]) and values[0] < 1e25
    assert grads.shape == theta.shape and np.all(np.isfinite(grads))


def test_gpr_nlml_rbf_opamp_shape(benchmark, nlml_shape):
    """One NLML-plus-gradient call of the low-fidelity ARD RBF GP."""
    x, f_low, _ = nlml_shape
    _nlml_call(benchmark, GPR().fit(x, f_low, optimize=False))


def test_gpr_nlml_eq9_opamp_shape(benchmark, nlml_shape):
    """One NLML-plus-gradient call of the fused high-fidelity GP, whose
    kernel is eq. 9's k1(f, f') * k2(x, x') + k3(x, x') over d + 1 columns."""
    x, f_low, y = nlml_shape
    model = GPR(kernel=nargp_kernel(5)).fit(
        np.column_stack([x, f_low]), y, optimize=False
    )
    _nlml_call(benchmark, model)


@pytest.mark.parametrize("kernel_name", ["rbf", "eq9"])
def test_gpr_fit_opamp_shape(benchmark, nlml_shape, kernel_name):
    """One whole hyperparameter search at the op-amp knobs: two L-BFGS-B
    runs (the current theta and one random restart), 40 iterations each,
    of the low-fidelity RBF GP or the fused eq. 9 GP."""
    x, f_low, y = nlml_shape
    if kernel_name == "rbf":
        inputs, targets = x, f_low
    else:
        inputs, targets = np.column_stack([x, f_low]), y

    def fit():
        kernel = None if kernel_name == "rbf" else nargp_kernel(5)
        return GPR(kernel=kernel, max_opt_iter=40).fit(
            inputs, targets, n_restarts=1, rng=np.random.default_rng(13)
        )

    model = benchmark(fit)
    assert np.isfinite(model.train_result.nlml)
    assert model.train_result.nlml < 1e25


@pytest.fixture(scope="module")
def fit_pairs_shape():
    """Training sets of one served op-amp iteration: an objective and
    four constraints on 17 low- and 14 high-fidelity points in d = 5."""
    rng = np.random.default_rng(15)
    x_low, x_high = rng.random((17, 5)), rng.random((14, 5))
    weights = rng.standard_normal((5, 5))
    targets_low = [np.sin(x_low @ w) for w in weights]
    targets_high = [
        1.5 * np.sin(x_high @ w) + 0.2 * (x_high @ w) ** 2 for w in weights
    ]
    return x_low, targets_low, x_high, targets_high


def test_fit_pairs_opamp_shape(benchmark, fit_pairs_shape):
    """One iteration's model fits (§2.3, eq. 9) at the op-amp knobs: a
    low GP and a fused eq. 9 GP per output, each from its current theta
    and one random restart, 40 iterations per search."""
    x_low, targets_low, x_high, targets_high = fit_pairs_shape

    def fit():
        return fit_pairs(
            x_low, targets_low, x_high, targets_high,
            rng=np.random.default_rng(16), n_restarts=1, max_opt_iter=40,
        )

    low, fused = benchmark(fit)
    models = low + [f.high_model for f in fused]
    assert len(models) == 10
    assert all(m.train_result.nlml < 1e25 for m in models)


def test_msp_maximize_opamp_shape(benchmark, polish_shape):
    """One whole MSP search (§4.1) of the fused wEI at the op-amp knobs:
    a 60-point scatter, then two L-BFGS-B polish runs whose every step is
    one 6-point forward-difference stencil (d = 5)."""
    _, fused_models, z, _ = polish_shape
    predictors = [lambda x, m=m: m.predict(x, z=z) for m in fused_models]
    acq = WeightedEI(predictors[0], predictors[1:], tau=-0.5)

    def maximize():
        optimizer = MSPOptimizer(
            dim=5, n_starts=60, n_polish=2, rng=np.random.default_rng(14)
        )
        return optimizer.maximize(acq)

    result = benchmark(maximize)
    # The polish ran: the count exceeds the scatter plus one stencil
    # per start.
    assert result.n_evaluations > 60 + 2 * 6
    assert np.isfinite(result.value)


def test_transient_rc_1000_steps(benchmark):
    circuit = Circuit("rc")
    circuit.add(VoltageSource("V1", "in", "0",
                              waveform=SineWave(0.0, 1.0, 1e3)))
    circuit.add(Resistor("R1", "in", "out", 1e3))
    circuit.add(Capacitor("C1", "out", "0", 1e-7))

    result = benchmark(
        simulate_transient, circuit, 1e-3, 1e-6, use_ic=True
    )
    assert result.times.size == 1001


def test_pa_low_fidelity_evaluation(benchmark):
    metrics = benchmark(
        simulate_pa, 250e-12, 640e-12, 500e-6, 2.5, 1.5, FIDELITY_LOW
    )
    assert np.isfinite(metrics["Eff"])


def test_pa_high_fidelity_evaluation(benchmark):
    """The 40-period transient every Table 1 high-fidelity sample pays."""
    metrics = benchmark(
        simulate_pa, 250e-12, 640e-12, 500e-6, 2.5, 1.5, FIDELITY_HIGH
    )
    assert np.isfinite(metrics["Eff"])
