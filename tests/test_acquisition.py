"""Tests for repro.acquisition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from repro.acquisition import (
    LCB,
    ExpectedImprovement,
    ViolationAcquisition,
    WeightedEI,
    expected_improvement,
    lower_confidence_bound,
    probability_of_feasibility,
    probability_of_improvement,
)
from repro.acquisition.functions import _norm_cdf, _norm_pdf
from repro.moo import non_dominated_mask
from repro.moo.acquisition import _psi, ehvi_2d


def constant_predictor(mu, var):
    mu, var = float(mu), float(var)
    return lambda x: (
        np.full(np.atleast_2d(x).shape[0], mu),
        np.full(np.atleast_2d(x).shape[0], var),
    )


class TestExpectedImprovement:
    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        mu, sigma, tau = 1.2, 0.8, 1.0
        samples = rng.normal(mu, sigma, size=400_000)
        mc = np.mean(np.maximum(0.0, tau - samples))
        analytic = expected_improvement(
            np.array([mu]), np.array([sigma**2]), tau
        )[0]
        assert analytic == pytest.approx(mc, rel=0.02)

    def test_zero_variance_no_improvement(self):
        value = expected_improvement(np.array([2.0]), np.array([0.0]), 1.0)
        assert value[0] == pytest.approx(0.0, abs=1e-9)

    def test_zero_variance_sure_improvement(self):
        value = expected_improvement(np.array([0.0]), np.array([0.0]), 1.0)
        assert value[0] == pytest.approx(1.0, abs=1e-6)

    def test_increases_with_uncertainty(self):
        mu = np.array([1.5, 1.5])
        var = np.array([0.01, 1.0])
        ei = expected_improvement(mu, var, 1.0)
        assert ei[1] > ei[0]

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(-5, 5), st.floats(0.01, 5), st.floats(-5, 5)
    )
    def test_property_nonnegative(self, mu, sigma, tau):
        value = expected_improvement(
            np.array([mu]), np.array([sigma**2]), tau
        )
        assert value[0] >= 0.0

    def test_wrapper_class(self):
        acq = ExpectedImprovement(constant_predictor(0.0, 1.0), tau=0.5)
        values = acq(np.zeros((4, 2)))
        assert values.shape == (4,)
        assert np.all(values > 0)


class TestProbabilityFunctions:
    def test_pf_half_at_boundary(self):
        pf = probability_of_feasibility(np.array([0.0]), np.array([1.0]))
        assert pf[0] == pytest.approx(0.5)

    def test_pf_matches_normal_cdf(self):
        mu, var = np.array([-1.0]), np.array([4.0])
        expected = norm.cdf(1.0 / 2.0)
        assert probability_of_feasibility(mu, var)[0] == pytest.approx(expected)

    def test_pf_certain_feasible(self):
        pf = probability_of_feasibility(np.array([-5.0]), np.array([1e-12]))
        assert pf[0] == pytest.approx(1.0)

    def test_pi_monotone_in_tau(self):
        mu, var = np.array([0.0]), np.array([1.0])
        assert (probability_of_improvement(mu, var, 1.0)
                > probability_of_improvement(mu, var, -1.0))


class TestWeightedEI:
    def test_reduces_to_ei_without_constraints(self):
        predictor = constant_predictor(0.0, 1.0)
        wei = WeightedEI(predictor, [], tau=0.5)
        ei = ExpectedImprovement(predictor, tau=0.5)
        x = np.zeros((3, 2))
        np.testing.assert_allclose(wei(x), ei(x))

    def test_infeasible_region_suppressed(self):
        objective = constant_predictor(0.0, 1.0)
        feasible_c = constant_predictor(-3.0, 0.1)   # almost surely ok
        infeasible_c = constant_predictor(+3.0, 0.1)  # almost surely violated
        x = np.zeros((1, 2))
        good = WeightedEI(objective, [feasible_c], tau=0.5)(x)[0]
        bad = WeightedEI(objective, [infeasible_c], tau=0.5)(x)[0]
        assert bad < 1e-3 * good

    def test_multiple_constraints_multiply(self):
        objective = constant_predictor(0.0, 1.0)
        c = constant_predictor(0.0, 1.0)  # PF = 0.5 each
        x = np.zeros((1, 2))
        one = WeightedEI(objective, [c], tau=0.5)(x)[0]
        two = WeightedEI(objective, [c, c], tau=0.5)(x)[0]
        assert two == pytest.approx(0.5 * one)

    def test_no_tau_pure_feasibility(self):
        objective = constant_predictor(0.0, 1.0)
        c = constant_predictor(0.0, 1.0)
        wei = WeightedEI(objective, [c], tau=None)
        assert wei(np.zeros((1, 2)))[0] == pytest.approx(0.5)


class TestLCB:
    def test_lower_confidence_bound_formula(self):
        value = lower_confidence_bound(np.array([1.0]), np.array([4.0]), 2.0)
        assert value[0] == pytest.approx(1.0 - 2.0 * 2.0)

    def test_wrapper_negates(self):
        acq = LCB(constant_predictor(1.0, 4.0), beta=2.0)
        assert acq(np.zeros((1, 2)))[0] == pytest.approx(3.0)

    def test_beta_zero_is_mean(self):
        acq = LCB(constant_predictor(1.5, 4.0), beta=0.0)
        assert acq(np.zeros((1, 1)))[0] == pytest.approx(-1.5)

    def test_negative_beta_raises(self):
        with pytest.raises(ValueError):
            LCB(constant_predictor(0, 1), beta=-1.0)


class TestViolationAcquisition:
    def test_feasible_prediction_gives_zero(self):
        acq = ViolationAcquisition([constant_predictor(-1.0, 0.1)])
        assert acq(np.zeros((1, 2)))[0] == pytest.approx(0.0)

    def test_violations_accumulate(self):
        acq = ViolationAcquisition([
            constant_predictor(2.0, 0.1),
            constant_predictor(3.0, 0.1),
        ])
        assert acq(np.zeros((1, 2)))[0] == pytest.approx(-5.0)

    def test_maximizer_prefers_smaller_violation(self):
        acq = ViolationAcquisition([constant_predictor(2.0, 0.1)])
        better = ViolationAcquisition([constant_predictor(0.5, 0.1)])
        x = np.zeros((1, 2))
        assert better(x)[0] > acq(x)[0]

    def test_empty_constraints_raise(self):
        with pytest.raises(ValueError):
            ViolationAcquisition([])


# ---------------------------------------------------------------------------
# Phi/phi without scipy.stats, bitwise against the scipy.stats formulas
# ---------------------------------------------------------------------------
# The oracle: the scipy.stats.norm-based EI, PI, PF, _psi and ehvi_2d the
# library ran before it computed Phi/phi itself, kept verbatim.
def oracle_expected_improvement(mu, var, tau):
    mu = np.asarray(mu, dtype=float)
    sigma = np.sqrt(np.maximum(np.asarray(var, dtype=float), 0.0))
    sigma = np.maximum(sigma, 1e-12)
    lam = (tau - mu) / sigma
    return sigma * (lam * norm.cdf(lam) + norm.pdf(lam))


def oracle_probability_of_improvement(mu, var, tau):
    mu = np.asarray(mu, dtype=float)
    sigma = np.maximum(np.sqrt(np.maximum(var, 0.0)), 1e-12)
    return norm.cdf((tau - mu) / sigma)


def oracle_probability_of_feasibility(mu, var):
    mu = np.asarray(mu, dtype=float)
    sigma = np.maximum(np.sqrt(np.maximum(var, 0.0)), 1e-12)
    return norm.cdf(-mu / sigma)


def oracle_psi(a, b, mu, sigma):
    lam = (b - mu) / sigma
    return sigma * norm.pdf(lam) + (a - mu) * norm.cdf(lam)


def oracle_ehvi_2d(mu, var, front, ref):
    mu = np.atleast_2d(np.asarray(mu, dtype=float))
    sigma = np.sqrt(np.maximum(np.atleast_2d(np.asarray(var, dtype=float)), 0.0))
    sigma = np.maximum(sigma, 1e-12)
    ref = np.asarray(ref, dtype=float).ravel()
    front = np.atleast_2d(np.asarray(front, dtype=float))
    if front.size:
        front = front[np.all(front < ref[None, :], axis=1)]
    if front.size:
        front = front[non_dominated_mask(front)]
        front = front[np.argsort(front[:, 0])]
    a = np.append(front[:, 0] if front.size else np.empty(0), ref[0])
    b_prev = np.concatenate(
        ([ref[1]], front[:, 1] if front.size else np.empty(0))
    )
    b_next = np.append(front[:, 1] if front.size else np.empty(0), -np.inf)
    mu1, s1 = mu[:, 0:1], sigma[:, 0:1]
    mu2, s2 = mu[:, 1:2], sigma[:, 1:2]
    term1 = oracle_psi(a[None, :], a[None, :], mu1, s1)
    lam_next = (b_next[None, :] - mu2) / s2
    cdf_next = norm.cdf(lam_next)
    psi_prev_prev = oracle_psi(b_prev[None, :], b_prev[None, :], mu2, s2)
    psi_prev_next = s2 * norm.pdf(lam_next) + (b_prev[None, :] - mu2) * cdf_next
    gap = np.where(np.isfinite(b_next), b_prev - b_next, 0.0)
    term2 = gap[None, :] * cdf_next + psi_prev_prev - psi_prev_next
    return np.maximum(np.sum(term1 * term2, axis=1), 0.0)


def assert_same_bits(actual, expected):
    """Same type, dtype, shape and bytes, so the sign of zero counts.

    NaNs match by position only: for a NaN argument scipy.stats writes
    its own NaN where numpy arithmetic propagates the operand's, and the
    sign bit of a NaN carries no value.
    """
    assert type(actual) is type(expected)
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    assert (
        np.where(nan, 0.0, actual).tobytes()
        == np.where(nan, 0.0, expected).tobytes()
    )


_SPECIAL = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-300, 1e-12,
    1e-160, 1.4e154, 1e308, -1e308, 8.3, -8.3, 38.5, -38.5,
]
_FLOATS = st.one_of(
    st.sampled_from(_SPECIAL),
    st.floats(-12.0, 12.0),
    st.floats(allow_nan=True, allow_infinity=True),
)
_SHAPES = st.sampled_from([(), (1,), (3,), (7,), (2, 3), (4, 2), (1, 5)])


@st.composite
def float_arrays(draw, shape):
    """A float64 array of ``shape`` in C order, as a strided view, or
    (2-D) in Fortran order."""
    values = draw(
        st.lists(
            _FLOATS,
            min_size=int(np.prod(shape)),
            max_size=int(np.prod(shape)),
        )
    )
    array = np.array(values, dtype=float).reshape(shape)
    layout = draw(st.sampled_from(["c", "strided", "fortran"]))
    if layout == "strided":
        wide = np.empty(shape + (2,))
        wide[..., 0] = array
        array = wide[..., 0]
    elif layout == "fortran":
        array = np.asfortranarray(array)
    return array


class TestNormalWithoutScipyStats:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_helpers_match_scipy_stats_bitwise(self, data):
        x = data.draw(float_arrays(data.draw(_SHAPES)))
        with np.errstate(all="ignore"):
            assert_same_bits(_norm_cdf(x), norm.cdf(x))
            assert_same_bits(_norm_pdf(x), norm.pdf(x))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_ei_pi_pf_match_oracle_bitwise(self, data):
        shape = data.draw(_SHAPES)
        mu = data.draw(float_arrays(shape))
        var = data.draw(float_arrays(shape))
        tau = data.draw(_FLOATS)
        with np.errstate(all="ignore"):
            assert_same_bits(
                expected_improvement(mu, var, tau),
                oracle_expected_improvement(mu, var, tau),
            )
            assert_same_bits(
                probability_of_improvement(mu, var, tau),
                oracle_probability_of_improvement(mu, var, tau),
            )
            assert_same_bits(
                probability_of_feasibility(mu, var),
                oracle_probability_of_feasibility(mu, var),
            )

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_psi_matches_oracle_bitwise(self, data):
        shape = data.draw(_SHAPES)
        a, b, mu, sigma = (data.draw(float_arrays(shape)) for _ in range(4))
        with np.errstate(all="ignore"):
            assert_same_bits(_psi(a, b, mu, sigma), oracle_psi(a, b, mu, sigma))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_ehvi_2d_matches_oracle_bitwise(self, data):
        n = data.draw(st.integers(1, 6))
        mu = data.draw(float_arrays((n, 2)))
        var = data.draw(float_arrays((n, 2)))
        # Quarter-grid fronts: tied coordinates, dominated rows and rows
        # outside the reference box.
        k = data.draw(st.integers(0, 5))
        grid = st.integers(-4, 6).map(lambda i: i / 4.0)
        front = np.array(
            data.draw(st.lists(grid, min_size=2 * k, max_size=2 * k)),
            dtype=float,
        ).reshape(k, 2)
        ref = np.array([1.1, 1.0])
        with np.errstate(all="ignore"):
            assert_same_bits(
                ehvi_2d(mu, var, front, ref), oracle_ehvi_2d(mu, var, front, ref)
            )
