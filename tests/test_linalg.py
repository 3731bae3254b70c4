"""Tests for repro.gp.linalg."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve as scipy_cho_solve
from scipy.linalg import cholesky as scipy_cholesky
from scipy.linalg import solve_triangular as scipy_solve_triangular

import repro.gp.linalg as linalg
from repro.gp.linalg import (
    JITTER_LADDER,
    CholeskyError,
    cho_solve,
    chol_append,
    cholesky_stack,
    invert_lower_stack,
    jitter_cholesky,
    log_det_from_chol,
    solve_lower,
    symmetrize,
)


def random_spd(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


class TestJitterCholesky:
    def test_factors_spd_matrix_exactly(self):
        rng = np.random.default_rng(0)
        a = random_spd(6, rng)
        lower, jitter = jitter_cholesky(a)
        assert jitter == 0.0
        np.testing.assert_allclose(lower @ lower.T, a, rtol=1e-10)

    def test_lower_triangular(self):
        rng = np.random.default_rng(1)
        lower, _ = jitter_cholesky(random_spd(5, rng))
        assert np.allclose(lower, np.tril(lower))

    def test_near_singular_gets_jitter(self):
        v = np.ones((4, 1))
        a = v @ v.T  # rank-1, singular
        lower, jitter = jitter_cholesky(a)
        assert jitter > 0.0
        assert np.all(np.isfinite(lower))

    def test_identical_rows_kernel_matrix(self):
        # duplicate inputs produce duplicated kernel rows — the BO loop
        # relies on jitter handling this
        x = np.array([[0.5], [0.5], [0.2]])
        k = np.exp(-0.5 * (x - x.T) ** 2)
        lower, jitter = jitter_cholesky(k)
        assert np.all(np.isfinite(lower))

    def test_hopeless_matrix_raises(self):
        a = np.array([[1.0, 0.0], [0.0, -5.0]])
        with pytest.raises(CholeskyError):
            jitter_cholesky(a)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            jitter_cholesky(np.ones((2, 3)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(0, 2**31 - 1))
    def test_property_reconstruction(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_spd(n, rng)
        lower, jitter = jitter_cholesky(a)
        np.testing.assert_allclose(
            lower @ lower.T, a + jitter * np.eye(n), rtol=1e-8, atol=1e-8
        )


class TestSolves:
    def test_cho_solve_matches_direct(self):
        rng = np.random.default_rng(2)
        a = random_spd(7, rng)
        b = rng.standard_normal(7)
        lower, _ = jitter_cholesky(a)
        np.testing.assert_allclose(
            cho_solve(lower, b), np.linalg.solve(a, b), rtol=1e-9
        )

    def test_triangular_solves_roundtrip(self):
        rng = np.random.default_rng(3)
        a = random_spd(5, rng)
        lower, _ = jitter_cholesky(a)
        b = rng.standard_normal(5)
        y = solve_lower(lower, b)
        np.testing.assert_allclose(lower @ y, b, rtol=1e-10)

    def test_log_det_matches_slogdet(self):
        rng = np.random.default_rng(4)
        a = random_spd(6, rng)
        lower, _ = jitter_cholesky(a)
        _, expected = np.linalg.slogdet(a)
        assert log_det_from_chol(lower) == pytest.approx(expected, rel=1e-10)


def test_symmetrize():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = symmetrize(a)
    np.testing.assert_allclose(s, s.T)
    np.testing.assert_allclose(np.diag(s), np.diag(a))


class TestNonFiniteInput:
    """OpenBLAS ``dpotrf`` reports success on NaN input; a non-finite
    factor must not leave the ladder as a valid one."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises(self, bad):
        a = random_spd(6, np.random.default_rng(5))
        a[2, 2] = bad
        with pytest.raises(CholeskyError):
            jitter_cholesky(a)

    def test_all_nan_matrix_raises(self):
        with pytest.raises(CholeskyError):
            jitter_cholesky(np.full((3, 3), np.nan))

    def test_nan_factor_stops_the_ladder_at_once(self, monkeypatch):
        # Stand in for a dpotrf that returns info = 0 on NaN input (as
        # OpenBLAS does), whatever LAPACK this runs on: jitter cannot
        # repair the matrix, so the ladder stops at rung 0.
        calls = []

        def nan_dpotrf(a, **kwargs):
            calls.append(kwargs)
            return np.full(a.shape, np.nan), 0

        monkeypatch.setattr(linalg, "_dpotrf", nan_dpotrf)
        with pytest.raises(CholeskyError, match="non-finite"):
            jitter_cholesky(np.eye(4))
        assert len(calls) == 1

    def test_chol_append_rejects_nan_block(self):
        lower = np.linalg.cholesky(random_spd(4, np.random.default_rng(6)))
        with pytest.raises(CholeskyError):
            chol_append(lower, np.zeros((1, 4)), np.array([[np.nan]]))


# ---------------------------------------------------------------------------
# scipy.linalg as the bitwise oracle of the direct LAPACK calls
# ---------------------------------------------------------------------------
def oracle_jitter_cholesky(a):
    """The jitter ladder on scipy.linalg.cholesky, as it was before the
    direct dpotrf call."""
    a = np.asarray(a, dtype=float)
    diag_mean = float(np.mean(np.diag(a)))
    scale = diag_mean if diag_mean > 0.0 else 1.0
    a = 0.5 * (a + a.T)
    for level in JITTER_LADDER:
        jitter = level * scale
        try:
            attempt = a if jitter == 0.0 else a + jitter * np.eye(a.shape[0])
            return scipy_cholesky(attempt, lower=True, check_finite=False), jitter
        except np.linalg.LinAlgError:
            continue
    raise CholeskyError("oracle ladder exhausted")


def _layouts(a):
    """``a`` C-ordered, F-ordered and as a strided (non-contiguous) view."""
    padded = np.zeros((2 * a.shape[0], 2 * a.shape[1]))
    padded[::2, ::2] = a
    return {
        "C": np.ascontiguousarray(a),
        "F": np.asfortranarray(a),
        "strided": padded[::2, ::2],
    }


def _bytes(array):
    return array.tobytes(), array.shape, array.flags.f_contiguous


_layout = st.sampled_from(["C", "F", "strided"])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**31 - 1),
    layout=_layout,
    rank=st.sampled_from(["full", "deficient"]),
)
def test_jitter_cholesky_matches_scipy_bitwise(n, seed, layout, rank):
    rng = np.random.default_rng(seed)
    if rank == "full":
        a = random_spd(n, rng)
    else:
        # Rank-deficient PSD: rung 0 fails and the ladder climbs.
        v = rng.standard_normal((n, max(1, n // 3)))
        a = v @ v.T
    a = _layouts(a)[layout]
    try:
        expected = oracle_jitter_cholesky(a)
    except CholeskyError:
        with pytest.raises(CholeskyError):
            jitter_cholesky(a)
        return
    lower, jitter = jitter_cholesky(a)
    assert jitter == expected[1]
    assert _bytes(lower) == _bytes(expected[0])


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 2**31 - 1),
    factor_layout=_layout,
    rhs_layout=_layout,
    rhs=st.sampled_from(["1-D", "2-D", "identity"]),
)
def test_solves_match_scipy_bitwise(n, seed, factor_layout, rhs_layout, rhs):
    rng = np.random.default_rng(seed)
    lower = _layouts(
        scipy_cholesky(random_spd(n, rng), lower=True, check_finite=False)
    )[factor_layout]
    if rhs == "1-D":
        b = rng.standard_normal(2 * n)[:: 2 if rhs_layout == "strided" else 1]
        b = b[:n]
    else:
        b = np.eye(n) if rhs == "identity" else rng.standard_normal((n, 3))
        b = _layouts(b)[rhs_layout]
    assert _bytes(cho_solve(lower, b)) == _bytes(
        scipy_cho_solve((lower, True), b, check_finite=False)
    )
    assert _bytes(solve_lower(lower, b)) == _bytes(
        scipy_solve_triangular(lower, b, lower=True, check_finite=False)
    )


def test_solve_lower_transposes_c_ordered_factor():
    """dtrtrs reads Fortran order: a C-ordered factor is solved as the
    transposed upper system, as scipy does, and not as a copied lower
    one. With a vector right-hand side the two differ in the last bits
    somewhere in this sweep."""
    rng = np.random.default_rng(7)
    differs = False
    for n in range(2, 21):
        lower = np.ascontiguousarray(
            scipy_cholesky(random_spd(n, rng), lower=True, check_finite=False)
        )
        b = rng.standard_normal(n)
        got = solve_lower(lower, b)
        assert got.tobytes() == scipy_solve_triangular(
            lower, b, lower=True, check_finite=False
        ).tobytes()
        untransposed, _ = linalg._dtrtrs(np.asfortranarray(lower), b, lower=True)
        differs = differs or got.tobytes() != untransposed.tobytes()
    assert differs


def test_solve_lower_rejects_singular_factor():
    with pytest.raises(np.linalg.LinAlgError):
        solve_lower(np.array([[1.0, 0.0], [1.0, 0.0]]), np.ones(2))


class TestCholeskyStack:
    """The likelihood's stacked factorization: one ladder per member."""

    def test_members_factor_on_their_own_ladders(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        spd = a @ a.T + 6.0 * np.eye(6)
        ones = np.ones((6, 6))  # rank one: needs a jitter rung
        stack = np.stack([spd, ones, -np.eye(6), spd])
        lower = cholesky_stack(stack)
        for i in (0, 3):
            assert lower[i].tobytes() == np.linalg.cholesky(spd).tobytes()
        ladder, jitter = jitter_cholesky(ones)
        assert jitter > 0.0
        np.testing.assert_allclose(lower[1], ladder, rtol=1e-12)
        assert np.isnan(lower[2]).all()  # no rung factors -I

    def test_inverse_of_each_member(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((2, 5, 5))
        lower = np.linalg.cholesky(a @ a.transpose(0, 2, 1) + 5.0 * np.eye(5))
        inverse = invert_lower_stack(lower)
        for member, member_inverse in zip(lower, inverse):
            np.testing.assert_allclose(
                member_inverse @ member, np.eye(5), atol=1e-12
            )
            assert np.allclose(np.triu(member_inverse, 1), 0.0)
