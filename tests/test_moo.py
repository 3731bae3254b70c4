"""Pareto archive, hypervolume and multi-objective acquisition tests.

The hypervolume implementations (2-D sweep, WFG recursion) are pinned
four ways: against each other on shared cases, against brute-force
Monte-Carlo integration on random fronts, by hypothesis property tests
(permutation invariance, monotonicity under insertion, agreement with
the brute-force domination check), and bit for bit against the numpy
WFG recursion kept below as the oracle of the scalar kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.moo import (
    ExpectedHypervolumeImprovement,
    ParEGOScalarizer,
    ParetoArchive,
    constrained_non_dominated_mask,
    dominates,
    draw_simplex_weights,
    ehvi_2d,
    exclusive_hypervolume,
    hypervolume,
    hypervolume_contributions,
    non_dominated_mask,
    non_dominated_sort,
)


def brute_force_mask(points):
    """O(n^2) reference implementation of the non-dominated mask."""
    n = points.shape[0]
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and dominates(points[j], points[i]):
                mask[i] = False
                break
    return mask


def _oracle_clean_front(points, ref):
    f = np.atleast_2d(np.asarray(points, dtype=float))
    if f.size == 0:
        return f.reshape(0, ref.size)
    f = f[np.all(f < ref[None, :], axis=1)]
    if f.shape[0] == 0:
        return f
    return f[non_dominated_mask(f)]


def _oracle_hv_2d(front, ref):
    f = front[np.lexsort((front[:, 1], front[:, 0]))]
    volume = 0.0
    b_min = ref[1]
    for a, b in f:
        if b < b_min:
            volume += (ref[0] - a) * (b_min - b)
            b_min = b
    return volume


def _oracle_wfg(front, ref, kind):
    n = front.shape[0]
    if n == 0:
        return 0.0
    if n == 1:
        return float(np.prod(ref - front[0]))
    if front.shape[1] == 2:
        return _oracle_hv_2d(front, ref)
    f = front[np.argsort(-front[:, 0], kind=kind)]
    volume = 0.0
    for k in range(n):
        volume += _oracle_exclusive(f[k], f[k + 1:], ref, kind)
    return volume


def _oracle_exclusive(point, others, ref, kind):
    inclusive = float(np.prod(ref - point))
    if others.shape[0] == 0:
        return inclusive
    limited = np.maximum(others, point[None, :])
    limited = limited[np.all(limited < ref[None, :], axis=1)]
    if limited.shape[0] == 0:
        return inclusive
    limited = limited[non_dominated_mask(limited)]
    return inclusive - _oracle_wfg(limited, ref, kind)


def oracle_hypervolume(points, ref, kind=None):
    """The numpy WFG recursion the scalar kernel must reproduce bit for
    bit; ``kind`` is forwarded to the first-objective ``np.argsort``."""
    ref = np.asarray(ref, dtype=float).ravel()
    front = _oracle_clean_front(points, ref)
    if front.shape[0] == 0:
        return 0.0
    if ref.size == 2:
        return float(_oracle_hv_2d(front, ref))
    return float(_oracle_wfg(front, ref, kind))


def oracle_exclusive_hypervolume(point, others, ref):
    ref = np.asarray(ref, dtype=float).ravel()
    p = np.asarray(point, dtype=float).ravel()
    if not np.all(p < ref):
        return 0.0
    others = np.asarray(others, dtype=float).reshape(-1, ref.size)
    return float(_oracle_exclusive(p, others, ref, None))


def oracle_hypervolume_contributions(points, ref):
    f = np.asarray(points, dtype=float).reshape(-1, np.size(ref))
    return np.array(
        [
            oracle_exclusive_hypervolume(f[i], np.delete(f, i, axis=0), ref)
            for i in range(f.shape[0])
        ]
    )


def monte_carlo_hypervolume(points, ref, n_samples, rng):
    """Uniform-sampling hypervolume estimate over the ``[ideal, ref]`` box.

    The dominated region is contained in the box spanned by the
    componentwise minimum of the front and the reference point (every
    dominated ``z`` satisfies ``z >= p >= ideal`` for some front point
    ``p``), so the estimate is unbiased with standard
    ``O(1 / sqrt(n_samples))`` error.
    """
    ref = np.asarray(ref, dtype=float).ravel()
    front = _oracle_clean_front(points, ref)
    if front.shape[0] == 0:
        return 0.0
    ideal = front.min(axis=0)
    box = np.prod(ref - ideal)
    samples = rng.uniform(ideal, ref, size=(int(n_samples), ref.size))
    dominated = np.any(
        np.all(front[None, :, :] <= samples[:, None, :], axis=2), axis=1
    )
    return float(box * np.mean(dominated))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


# Quarter-step grid: ties in every objective, and 1.25/1.5 fall outside
# the 1.1 reference box.
_GRID = st.integers(0, 6).map(lambda k: k / 4.0)


@st.composite
def tie_heavy_fronts(draw, max_points=7):
    """``(n, m)`` fronts, m in {2, 3, 4}, on the quarter grid, with
    duplicated rows; ``n`` may be 0."""
    m = draw(st.integers(2, 4))
    rows = draw(
        st.lists(st.lists(_GRID, min_size=m, max_size=m), max_size=max_points)
    )
    if rows:
        copies = draw(st.lists(st.integers(0, len(rows) - 1), max_size=2))
        rows += [rows[i] for i in copies]
    return np.array(rows, dtype=float).reshape(len(rows), m)


# Four 3-D points whose first objectives tie at 0.25. numpy's AVX-512
# argsort visits the tied pair in reverse input order; a stable sort
# keeps input order and lands one ulp away.
ARGSORT_TIE_FRONT = np.array(
    [
        [0.25, 1.0, 0.375],
        [0.25, 0.875, 0.5],
        [0.75, 0.5, 0.625],
        [0.375, 0.125, 0.875],
    ]
)


def point_sets(min_dim=2, max_dim=4, max_points=12):
    """Hypothesis strategy: random objective matrices on [0, 1]^m."""
    return st.integers(min_dim, max_dim).flatmap(
        lambda m: st.integers(1, max_points).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.floats(0.0, 1.0, allow_nan=False, width=32),
                    min_size=m, max_size=m,
                ),
                min_size=n, max_size=n,
            ).map(lambda rows: np.array(rows, dtype=float))
        )
    )


class TestDomination:
    def test_dominates_basic(self):
        assert dominates([0.0, 0.0], [1.0, 1.0])
        assert dominates([0.0, 1.0], [0.0, 2.0])
        assert not dominates([0.0, 1.0], [1.0, 0.0])
        assert not dominates([1.0, 1.0], [1.0, 1.0])  # equal: no

    @given(point_sets())
    @settings(max_examples=60, deadline=None)
    def test_mask_matches_brute_force(self, points):
        np.testing.assert_array_equal(
            non_dominated_mask(points), brute_force_mask(points)
        )

    @given(point_sets())
    @settings(max_examples=40, deadline=None)
    def test_sort_rank0_is_mask(self, points):
        ranks = non_dominated_sort(points)
        np.testing.assert_array_equal(
            ranks == 0, non_dominated_mask(points)
        )
        assert np.all(ranks >= 0)

    def test_constrained_mask_feasibility_first(self):
        objectives = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        violations = np.array([2.0, 0.0, 0.0])
        mask = constrained_non_dominated_mask(objectives, violations)
        # The dominating-but-infeasible first row loses to both feasible
        # ones; (1,1) is dominated by (0.5,0.5).
        np.testing.assert_array_equal(mask, [False, False, True])

    def test_constrained_mask_no_feasible_points(self):
        objectives = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        violations = np.array([3.0, 1.0, 1.0])
        mask = constrained_non_dominated_mask(objectives, violations)
        np.testing.assert_array_equal(mask, [False, True, True])


class TestHypervolume:
    def test_single_point_box(self):
        assert hypervolume([[0.25, 0.5]], [1.0, 1.0]) == pytest.approx(0.375)
        assert hypervolume([[0.0, 0.0, 0.0]], [1.0, 2.0, 3.0]) == (
            pytest.approx(6.0)
        )

    def test_known_2d_staircase(self):
        front = [[0.1, 0.7], [0.4, 0.4], [0.7, 0.1]]
        # strips: (1-0.1)*(1-0.7) + (1-0.4)*(0.7-0.4) + (1-0.7)*(0.4-0.1)
        assert hypervolume(front, [1.0, 1.0]) == pytest.approx(0.54)

    def test_out_of_box_points_ignored(self):
        assert hypervolume([[2.0, 2.0]], [1.0, 1.0]) == 0.0
        assert hypervolume(
            [[0.5, 0.5], [0.2, 1.5]], [1.0, 1.0]
        ) == pytest.approx(0.25)

    def test_empty_front(self):
        assert hypervolume(np.empty((0, 2)), [1.0, 1.0]) == 0.0

    def test_3d_union_of_two_boxes(self):
        # vol(a) + vol(b) - vol(overlap), computable by hand
        a, b = [0.0, 0.5, 0.5], [0.5, 0.0, 0.0]
        ref = [1.0, 1.0, 1.0]
        expected = 1.0 * 0.5 * 0.5 + 0.5 * 1.0 * 1.0 - 0.5 * 0.5 * 0.5
        assert hypervolume([a, b], ref) == pytest.approx(expected)

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_monte_carlo(self, m):
        rng = np.random.default_rng(42 + m)
        for _ in range(3):
            points = rng.uniform(0.0, 1.0, size=(10, m))
            ref = np.full(m, 1.1)
            exact = hypervolume(points, ref)
            estimate = monte_carlo_hypervolume(
                points, ref, n_samples=120_000, rng=rng
            )
            assert exact == pytest.approx(estimate, abs=0.02)

    @given(point_sets(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_permutation_invariance(self, points, pyrandom):
        ref = np.full(points.shape[1], 1.1)
        order = list(range(points.shape[0]))
        pyrandom.shuffle(order)
        assert hypervolume(points, ref) == pytest.approx(
            hypervolume(points[order], ref), rel=1e-9, abs=1e-12
        )

    @given(point_sets(), point_sets(min_dim=2, max_dim=2, max_points=1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_under_insertion(self, points, extra):
        m = points.shape[1]
        rng = np.random.default_rng(0)
        new_point = rng.uniform(0.0, 1.0, size=m)
        ref = np.full(m, 1.1)
        before = hypervolume(points, ref)
        after = hypervolume(np.vstack([points, new_point]), ref)
        assert after >= before - 1e-12
        gain = exclusive_hypervolume(new_point, points, ref)
        assert after - before == pytest.approx(gain, rel=1e-9, abs=1e-12)

    @given(point_sets())
    @settings(max_examples=30, deadline=None)
    def test_dominated_points_contribute_nothing(self, points):
        ref = np.full(points.shape[1], 1.1)
        mask = non_dominated_mask(points)
        assert hypervolume(points, ref) == pytest.approx(
            hypervolume(points[mask], ref), rel=1e-9, abs=1e-12
        )

    @given(tie_heavy_fronts(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_kernel_matches_numpy_oracle_bitwise(self, points, data):
        m = points.shape[1]
        ref = np.full(m, 1.1)
        assert _bits(hypervolume(points, ref)) == _bits(
            oracle_hypervolume(points, ref)
        )
        assert _bits(hypervolume_contributions(points, ref)) == _bits(
            oracle_hypervolume_contributions(points, ref)
        )
        point = np.array(data.draw(st.lists(_GRID, min_size=m, max_size=m)))
        assert _bits(exclusive_hypervolume(point, points, ref)) == _bits(
            oracle_exclusive_hypervolume(point, points, ref)
        )

    def test_tied_first_objective_follows_argsort(self):
        ref = np.full(3, 1.1)
        expected = oracle_hypervolume(ARGSORT_TIE_FRONT, ref)
        assert _bits(hypervolume(ARGSORT_TIE_FRONT, ref)) == _bits(expected)
        keys = -ARGSORT_TIE_FRONT[:, 0]
        if not np.array_equal(np.argsort(keys), np.argsort(keys, kind="stable")):
            # Where numpy's default argsort is unstable on these keys, a
            # stable sort changes the bits.
            stable = oracle_hypervolume(ARGSORT_TIE_FRONT, ref, kind="stable")
            assert stable != expected

    def test_contributions_match_leave_one_out(self):
        rng = np.random.default_rng(5)
        points = rng.uniform(0.0, 1.0, size=(8, 3))
        ref = np.full(3, 1.1)
        contributions = hypervolume_contributions(points, ref)
        total = hypervolume(points, ref)
        for i in range(points.shape[0]):
            loo = hypervolume(np.delete(points, i, axis=0), ref)
            assert contributions[i] == pytest.approx(
                total - loo, rel=1e-9, abs=1e-12
            )


class TestParetoArchive:
    def test_incremental_matches_batch_sort(self):
        rng = np.random.default_rng(11)
        points = rng.uniform(0.0, 1.0, size=(60, 2))
        archive = ParetoArchive(2)
        for i, p in enumerate(points):
            archive.add(np.array([i / 60.0, 0.0]), p)
        expected = points[non_dominated_mask(points)]
        got = archive.front()
        assert sorted(map(tuple, got)) == sorted(map(tuple, expected))

    def test_insertion_order_invariance(self):
        rng = np.random.default_rng(12)
        points = rng.uniform(0.0, 1.0, size=(25, 3))
        fronts = []
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(len(points))
            archive = ParetoArchive(3)
            for i in order:
                archive.add(np.zeros(2), points[i])
            fronts.append(sorted(map(tuple, archive.front())))
        assert fronts[0] == fronts[1] == fronts[2]

    def test_feasible_evicts_violation_phase(self):
        archive = ParetoArchive(2)
        assert archive.add(np.zeros(1), [0.1, 0.1], violation=2.0)
        assert archive.add(np.zeros(1), [0.2, 0.2], violation=1.0)
        assert not archive.has_feasible
        assert len(archive) == 1  # lower violation displaced the first
        assert archive.add(np.zeros(1), [9.0, 9.0], violation=0.0)
        assert archive.has_feasible and len(archive) == 1
        # infeasible candidates are now always rejected
        assert not archive.add(np.zeros(1), [0.0, 0.0], violation=0.5)

    def test_rejects_non_finite(self):
        archive = ParetoArchive(2)
        assert not archive.add(np.zeros(1), [np.inf, 0.0])
        assert not archive.add(np.zeros(1), [np.nan, 0.0])
        assert len(archive) == 0

    @given(point_sets(min_dim=2, max_dim=3))
    @settings(max_examples=40, deadline=None)
    def test_front_is_nondominated_subset(self, points):
        archive = ParetoArchive(points.shape[1])
        for p in points:
            archive.add(np.zeros(1), p)
        front = archive.front()
        assert front.shape[0] >= 1
        assert np.all(non_dominated_mask(front))
        expected = points[non_dominated_mask(points)]
        assert sorted(map(tuple, front)) == sorted(map(tuple, expected))


def _gaussian_predictor(mu, var):
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)

    def predictor(x):
        n = np.atleast_2d(x).shape[0]
        return np.full(n, mu), np.full(n, var)

    return predictor


class TestEHVI:
    FRONT = np.array([[0.2, 0.8], [0.5, 0.5], [0.8, 0.2]])
    REF = np.array([1.0, 1.0])

    def test_empty_front_is_product_of_partial_expectations(self):
        from scipy.stats import norm

        mu, s = np.array([[0.4, 0.6]]), 0.05
        value = ehvi_2d(mu, np.full((1, 2), s**2), np.empty((0, 2)), self.REF)

        def eplus(c, m):
            lam = (c - m) / s
            return s * norm.pdf(lam) + (c - m) * norm.cdf(lam)

        assert value[0] == pytest.approx(
            eplus(1.0, 0.4) * eplus(1.0, 0.6), rel=1e-12
        )

    def test_closed_form_matches_monte_carlo(self):
        rng = np.random.default_rng(7)
        mu = np.array([[0.35, 0.35], [0.6, 0.9], [0.05, 0.95]])
        sigma = 0.1
        exact = ehvi_2d(mu, np.full_like(mu, sigma**2), self.FRONT, self.REF)
        z = rng.standard_normal((40_000, 2))
        for i in range(mu.shape[0]):
            samples = mu[i][None, :] + sigma * z
            mc = np.mean(
                [
                    exclusive_hypervolume(s, self.FRONT, self.REF)
                    for s in samples
                ]
            )
            assert exact[i] == pytest.approx(mc, abs=3e-3)

    def test_deep_in_dominated_region_is_negligible(self):
        value = ehvi_2d(
            np.array([[0.95, 0.95]]), np.full((1, 2), 1e-4),
            self.FRONT, self.REF,
        )
        assert value[0] < 1e-8

    def test_tiny_variance_recovers_plain_improvement(self):
        candidate = np.array([0.1, 0.1])
        value = ehvi_2d(
            candidate[None, :], np.full((1, 2), 1e-16), self.FRONT, self.REF
        )
        expected = exclusive_hypervolume(candidate, self.FRONT, self.REF)
        assert value[0] == pytest.approx(expected, rel=1e-6)

    def test_acquisition_object_2d_and_constraints(self):
        objective_predictors = [
            _gaussian_predictor(0.1, 0.01), _gaussian_predictor(0.1, 0.01),
        ]
        base = ExpectedHypervolumeImprovement(
            objective_predictors, self.FRONT, self.REF
        )
        # A constraint that is surely violated wipes out the acquisition.
        sure_violation = _gaussian_predictor(10.0, 1e-6)
        constrained = ExpectedHypervolumeImprovement(
            objective_predictors, self.FRONT, self.REF,
            constraint_predictors=[sure_violation],
        )
        x = np.zeros((1, 2))
        assert base(x)[0] > 0
        assert constrained(x)[0] == pytest.approx(0.0, abs=1e-12)

    def test_mc_path_requires_z_for_3d(self):
        predictors = [_gaussian_predictor(0.5, 0.01)] * 3
        with pytest.raises(ValueError):
            ExpectedHypervolumeImprovement(
                predictors, np.empty((0, 3)), np.ones(3)
            )
        z = np.random.default_rng(0).standard_normal((64, 3))
        acq = ExpectedHypervolumeImprovement(
            predictors, np.empty((0, 3)), np.ones(3), z=z
        )
        values = acq(np.zeros((2, 4)))
        assert values.shape == (2,) and np.all(values > 0)
        # fixed draws -> deterministic acquisition
        np.testing.assert_array_equal(values, acq(np.zeros((2, 4))))

    def test_mc_path_rejects_zero_draws(self):
        predictors = [_gaussian_predictor(0.5, 0.01)] * 3
        with pytest.raises(ValueError, match="draw"):
            ExpectedHypervolumeImprovement(
                predictors, np.empty((0, 3)), np.ones(3), z=np.empty((0, 3))
            )

    def test_mc_path_matches_oracle_gains_on_tied_front(self):
        # First objectives tie (0.25, 0.25, 0.5, 0.5) and one row repeats,
        # so limit sets reach the kernel's argsort branch.
        front = np.array(
            [
                [0.25, 0.5, 0.75],
                [0.25, 0.75, 0.5],
                [0.5, 0.25, 0.5],
                [0.5, 0.5, 0.25],
                [0.5, 0.5, 0.25],
            ]
        )
        ref = np.ones(3)

        def linear(j, var):
            def predictor(x):
                x = np.atleast_2d(x)
                return 0.2 + 0.5 * x[:, j], np.full(x.shape[0], var)

            return predictor

        predictors = [linear(0, 0.02), linear(1, 0.03), linear(2, 0.01)]
        z = np.random.default_rng(3).standard_normal((32, 3))
        acq = ExpectedHypervolumeImprovement(predictors, front, ref, z=z)
        x = np.random.default_rng(4).uniform(0.0, 1.0, size=(6, 3))
        values = acq(x)

        expected = np.zeros(x.shape[0])
        for i in range(x.shape[0]):
            mu = np.array([p(x[i : i + 1])[0][0] for p in predictors])
            sigma = np.sqrt([0.02, 0.03, 0.01])
            gain = 0.0
            for sample in mu[None, :] + sigma[None, :] * z:
                gain += oracle_exclusive_hypervolume(sample, front, ref)
            expected[i] = gain / z.shape[0]
        assert np.all(values > 0)
        assert _bits(values) == _bits(expected)


class TestParEGO:
    def test_weights_on_simplex(self):
        rng = np.random.default_rng(0)
        for m in (2, 3, 5):
            w = draw_simplex_weights(m, rng)
            assert w.shape == (m,) and np.all(w >= 0)
            assert np.sum(w) == pytest.approx(1.0)

    def test_scalarization_preserves_domination(self):
        rng = np.random.default_rng(1)
        ideal, nadir = np.zeros(3), np.ones(3)
        for _ in range(20):
            scalarizer = ParEGOScalarizer(
                draw_simplex_weights(3, rng), ideal, nadir
            )
            a = rng.uniform(0.0, 0.9, size=3)
            b = a + rng.uniform(0.01, 0.1, size=3)  # a dominates b
            va, vb = scalarizer.scalarize(np.vstack([a, b]))
            assert va < vb

    def test_degenerate_span_does_not_nan(self):
        scalarizer = ParEGOScalarizer(
            np.array([0.5, 0.5]), np.zeros(2), np.zeros(2)
        )
        values = scalarizer.scalarize(np.array([[1.0, 2.0]]))
        assert np.all(np.isfinite(values))
