"""Pareto archive, hypervolume and multi-objective acquisition tests.

The reported volumes (2-D sweep, WFG recursion) are pinned four ways:
against each other on shared cases, against brute-force Monte-Carlo
integration on random fronts, by hypothesis property tests (permutation
invariance, monotonicity under insertion, agreement with the
brute-force domination check), and bit for bit against the numpy WFG
recursion kept below as the oracle of the scalar kernel.

The Monte-Carlo EHVI scores draws on the box decomposition of the
region the front does not dominate. It is pinned bit for bit against
the plain per-draw, per-box loop kept below (``reference_mean_gains``),
within rounding against the numpy WFG oracle, and by hypothesis
property tests of the boxes: disjoint, complementary to the front's
hypervolume, exact up to the rounding of the dtype against rational
arithmetic, independent of the order of the front's rows, and silent
for draws outside the reference box.
"""

import importlib
import itertools
import math
from fractions import Fraction

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
from repro.moo.hypervolume import (
    mean_exclusive_hypervolume,
    non_dominated_boxes,
)

# The package re-exports the function ``hypervolume`` under the
# module's name.
hv_module = importlib.import_module("repro.moo.hypervolume")


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


def reference_mean_gains(samples, lower, upper, ref):
    """Plain per-draw, per-box loop in ``mean_exclusive_hypervolume``'s
    summation order: each box's side widths multiplied left to right,
    the boxes summed in order, then the draws in order. A draw gains 0
    unless it is finite and strictly inside the reference box."""
    ref = np.asarray(ref, dtype=float).ravel().tolist()
    boxes = list(zip(lower.tolist(), upper.tolist()))
    means = []
    for draws in np.asarray(samples, dtype=float).tolist():
        total = 0.0
        for s in draws:
            gain = 0.0
            if all(math.isfinite(v) and v < r for v, r in zip(s, ref)):
                for low, high in boxes:
                    volume = 1.0
                    for lj, uj, sj in zip(low, high, s):
                        volume *= max(0.0, uj - max(lj, sj))
                    gain += volume
            total += gain
        means.append(total / len(draws))
    return np.array(means)


def exact_gain(point, front, ref):
    """Exclusive hypervolume of ``point`` against ``front`` in rational
    arithmetic, independent of the box decomposition.

    Every front coordinate inside ``[point, ref]`` cuts that box into a
    grid; a cell counts when no front row is componentwise at most its
    lower corner. The comparisons are exact on floats, and the cell
    volumes are summed as ``Fraction``s.
    """
    point = np.asarray(point, dtype=float).tolist()
    ref = np.asarray(ref, dtype=float).ravel().tolist()
    if not all(math.isfinite(v) and v < r for v, r in zip(point, ref)):
        return Fraction(0)
    rows = np.asarray(front, dtype=float).reshape(-1, len(ref)).tolist()
    axes = [
        sorted({p, r, *(row[j] for row in rows if p < row[j] < r)})
        for j, (p, r) in enumerate(zip(point, ref))
    ]
    total = Fraction(0)
    for cell in itertools.product(*(range(len(a) - 1) for a in axes)):
        corner = [a[c] for a, c in zip(axes, cell)]
        if any(all(map(float.__le__, row, corner)) for row in rows):
            continue
        volume = Fraction(1)
        for a, c in zip(axes, cell):
            volume *= Fraction(a[c + 1]) - Fraction(a[c])
        total += volume
    return total


def _gamma(k):
    """Higham's ``gamma_k = k u / (1 - k u)``, ``u = 2**-53``: the
    relative error bound of ``k`` rounded operations on non-negative
    terms."""
    u = 2.0**-53
    return k * u / (1.0 - k * u)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


# Quarter-step grid: ties in every objective, and 1.25/1.5 fall outside
# the 1.1 reference box.
_GRID = st.integers(0, 6).map(lambda k: k / 4.0)


@st.composite
def tie_heavy_fronts(draw, max_points=7, min_dim=2):
    """``(n, m)`` fronts, ``min_dim <= m <= 4``, on the quarter grid,
    with duplicated rows; ``n`` may be 0."""
    m = draw(st.integers(min_dim, 4))
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


def draws_for(m, max_draws=4):
    """Hypothesis strategy: ``(k, m)`` draws mixing quarter-grid values
    (ties with the front and the 1.0 reference) with arbitrary finite
    floats."""
    value = st.one_of(
        _GRID, st.floats(-0.5, 1.5, allow_nan=False, allow_infinity=False)
    )
    return st.lists(
        st.lists(value, min_size=m, max_size=m),
        min_size=1, max_size=max_draws,
    ).map(lambda rows: np.array(rows, dtype=float))


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


class TestBoxDecomposition:
    """``non_dominated_boxes`` and the Monte-Carlo scoring pass on
    tie-heavy 3-D and 4-D fronts whose rows may repeat, lie on the 1.0
    reference box's faces or outside either reference box, or be
    absent."""

    REFS = st.sampled_from([1.0, 1.1])

    @given(tie_heavy_fronts(min_dim=3), REFS)
    @settings(max_examples=100, deadline=None)
    def test_boxes_are_disjoint_and_inside_the_reference_box(
        self, front, r
    ):
        ref = np.full(front.shape[1], r)
        lower, upper = non_dominated_boxes(front, ref)
        assert np.all(lower < upper) and np.all(upper <= ref)
        low = np.maximum(lower[:, None, :], lower[None, :, :])
        high = np.minimum(upper[:, None, :], upper[None, :, :])
        overlapping = np.all(low < high, axis=2)
        np.testing.assert_array_equal(
            overlapping, np.eye(lower.shape[0], dtype=bool)
        )

    @given(tie_heavy_fronts(min_dim=3), REFS)
    @settings(max_examples=100, deadline=None)
    def test_boxes_complement_the_hypervolume(self, front, r):
        """Box volume inside ``[ideal, r]`` plus the front's hypervolume
        is the volume of ``[ideal, r]``. The box volumes are exact
        rationals here and the hypervolume carries WFG's rounding, far
        below the tolerance; a cell of ``[ideal, r]`` covered twice or
        not at all would be off by at least ``0.1 ** m``, since the
        front's coordinates and the reference lie at least 0.1 apart."""
        m = front.shape[1]
        ref = np.full(m, r)
        inside = front[np.all(front < ref, axis=1)]
        ideal = inside.min(axis=0) if inside.size else np.zeros(m)
        lower, upper = non_dominated_boxes(front, ref)
        box_volume = Fraction(0)
        for low, high in zip(lower.tolist(), upper.tolist()):
            volume = Fraction(1)
            for lj, uj, ij in zip(low, high, ideal.tolist()):
                volume *= max(Fraction(0), Fraction(uj) - Fraction(max(lj, ij)))
            box_volume += volume
        total = math.prod(
            Fraction(rj) - Fraction(ij)
            for rj, ij in zip(ref.tolist(), ideal.tolist())
        )
        assert float(box_volume) + hypervolume(front, ref) == pytest.approx(
            float(total), rel=1e-12
        )

    @given(tie_heavy_fronts(max_points=5, min_dim=3), REFS, st.data())
    @settings(max_examples=60, deadline=None)
    def test_gain_is_exact_up_to_rounding(self, front, r, data):
        """Each draw's gain is a sum of ``K`` non-negative box volumes,
        each a product of ``m`` widths that are rounded once, so it is
        within ``gamma(K + 2m - 2)`` relative of the exact rational
        gain (Higham, Lemma 3.3 with recursive summation)."""
        m = front.shape[1]
        ref = np.full(m, r)
        lower, upper = non_dominated_boxes(front, ref)
        draws = data.draw(draws_for(m))
        gains = mean_exclusive_hypervolume(
            draws[:, None, :], lower, upper, ref
        )
        bound = Fraction(_gamma(lower.shape[0] + 2 * m - 2))
        for draw, gain in zip(draws, gains):
            exact = exact_gain(draw, front, ref)
            assert abs(Fraction(gain) - exact) <= bound * exact
        assert _bits(gains) == _bits(
            reference_mean_gains(draws[:, None, :], lower, upper, ref)
        )

    @given(
        tie_heavy_fronts(min_dim=3), REFS, st.randoms(use_true_random=False),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_row_order_does_not_change_bits(self, front, r, pyrandom, data):
        m = front.shape[1]
        ref = np.full(m, r)
        order = list(range(front.shape[0]))
        pyrandom.shuffle(order)
        draws = data.draw(draws_for(m, max_draws=6))
        samples = np.stack([draws, draws[::-1]])
        boxes = non_dominated_boxes(front, ref)
        shuffled = non_dominated_boxes(front[order], ref)
        assert _bits(boxes[0]) == _bits(shuffled[0])
        assert _bits(boxes[1]) == _bits(shuffled[1])
        assert _bits(
            mean_exclusive_hypervolume(samples, *boxes, ref)
        ) == _bits(mean_exclusive_hypervolume(samples, *shuffled, ref))

    @given(tie_heavy_fronts(min_dim=3), REFS, st.data())
    @settings(max_examples=100, deadline=None)
    def test_draws_outside_the_box_gain_exactly_zero(self, front, r, data):
        m = front.shape[1]
        ref = np.full(m, r)
        boxes = non_dominated_boxes(front, ref)
        inside = data.draw(draws_for(m, max_draws=1))[0]
        inside = np.minimum(inside, np.nextafter(r, 0.0))
        j = data.draw(st.integers(0, m - 1))
        outside = []
        for value in (np.nan, np.inf, -np.inf, r, r + 0.25):
            draw = inside.copy()
            draw[j] = value
            outside.append(draw)
        samples = np.array([[inside, draw] for draw in outside])
        with np.errstate(all="raise"):
            values = mean_exclusive_hypervolume(samples, *boxes, ref)
            alone = mean_exclusive_hypervolume(
                np.array(outside)[:, None, :], *boxes, ref
            )
            baseline = mean_exclusive_hypervolume(
                np.array([[inside, ref]]), *boxes, ref
            )
        assert _bits(alone) == _bits(np.zeros(len(outside)))
        assert _bits(values) == _bits(np.repeat(baseline, len(outside)))

    def test_blocks_do_not_change_bits(self, monkeypatch):
        """The pass scores (candidate, draw) pairs in blocks of at most
        ``_BLOCK_BYTES`` per ``(boxes, points)`` temporary; a block
        boundary inside a candidate's draws changes no bit."""
        rng = np.random.default_rng(8)
        front = 0.9 * rng.dirichlet(np.ones(3), size=6)
        ref = np.ones(3)
        lower, upper = non_dominated_boxes(front, ref)
        samples = rng.uniform(0.0, 1.0, size=(5, 7, 3))
        whole = mean_exclusive_hypervolume(samples, lower, upper, ref)
        monkeypatch.setattr(hv_module, "_BLOCK_BYTES", 8 * lower.shape[0] * 3)
        blocked = mean_exclusive_hypervolume(samples, lower, upper, ref)
        assert _bits(blocked) == _bits(whole)
        assert _bits(whole) == _bits(
            reference_mean_gains(samples, lower, upper, ref)
        )

    def test_empty_front_is_one_box_below_the_reference(self):
        ref = np.array([1.0, 2.0, 3.0])
        lower, upper = non_dominated_boxes(np.empty((0, 3)), ref)
        np.testing.assert_array_equal(lower, np.full((1, 3), -np.inf))
        np.testing.assert_array_equal(upper, ref[None, :])


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
        """Monte-Carlo EHVI on a front whose first objectives tie (0.25,
        0.25, 0.5, 0.5) and whose last row repeats, against two oracles.

        Bit for bit: ``reference_mean_gains``, the plain per-draw,
        per-box loop over the boxes of ``non_dominated_boxes``, in the
        implementation's summation order.

        Within rounding: the numpy WFG oracle, draw by draw. Every
        quantity either method forms for a draw ``s`` inside the
        reference box is a volume inside ``[s, r]`` (box widths and
        products, partial sums, WFG's inclusive box and limit-set
        volumes), so each rounding errs by at most ``eps / 2 * V`` with
        ``V = prod(r - s)``, however small the gain. That is also the
        scale of WFG's cancellation: ``inclusive - hv(limit set)`` can
        leave a gain far below ``V`` with ``V``'s absolute error. The
        box sum rounds ``K + 2m - 2 = 16`` times per draw (``K = 12``
        boxes, ``m = 3``), so it errs by at most ``8 eps V``. WFG's
        recursion over this five-row front rounds a comparable number
        of times (its inclusive box alone ``2m - 1``), and the test
        allows it as much again: ``16 eps V`` per draw. A draw outside
        the box gains exactly 0 in both. A box missing or counted twice
        would be off by its whole overlap with ``[s, r]``.
        """
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

        variances = [0.02, 0.03, 0.01]
        predictors = [linear(j, v) for j, v in enumerate(variances)]
        z = np.random.default_rng(3).standard_normal((32, 3))
        acq = ExpectedHypervolumeImprovement(predictors, front, ref, z=z)
        x = np.random.default_rng(4).uniform(0.0, 1.0, size=(6, 3))
        values = acq(x)
        assert np.all(values > 0)

        mu = np.column_stack([p(x)[0] for p in predictors])
        samples = mu[:, None, :] + np.sqrt(variances) * z[None, :, :]
        lower, upper = non_dominated_boxes(front, ref)
        assert lower.shape[0] == 12
        assert _bits(values) == _bits(
            reference_mean_gains(samples, lower, upper, ref)
        )

        draws = samples.reshape(-1, 3)
        gains = mean_exclusive_hypervolume(draws[:, None, :], lower, upper, ref)
        wfg = np.array([oracle_exclusive_hypervolume(s, front, ref) for s in draws])
        volume = np.where(
            np.all(draws < ref, axis=1), np.prod(ref - draws, axis=1), 0.0
        )
        assert np.all(np.abs(gains - wfg) <= 16 * np.finfo(float).eps * volume)


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
