"""Exact hypervolume indicators (minimization).

The hypervolume of a point set ``F`` w.r.t. a reference point ``r`` is
the Lebesgue measure of the region dominated by ``F`` and bounded by
``r`` — the standard scalar quality measure of a Pareto front, and the
quantity the ``tab5`` experiment plots against simulation cost.

* 2-D: the classic O(n log n) sweep over the front sorted by the first
  objective.
* 3-D and higher: the WFG algorithm (While, Bradstreet & Barone, IEEE
  TEC 2012) — the union volume is decomposed into per-point *exclusive*
  contributions ``inclhv(p_k) - hv(limitset)``, with non-dominated
  pruning of every limit set. Exact for any dimension; practical for
  the front sizes a BO archive produces (tens of points).

Points that do not strictly dominate the reference point contribute
nothing and are filtered on entry, so callers may pass raw fronts.

The recursion runs over tuples of Python floats: the Monte-Carlo EHVI
calls it once per draw on fronts of a few points, where numpy's
per-call overhead would dominate the arithmetic. It performs the same
IEEE operations in the same order as the numpy WFG recursion that
``tests/test_moo.py`` keeps as its oracle — left-to-right box
products, element-wise maxima, and ``np.argsort``'s permutation
wherever first-objective keys tie — so every volume is bitwise equal
to the oracle's.
"""

from __future__ import annotations

import math
from operator import itemgetter, le, lt, sub
from typing import Sequence

import numpy as np

from .pareto import non_dominated_mask

__all__ = [
    "hypervolume",
    "exclusive_hypervolume",
    "hypervolume_contributions",
]

Point = tuple[float, ...]


def _as_matrix(points: np.ndarray, m: int) -> np.ndarray:
    """``points`` as an ``(n, m)`` float matrix (empty input allowed)."""
    f = np.atleast_2d(np.asarray(points, dtype=float))
    if f.size == 0:
        return f.reshape(0, m)
    if f.shape[1] != m:
        raise ValueError(f"points have {f.shape[1]} objectives, reference {m}")
    return f


def _clean_front(points: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rows strictly inside the reference box, reduced to their
    non-dominated subset."""
    f = _as_matrix(points, ref.size)
    f = f[np.all(f < ref[None, :], axis=1)]
    if f.shape[0] == 0:
        return f
    return f[non_dominated_mask(f)]


def _rows(matrix: np.ndarray) -> list[Point]:
    """Rows of ``matrix`` as tuples of Python floats."""
    return [tuple(row) for row in matrix.tolist()]


def _inside(point: Point, ref: Point) -> bool:
    """True when ``point`` lies strictly inside the reference box."""
    return all(map(lt, point, ref))


def _box(point: Point, ref: Point) -> float:
    """``prod(ref - point)``, multiplied left to right like ``np.prod``."""
    return math.prod(map(sub, ref, point))


def _non_dominated(rows: list[Point]) -> list[Point]:
    """Rows no other row dominates, in input order; duplicates stay."""
    if len(rows) < 2:
        return rows
    kept: list[Point] = []
    for a in rows:
        for b in rows:
            if all(map(le, b, a)) and b != a:
                break
        else:
            kept.append(a)
    return kept


def _hv_2d(front: Sequence[Point], ref: Point) -> float:
    """Sweep over the front sorted ascending in the first objective."""
    r0, b_min = ref
    volume = 0.0
    for a, b in sorted(front):
        if b < b_min:
            volume += (r0 - a) * (b_min - b)
            b_min = b
    return volume


def _wfg(front: Sequence[Point], ref: Point) -> float:
    """WFG union volume of a non-dominated front inside the ref box."""
    n = len(front)
    if n == 0:
        return 0.0
    if n == 1:
        return _box(front[0], ref)
    if len(ref) == 2:
        return _hv_2d(front, ref)
    # Sorting by the first objective (descending) makes limit sets
    # collapse quickly, which is where WFG gets its speed. Tied keys
    # take np.argsort's permutation: it is not stable on every host,
    # and the visiting order moves the last bits of the sum.
    keys = [p[0] for p in front]
    if len(set(keys)) == n:
        front = sorted(front, key=itemgetter(0), reverse=True)
    else:
        front = [front[i] for i in np.argsort(-np.array(keys)).tolist()]
    volume = 0.0
    for k in range(n):
        volume += _exclusive(front[k], front[k + 1 :], ref)
    return volume


def _exclusive(point: Point, others: Sequence[Point], ref: Point) -> float:
    """Volume dominated by ``point`` but by none of ``others``.

    ``point`` and every row of ``others`` lie strictly inside the
    reference box, so every limit-set row does too.
    """
    inclusive = _box(point, ref)
    if not others:
        return inclusive
    limited = [tuple(map(max, other, point)) for other in others]
    return inclusive - _wfg(_non_dominated(limited), ref)


def hypervolume(points: np.ndarray, ref: np.ndarray) -> float:
    """Exact hypervolume of ``points`` w.r.t. reference ``ref``.

    ``points`` is ``(n, m)`` with ``m >= 2``; rows outside the reference
    box are ignored. Returns 0 for an empty (or fully out-of-box) set.
    """
    ref = np.asarray(ref, dtype=float).ravel()
    if ref.size < 2:
        raise ValueError("hypervolume needs at least two objectives")
    front = _rows(_clean_front(points, ref))
    r = tuple(ref.tolist())
    if ref.size == 2:
        return _hv_2d(front, r)
    return _wfg(front, r)


def exclusive_hypervolume(
    point: np.ndarray, others: np.ndarray, ref: np.ndarray
) -> float:
    """Hypervolume gained by adding ``point`` to the front ``others``.

    Equals ``hypervolume(others + [point]) - hypervolume(others)``
    computed directly from one limit set instead of two full WFG runs —
    the work-horse of both contribution ranking and the Monte-Carlo
    EHVI.
    """
    ref = np.asarray(ref, dtype=float).ravel()
    p = np.asarray(point, dtype=float).ravel()
    if p.size != ref.size:
        raise ValueError(f"point has {p.size} objectives, reference {ref.size}")
    r = tuple(ref.tolist())
    q = tuple(p.tolist())
    if not _inside(q, r):
        return 0.0
    # A row outside the box limits to one outside it too, so dropping
    # it first leaves the limit set unchanged.
    rows = [o for o in _rows(_as_matrix(others, ref.size)) if _inside(o, r)]
    return _exclusive(q, rows, r)


def hypervolume_contributions(points: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per-point exclusive hypervolume contributions.

    ``contributions[i]`` is the hypervolume lost by removing point ``i``
    from the set — the ranking :class:`repro.moo.MOMFBOptimizer` uses to
    pick a representative incumbent from its archive. Dominated and
    duplicated points contribute 0.
    """
    ref = np.asarray(ref, dtype=float).ravel()
    rows = _rows(_as_matrix(points, ref.size))
    r = tuple(ref.tolist())
    inside = [(i, p) for i, p in enumerate(rows) if _inside(p, r)]
    contributions = np.zeros(len(rows))
    for i, p in inside:
        others = [o for j, o in inside if j != i]
        contributions[i] = _exclusive(p, others, r)
    return contributions


def mean_exclusive_hypervolume(
    samples: np.ndarray, front: np.ndarray, ref: np.ndarray
) -> np.ndarray:
    """Per-candidate mean gain of ``(n, n_draws, m)`` sampled points.

    Row ``i`` is bitwise ``sum(exclusive_hypervolume(s, front, ref) for
    s in samples[i]) / n_draws``, summed in draw order — the Monte-Carlo
    EHVI estimate, with front, reference point and samples converted to
    Python floats once per call instead of once per draw.
    """
    n, n_draws, m = samples.shape
    r = tuple(np.asarray(ref, dtype=float).ravel().tolist())
    rows = [o for o in _rows(_as_matrix(front, m)) if _inside(o, r)]
    means = np.zeros(n)
    for i, draws in enumerate(samples.tolist()):
        gain = 0.0
        for draw in draws:
            p = tuple(draw)
            if _inside(p, r):
                gain += _exclusive(p, rows, r)
        means[i] = gain / n_draws
    return means
