"""Tests for repro.optim.lbfgsb, the lockstep ``setulb`` loop.

Each search must replay ``scipy.optimize.minimize(..., method="L-BFGS-B")``
step for step, so the oracle here is that call: a single search must
return the same ``x`` bytes, ``fun`` and ``success``, and call its
objective at the same points in the same order. ``k`` searches in
lockstep over an objective whose rows do not depend on each other must
each equal their own single-search run, bit for bit.
"""

import importlib.util
import types

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from repro.optim import lbfgsb as lbfgsb_module
from repro.optim.lbfgsb import lbfgsb

PENALTY = 1e25  # the failed-fit value of repro.gp.gpr.Likelihood


def make_objective(kind, n, seed):
    """A ``x -> (f, grad)`` objective of one of three kinds.

    ``smooth``: a convex quadratic plus a sine ripple, exact gradient.
    ``penalty``: the same, but the 1e25 penalty with a zero gradient on
    part of the box, as a GP fit whose Cholesky fails there.
    ``inconsistent``: a gradient that does not match the values, so the
    line search can fail.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    hessian = a @ a.T + 0.1 * np.eye(n)
    center = rng.uniform(-2.0, 2.0, n)
    ripple = rng.uniform(0.0, 2.0)
    cut = rng.uniform(-1.0, 1.0)

    def fun(x):
        d = x - center
        value = 0.5 * float(d @ hessian @ d) + ripple * float(np.sin(3 * x).sum())
        grad = hessian @ d + 3 * ripple * np.cos(3 * x)
        if kind == "penalty" and x[0] > cut:
            return PENALTY, np.zeros(n)
        if kind == "inconsistent":
            grad = 1.0 - 0.5 * grad
        return value, grad

    return fun


def recording(fun, log):
    """Log each evaluated point, then scribble over the argument: a
    loop that hands the objective its own state would then diverge."""

    def wrapped(x):
        log.append(x.tobytes())
        result = fun(x)
        x[:] = np.nan
        return result

    return wrapped


def one_row(fun):
    """The ``(X, rows) -> (f, G)`` form of a single-search objective."""

    def stacked(x, rows):
        assert x.shape[0] == 1 and rows.tolist() == [0]
        value, grad = fun(x[0])
        return np.array([value]), np.asarray(grad)[None, :]

    return stacked


def run_both(fun, x0, lower, upper, maxiter):
    oracle_log, log = [], []
    oracle = minimize(
        recording(fun, oracle_log),
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=list(zip(lower, upper)),
        options={"maxiter": maxiter},
    )
    x, f, success = lbfgsb(
        one_row(recording(fun, log)), x0, lower, upper, maxiter
    )
    return oracle, oracle_log, (x[0], f[0], success[0]), log


def assert_replays(oracle, oracle_log, result, log):
    x, f, success = result
    assert log == oracle_log
    assert x.tobytes() == oracle.x.tobytes()
    assert np.float64(f).tobytes() == np.float64(oracle.fun).tobytes()
    assert success == oracle.success


@st.composite
def searches(draw):
    n = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["smooth", "penalty", "inconsistent"]))
    where = draw(st.sampled_from(["inside", "on", "outside"]))
    maxiter = draw(st.integers(1, 60))
    rng = np.random.default_rng(seed + 1)
    lower = rng.uniform(-3.0, 0.0, n)
    upper = lower + rng.uniform(0.1, 4.0, n)
    x0 = rng.uniform(lower, upper)
    if where == "on":
        on = rng.random(n) < 0.5
        on[rng.integers(n)] = True
        x0 = np.where(on, np.where(rng.random(n) < 0.5, lower, upper), x0)
    elif where == "outside":
        x0 = x0 + rng.choice([-1.0, 1.0], n) * rng.uniform(4.0, 8.0, n)
    return make_objective(kind, n, seed), x0, lower, upper, maxiter


@settings(max_examples=200, deadline=None)
@given(searches())
def test_replays_minimize_bit_for_bit(search):
    assert_replays(*run_both(*search))


@pytest.mark.parametrize(
    "kind, maxiter, status",
    [
        ("smooth", 60, "CONVERGENCE"),
        ("smooth", 2, "STOP"),
        ("inconsistent", 60, "ABNORMAL"),
    ],
)
def test_each_way_a_search_ends(kind, maxiter, status):
    """Convergence, the iteration limit and a failed line search all
    end the same way as in minimize, which labels how it ended."""
    fun = make_objective(kind, 3, seed=4)
    lower, upper = np.full(3, -3.0), np.full(3, 3.0)
    oracle, oracle_log, result, log = run_both(
        fun, np.full(3, 2.5), lower, upper, maxiter
    )
    assert oracle.message.startswith(status)
    assert_replays(oracle, oracle_log, result, log)


def test_start_is_evaluated_once_before_the_search():
    calls = []

    def fun(x):
        calls.append(x.copy())
        return float(x @ x), 2 * x

    x, f, success = lbfgsb(
        one_row(fun), [5.0, -5.0], [-1.0, -1.0], [1.0, 2.0], 10
    )
    np.testing.assert_array_equal(calls[0], [1.0, -1.0])
    assert not any(np.array_equal(a, b) for a, b in zip(calls, calls[1:]))
    assert success[0] and f[0] < 1e-12
    np.testing.assert_allclose(x[0], 0.0, atol=1e-6)


@pytest.mark.parametrize(
    "x0, lower, upper, match",
    [
        ([0.5], [0.0], [np.inf], "finite"),
        ([0.5], [np.nan], [1.0], "finite"),
        ([0.5, 0.5], [0.0, 1.0], [1.0, 0.0], "greater"),
        ([0.5, 0.5], [0.0], [1.0], "coordinates"),
        ([0.5], [0.0, 0.0], [1.0, 1.0], "coordinates"),
    ],
)
def test_rejects_bad_bounds(x0, lower, upper, match):
    with pytest.raises(ValueError, match=match):
        lbfgsb(
            lambda x, rows: (np.zeros(len(x)), np.zeros_like(x)),
            x0, lower, upper, 10,
        )


def test_rejects_a_start_stack_of_more_than_two_dimensions():
    with pytest.raises(ValueError, match="stack of starts"):
        lbfgsb(lambda x, rows: None, np.zeros((1, 1, 2)), [0, 0], [1, 1], 5)


def test_no_starts_no_calls():
    def fun(x, rows):
        raise AssertionError("never called")

    x, f, success = lbfgsb(fun, np.empty((0, 3)), np.zeros(3), np.ones(3), 5)
    assert x.shape == (0, 3) and f.shape == (0,) and success.shape == (0,)


# ---------------------------------------------------------------------------
# k searches in lockstep
# ---------------------------------------------------------------------------
def row_objective(kind, n, seed):
    """One search's objective: a convex quadratic, a bound-constrained
    Rosenbrock valley, or a quadratic that returns the 1e25 penalty
    with a zero gradient on part of the box."""
    rng = np.random.default_rng(seed)
    if kind == "rosenbrock":

        def fun(x):
            a, b = x[:-1], x[1:]
            value = float((100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2).sum())
            grad = np.zeros(n)
            grad[:-1] += -400.0 * a * (b - a * a) - 2.0 * (1.0 - a)
            grad[1:] += 200.0 * (b - a * a)
            return value, grad

        return fun
    return make_objective("penalty" if kind == "penalty" else "smooth", n, seed)


def lockstep(funs, rounds, points):
    """The ``(X, rows)`` objective whose row ``i`` is ``funs[i]``. It
    logs each round's rows and each search's points, and scribbles over
    its argument after use."""

    def stacked(x, rows):
        rounds.append(rows.tolist())
        for j, r in enumerate(rows):
            points[r].append(x[j].tobytes())
        results = [funs[r](x[j].copy()) for j, r in enumerate(rows)]
        x[:] = np.nan
        return (
            np.array([value for value, _ in results]),
            np.array([grad for _, grad in results]),
        )

    return stacked


@st.composite
def lockstep_searches(draw):
    n = draw(st.integers(2, 4))
    k = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    kinds = draw(
        st.lists(
            st.sampled_from(["quadratic", "rosenbrock", "penalty"]),
            min_size=k,
            max_size=k,
        )
    )
    maxiter = draw(st.integers(1, 40))
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-2.0, -0.5, n)
    upper = rng.uniform(0.5, 2.0, n)
    x0 = rng.uniform(lower, upper, (k, n))
    # one start on a bound, one outside the box
    x0[0, 0] = upper[0]
    x0[-1, -1] = lower[-1] - 1.0
    funs = [row_objective(kind, n, seed + i) for i, kind in enumerate(kinds)]
    return funs, x0, lower, upper, maxiter


@settings(max_examples=100, deadline=None)
@given(lockstep_searches())
def test_lockstep_equals_separate_searches_bit_for_bit(search):
    """Each of k lockstep searches equals its own k = 1 run: same point
    sequence, x bytes, f and success, whether it stops early, late, on a
    bound or at the penalty."""
    funs, x0, lower, upper, maxiter = search
    rounds, points = [], [[] for _ in funs]
    x, f, success = lbfgsb(
        lockstep(funs, rounds, points), x0, lower, upper, maxiter
    )
    assert rounds[0] == list(range(len(funs)))  # every start, once, first
    for i, fun in enumerate(funs):
        log = []
        x1, f1, success1 = lbfgsb(
            one_row(recording(fun, log)), x0[i], lower, upper, maxiter
        )
        assert points[i] == log
        assert x[i].tobytes() == x1[0].tobytes()
        assert f[i].tobytes() == f1[0].tobytes()
        assert success[i] == success1[0]
    # A round serves only the searches still asking, so there are as
    # many rounds as the longest search has evaluations.
    assert len(rounds) == max(len(p) for p in points)


def test_import_refuses_another_setulb_interface(monkeypatch):
    """The loop replays scipy >= 1.15's C interface; the Fortran-era f2py
    interface of older scipy must fail at import, naming the version."""

    def setulb(*args):
        raise AssertionError("never called")

    setulb.__doc__ = (
        "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,iprint,csave,lsave,"
        "isave,dsave,maxls)\n\nWrapper for ``setulb``."
    )
    monkeypatch.setattr(
        scipy.optimize, "_lbfgsb", types.SimpleNamespace(setulb=setulb)
    )
    spec = importlib.util.spec_from_file_location(
        "lbfgsb_under_old_scipy", lbfgsb_module.__file__
    )
    module = importlib.util.module_from_spec(spec)
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__}"):
        spec.loader.exec_module(module)
