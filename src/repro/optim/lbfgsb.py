"""Bound-constrained L-BFGS-B searches driven through scipy's ``setulb``
directly, many at a time.

Algorithm 1 runs two kinds of small L-BFGS-B search, each many times
per iteration: the eq. 3 hyperparameter fit of every GP (§2.3), one
search per restart of each output's model, and the MSP polish of the
acquisition (§4.1), one search per polished start. Their objectives
cost tens to hundreds of microseconds a call, mostly per-call dispatch,
so a call that serves several searches costs little more than a call
that serves one.

:func:`lbfgsb` runs ``k`` independent searches in lockstep. Each keeps
scipy's own L-BFGS-B routine (Byrd, Lu, Nocedal & Zhu 1995), ``setulb``,
with its own state, memo, iteration cap and stopping test, replayed
from the reverse-communication loop of scipy's ``_minimize_lbfgsb``
with the same defaults, minus its ``ScalarFunction`` and
``MemoizeJac`` wrappers. Each round asks the objective once, for every
search that needs a new point; BoTorch batches its restarts the same
way (Balandat et al., NeurIPS 2020). So each search calls the objective
at the same points in the same order, and returns the same ``x``,
``fun`` and ``success``, as ``minimize`` with ``jac=True``,
``method="L-BFGS-B"``, the same bounds and
``options={"maxiter": maxiter}`` over that search's rows of the
objective; ``tests/test_lbfgsb.py`` keeps that call as the oracle.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy
from scipy.optimize import _lbfgsb

__all__ = ["lbfgsb"]

#: The 17-argument C interface of ``setulb``; scipy 1.15 ported
#: L-BFGS-B from Fortran to C and introduced it. The loop below replays
#: scipy's own loop over it, so any other interface is refused at import.
_SETULB_SIGNATURE = (
    "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,"
    "maxls,ln_task)"
)
_doc = (_lbfgsb.setulb.__doc__ or "").strip()
if not _doc.startswith(_SETULB_SIGNATURE):
    _found = _doc.splitlines()[0] if _doc else "no signature"
    raise ImportError(
        f"scipy {scipy.__version__} exposes L-BFGS-B's setulb as {_found!r}; "
        f"repro.optim.lbfgsb replays the {_SETULB_SIGNATURE} of scipy >= 1.15"
    )

# scipy's L-BFGS-B defaults: maxcor, ftol / eps, gtol, maxls and maxfun.
_M = 10
_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps
_PGTOL = 1e-5
_MAXLS = 20
_MAXFUN = 15000

# setulb's task[0] codes, and the task[1] codes of the two limits the
# loop imposes itself.
_NEW_X, _FG, _CONVERGENCE, _STOP = 1, 3, 4, 5
_EVALUATION_LIMIT, _ITERATION_LIMIT = 502, 504


class _Search:
    """One search's ``setulb`` state, memo and counters."""

    def __init__(self, x: np.ndarray) -> None:
        n = x.size
        self.x = x
        self.task = np.zeros(2, dtype=np.int32)
        # setulb's arguments after f and g, workspaces included.
        self.tail = (
            _FACTR,
            _PGTOL,
            np.zeros(2 * _M * n + 5 * n + 11 * _M * _M + 8 * _M),
            np.zeros(3 * n, dtype=np.int32),
            self.task,
            np.zeros(4, dtype=np.int32),
            np.zeros(44, dtype=np.int32),
            np.zeros(29),
            _MAXLS,
            np.zeros(2, dtype=np.int32),
        )
        self.f, self.g = 0.0, np.zeros(n)
        self.x_last = x
        self.f_last, self.g_last = 0.0, self.g
        self.n_evaluations = 0
        self.n_iterations = 0

    def remember(self, x: np.ndarray, f: float, g: np.ndarray) -> None:
        """Memoize the objective at ``x``, as ``minimize`` does."""
        self.x_last = x
        self.f_last, self.g_last = f, np.array(g, dtype=np.float64)
        self.n_evaluations += 1

    def advance(
        self, lower: np.ndarray, upper: np.ndarray, nbd: np.ndarray, maxiter: int
    ) -> bool:
        """Step ``setulb`` until it asks for the objective at a point
        other than the memoized one (True) or the search ends (False)."""
        task = self.task
        while True:
            _lbfgsb.setulb(_M, self.x, lower, upper, nbd, self.f, self.g, *self.tail)
            if task[0] == _FG:
                if not (self.x == self.x_last).all():
                    return True
                # setulb gets a fresh float64 copy of the memoized
                # gradient at every request, since it may overwrite g.
                self.f, self.g = float(self.f_last), self.g_last.copy()
            elif task[0] == _NEW_X:
                self.n_iterations += 1
                if self.n_iterations >= maxiter:
                    task[:] = _STOP, _ITERATION_LIMIT
                elif self.n_evaluations > _MAXFUN:
                    task[:] = _STOP, _EVALUATION_LIMIT
            else:
                return False


def lbfgsb(
    fun: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    maxiter: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimize from each of ``k`` starts over the box ``[lower, upper]``
    with L-BFGS-B, the ``k`` searches in lockstep.

    Parameters
    ----------
    fun:
        ``(X, rows) -> (f, G)``: the objective of the ``j`` searches
        ``rows`` (indices into the starts) at their points ``X``
        ``(j, n)``, as values ``(j,)`` and gradients ``(j, n)``. It is
        called once per round for every search that asks, receives its
        own copy of ``X``, and is called for a search only at a point
        that differs from the last one it was called at for it. Row
        ``i``'s result must not depend on the other rows for a search
        to equal its own ``k = 1`` run.
    x0:
        ``(k, n)`` starting points, each clipped into the box; a 1-D
        ``x0`` is one start.
    lower, upper:
        Finite bounds, one pair per coordinate, with ``lower <= upper``,
        shared by every search.
    maxiter:
        Each search stops once it has accepted ``maxiter`` iterates.

    Returns
    -------
    (X, f, success):
        Per search: the final iterate ``(k, n)``, the objective value of
        its last evaluation ``(k,)`` and whether it converged ``(k,)``;
        ``minimize``'s ``x``, ``fun`` and ``success``.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=float))
    lower = np.asarray(lower, dtype=float).ravel()
    upper = np.asarray(upper, dtype=float).ravel()
    if x0.ndim != 2:
        raise ValueError(f"expected a (k, n) stack of starts, got {x0.shape}")
    k, n = x0.shape
    if lower.size != n or upper.size != n:
        raise ValueError(
            f"x0 has {n} coordinates but the bounds have "
            f"{lower.size} lower and {upper.size} upper entries"
        )
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValueError("L-BFGS-B bounds must be finite")
    if (lower > upper).any():
        raise ValueError("a lower bound is greater than its upper bound")
    nbd = np.full(n, 2, dtype=np.int32)
    searches = [_Search(x.copy()) for x in np.clip(x0, lower, upper)]

    # minimize's ScalarFunction evaluates the start before the first
    # setulb call and afterwards only at a point that differs from the
    # last one evaluated.
    asking = list(range(k))
    first_round = True
    while asking:
        points = np.array([searches[i].x for i in asking])
        values, grads = fun(points.copy(), np.array(asking))
        for j, i in enumerate(asking):
            search = searches[i]
            search.remember(points[j], values[j], grads[j])
            if not first_round:
                search.f = float(search.f_last)
                search.g = search.g_last.copy()
        first_round = False
        asking = [
            i for i in asking if searches[i].advance(lower, upper, nbd, maxiter)
        ]
    x = np.array([search.x for search in searches]).reshape(k, n)
    f = np.array([search.f for search in searches])
    success = np.array([search.task[0] == _CONVERGENCE for search in searches])
    return x, f, success
