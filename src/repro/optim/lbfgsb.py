"""Bound-constrained L-BFGS-B driven through scipy's ``setulb`` directly.

Algorithm 1 runs two kinds of small L-BFGS-B search: the eq. 3
hyperparameter fit of every GP (§2.3) and the MSP polish of the
acquisition (§4.1). Their objectives cost tens to hundreds of
microseconds a call, and ``scipy.optimize.minimize`` wraps each call in
``ScalarFunction`` and ``MemoizeJac`` bookkeeping that costs about as
much again. :func:`lbfgsb` runs scipy's own L-BFGS-B routine (Byrd, Lu,
Nocedal & Zhu 1995), ``setulb``, from the same reverse-communication
loop and with the same defaults as scipy's ``_minimize_lbfgsb``, minus
the wrappers. Each search therefore calls its objective at the same
points in the same order, and returns the same ``x``, ``fun`` and
``success``, as ``minimize`` with ``jac=True``, ``method="L-BFGS-B"``,
the same bounds and ``options={"maxiter": maxiter}``;
``tests/test_lbfgsb.py`` keeps that call as the oracle.
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


def lbfgsb(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    maxiter: int,
) -> tuple[np.ndarray, float, bool]:
    """Minimize ``fun`` over the box ``[lower, upper]`` with L-BFGS-B.

    Parameters
    ----------
    fun:
        ``x -> (f, grad)``. It receives its own copy of ``x`` and is
        called only at a point that differs from the last one it was
        called at.
    x0:
        Starting point, clipped into the box.
    lower, upper:
        Finite bounds, one pair per coordinate, with ``lower <= upper``.
    maxiter:
        The search stops once it has accepted ``maxiter`` iterates.

    Returns
    -------
    (x, f, success):
        The final iterate, the objective value of the last evaluation
        and whether the search converged; ``minimize``'s ``x``, ``fun``
        and ``success``.
    """
    x = np.asarray(x0, dtype=float).ravel()
    lower = np.asarray(lower, dtype=float).ravel()
    upper = np.asarray(upper, dtype=float).ravel()
    n = x.size
    if lower.size != n or upper.size != n:
        raise ValueError(
            f"x0 has {n} coordinates but the bounds have "
            f"{lower.size} lower and {upper.size} upper entries"
        )
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise ValueError("L-BFGS-B bounds must be finite")
    if (lower > upper).any():
        raise ValueError("a lower bound is greater than its upper bound")
    x = np.clip(x, lower, upper)
    nbd = np.full(n, 2, dtype=np.int32)
    wa = np.zeros(2 * _M * n + 5 * n + 11 * _M * _M + 8 * _M)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    work = (wa, iwa, task, lsave, isave, dsave)

    # minimize's ScalarFunction evaluates the start before the first
    # setulb call and afterwards only at a point that differs from the
    # last one evaluated; setulb gets a fresh float64 copy of the
    # memoized gradient at every request, since it may overwrite g.
    x_last = x.copy()
    f_last, g_last = fun(x_last.copy())
    n_evaluations = 1
    f, g = 0.0, np.zeros(n)
    n_iterations = 0
    while True:
        _lbfgsb.setulb(
            _M, x, lower, upper, nbd, f, g, _FACTR, _PGTOL, *work, _MAXLS, ln_task
        )
        if task[0] == _FG:
            if not (x == x_last).all():
                x_last = x.copy()
                f_last, g_last = fun(x_last.copy())
                n_evaluations += 1
            f, g = float(f_last), np.array(g_last, dtype=np.float64)
        elif task[0] == _NEW_X:
            n_iterations += 1
            if n_iterations >= maxiter:
                task[:] = _STOP, _ITERATION_LIMIT
            elif n_evaluations > _MAXFUN:
                task[:] = _STOP, _EVALUATION_LIMIT
        else:
            break
    return x, f, bool(task[0] == _CONVERGENCE)
