"""Numerically robust linear algebra helpers for Gaussian process models.

All GP computations in :mod:`repro.gp` funnel through this module so that
jitter policy, triangular solves and log-determinants are implemented once
and tested once.

The posterior cache's factorization and solves call LAPACK ``dpotrf``,
``dpotrs`` and ``dtrtrs`` directly: at GP sizes (n of a few dozen)
scipy's ``cholesky``/``cho_solve``/``solve_triangular`` wrappers cost
2-4x the LAPACK call they make. Each helper passes LAPACK the same arrays
and flags as the scipy function it replaces, so the results are
bit-identical to scipy's; ``tests/test_linalg.py`` keeps the scipy
functions as the oracle. The hyperparameter search factors a whole stack
of covariance matrices per likelihood pass instead
(:func:`cholesky_stack`).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpotrf as _dpotrf
from scipy.linalg.lapack import dpotrs as _dpotrs
from scipy.linalg.lapack import dtrtri as _dtrtri
from scipy.linalg.lapack import dtrtrs as _dtrtrs

__all__ = [
    "jitter_cholesky",
    "cholesky_stack",
    "invert_lower_stack",
    "cho_solve",
    "solve_lower",
    "log_det_from_chol",
    "symmetrize",
    "chol_append",
]

#: Ladder of jitter magnitudes tried (relative to the mean diagonal) before
#: a Cholesky factorization is declared failed.
JITTER_LADDER = (0.0, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2)


class CholeskyError(np.linalg.LinAlgError):
    """Raised when a matrix cannot be factored even with maximum jitter."""


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(a + a.T) / 2`` of a square matrix."""
    return 0.5 * (a + a.T)


def _cholesky_lower(a: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``a`` as
    ``scipy.linalg.cholesky(a, lower=True, check_finite=False)`` computes
    it, or ``None`` when a leading minor is not positive definite.

    Raises
    ------
    CholeskyError
        If the factor has a non-finite diagonal. OpenBLAS ``dpotrf``
        reports success on NaN input, and no diagonal jitter can repair a
        non-finite matrix.
    """
    lower, info = _dpotrf(a, lower=True, clean=True, overwrite_a=False)
    if info > 0:
        return None
    # Each diagonal entry is a square root, so the trace overflows only if
    # one of them is already infinite: it is finite iff all of them are.
    if not math.isfinite(lower.trace()):
        raise CholeskyError("Cholesky factor has a non-finite diagonal")
    return lower


def jitter_cholesky(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``a`` with adaptive diagonal jitter.

    Parameters
    ----------
    a:
        Square, (nearly) symmetric positive definite matrix.

    Returns
    -------
    (L, jitter):
        Lower triangular factor and the absolute jitter that was added to
        the diagonal to make the factorization succeed.

    Raises
    ------
    CholeskyError
        If the matrix cannot be factored even after the largest jitter in
        :data:`JITTER_LADDER`, or at once if it is not finite.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    # The mean of the diagonal, summed and divided as np.mean does it.
    diag_mean = float(a.trace() / n)
    scale = diag_mean if diag_mean > 0.0 else 1.0
    a = symmetrize(a)
    for level in JITTER_LADDER:
        jitter = level * scale
        attempt = a if jitter == 0.0 else a + jitter * np.eye(n)
        lower = _cholesky_lower(attempt)
        if lower is not None:
            return lower, jitter
    raise CholeskyError(
        "matrix is not positive definite even with jitter "
        f"{JITTER_LADDER[-1] * scale:.3e}"
    )


def cholesky_stack(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of an ``(r, n, n)`` stack, one jitter ladder
    per member.

    The stack is factored in one ``np.linalg.cholesky`` call, which runs
    LAPACK ``dpotrf`` on each member in turn. Only if some member fails
    does every member climb :data:`JITTER_LADDER` on its own, scaled by
    its own mean diagonal as in :func:`jitter_cholesky`; rung 0 repeats
    the stacked call's arithmetic, so a member's factor never depends on
    which other members share the stack.

    A member that fails every rung gets a NaN factor, and so does a
    non-finite member (OpenBLAS ``dpotrf`` reports success on NaN
    input): callers test what they compute from a factor for
    finiteness.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return np.array([_ladder_cholesky(member) for member in a])


def _ladder_cholesky(a: np.ndarray) -> np.ndarray:
    """``np.linalg.cholesky`` of ``a`` on :data:`JITTER_LADDER`; a
    NaN-filled matrix when every rung fails."""
    n = a.shape[0]
    diag_mean = float(a.trace() / n)
    scale = diag_mean if diag_mean > 0.0 else 1.0
    for level in JITTER_LADDER:
        jitter = level * scale
        attempt = a if jitter == 0.0 else a + jitter * np.eye(n)
        try:
            return np.linalg.cholesky(attempt)
        except np.linalg.LinAlgError:
            continue
    return np.full_like(a, np.nan)


def invert_lower_stack(lower: np.ndarray) -> np.ndarray:
    """``L^-1`` of each member of an ``(r, n, n)`` stack of nonsingular
    lower-triangular factors (a NaN factor gives a NaN inverse).

    One LAPACK ``dtrtri`` call per member: at GP sizes it costs about a
    fifth of what ``np.linalg.inv`` (an LU solve per member) does on the
    whole stack.
    """
    out = np.empty_like(lower)
    for i, member in enumerate(lower):
        out[i], info = _dtrtri(member, lower=1)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"singular triangular factor: zero at diagonal {info - 1}"
            )
    return out


def cho_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` given the lower Cholesky factor of ``A``."""
    x, _ = _dpotrs(lower, b, lower=True, overwrite_b=False)
    return x


def solve_lower(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the lower-triangular system ``L x = b``."""
    if lower.flags.f_contiguous:
        x, info = _dtrtrs(lower, b, lower=True, trans=0)
    else:
        # dtrtrs reads Fortran order, so an L stored otherwise (the
        # C-ordered posterior cache) is passed as the upper factor L.T of
        # the transposed system, as scipy's solve_triangular does.
        # Solving it untransposed changes the last bits of vector solves.
        x, info = _dtrtrs(lower.T, b, lower=False, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"singular triangular factor: zero at diagonal {info - 1}"
        )
    return x


def log_det_from_chol(lower: np.ndarray) -> np.ndarray:
    """Log-determinant of ``A`` from its lower Cholesky factor, or of each
    member of an ``(r, n, n)`` stack from its factors."""
    return 2.0 * np.log(np.diagonal(lower, axis1=-2, axis2=-1)).sum(axis=-1)


def chol_append(
    lower: np.ndarray, cross: np.ndarray, block: np.ndarray
) -> np.ndarray:
    """Extend a Cholesky factor when rows/columns are appended to ``A``.

    Given the lower factor ``L`` of an ``(n, n)`` matrix ``A``, return the
    lower factor of::

        [[A,        cross.T],
         [cross,    block  ]]

    in ``O(n^2 m)`` instead of the ``O((n + m)^3)`` full refactorization —
    the update a Bayesian-optimization loop needs when it appends one
    evaluation per iteration (``m = 1``).

    Parameters
    ----------
    lower:
        Lower Cholesky factor of the existing ``(n, n)`` matrix.
    cross:
        New off-diagonal block ``K(x_new, x_old)`` of shape ``(m, n)``.
    block:
        New diagonal block ``K(x_new, x_new)`` of shape ``(m, m)``.

    Raises
    ------
    CholeskyError
        If the extended matrix is not positive definite (callers should
        fall back to :func:`jitter_cholesky` on the full matrix).
    """
    lower = np.asarray(lower, dtype=float)
    cross = np.atleast_2d(np.asarray(cross, dtype=float))
    block = np.atleast_2d(np.asarray(block, dtype=float))
    n = lower.shape[0]
    m = cross.shape[0]
    if cross.shape[1] != n or block.shape != (m, m):
        raise ValueError(
            f"shape mismatch: lower {lower.shape}, cross {cross.shape}, "
            f"block {block.shape}"
        )
    l21 = solve_lower(lower, cross.T).T
    l22 = _cholesky_lower(symmetrize(block - l21 @ l21.T))
    if l22 is None:
        raise CholeskyError("appended block makes the matrix indefinite")
    out = np.zeros((n + m, n + m))
    out[:n, :n] = lower
    out[n:, :n] = l21
    out[n:, n:] = l22
    return out
