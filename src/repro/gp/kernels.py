"""Covariance functions for Gaussian process regression.

The paper's surrogate uses one covariance function: the squared-exponential
ARD kernel of eq. (2), :class:`RBF`. All hyperparameters live in **log
space**: a kernel exposes a flat vector ``theta`` of log-parameters
together with log-space box ``bounds``; the trainer in :mod:`repro.gp.gpr`
optimizes that vector directly, which keeps positivity constraints
implicit and conditioning sane.

Kernels compose with ``+`` and ``*`` (building :class:`Sum` and
:class:`Product`), and an :class:`RBF` can be restricted to a subset of
input columns via ``active_dims`` — this is how the NARGP fusion kernel of
the paper (eq. 9) is assembled, see :func:`nargp_kernel`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

__all__ = ["Kernel", "RBF", "Sum", "Product", "nargp_kernel"]

# Log-space bounds of every kernel hyperparameter.
_LOG_VARIANCE_BOUNDS: tuple[float, float] = (float(np.log(1e-6)), float(np.log(1e4)))
_LOG_LENGTHSCALE_BOUNDS: tuple[float, float] = (float(np.log(1e-3)), float(np.log(1e3)))


def _positive_finite(value) -> bool:
    """Whether every entry of ``value`` lies in ``(0, inf)``; NaN fails."""
    value = np.asarray(value, dtype=float)
    return bool(np.all((value > 0.0) & (value < np.inf)))


def _as_2d(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D array of inputs, got shape {x.shape}")
    return x


class Kernel:
    """Base class for covariance functions.

    Subclasses implement :meth:`__call__`, :meth:`diag` and
    :meth:`value_and_traces`; hyperparameter plumbing (``theta``,
    ``bounds``, ``param_names``) is shared here.

    Workspaces
    ----------
    The theta-independent part of a kernel evaluation — the pairwise
    per-dimension squared differences — does not change between the
    hundreds of objective/gradient calls an L-BFGS-B hyperparameter
    search makes on one fixed training set. :meth:`make_workspace`
    precomputes those tensors once; passing the returned workspace to
    :meth:`__call__` / :meth:`value_and_traces` skips the recomputation.
    A workspace is only valid for the exact ``x`` it was built from (and
    ``x2 is None``); it stays valid across ``theta`` updates.
    """

    def __call__(
        self,
        x1: np.ndarray,
        x2: np.ndarray | None = None,
        workspace: dict | None = None,
    ) -> np.ndarray:
        """Covariance matrix ``K(x1, x2)`` of shape ``(n1, n2)``."""
        raise NotImplementedError

    def diag(self, x: np.ndarray) -> np.ndarray:
        """Diagonal of ``K(x, x)`` without forming the full matrix."""
        raise NotImplementedError

    def make_workspace(self, x: np.ndarray) -> dict:
        """Precompute theta-independent tensors for repeated evaluation
        of ``K(x, x)`` on a fixed ``x``."""
        x = _as_2d(x)
        workspace: dict = {"x_ref": x}
        self._build_workspace(x, workspace)
        return workspace

    def value_and_traces(
        self, x: np.ndarray, workspace: dict | None = None
    ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """``K(x, x)`` and a function that contracts a weight matrix
        against ``dK(x, x) / d theta``, from one kernel evaluation.

        The returned ``traces(inner)`` gives
        ``sum_ab inner[a,b] * dK(x,x)/dtheta_j[a,b]`` for every ``j``,
        with derivatives taken with respect to the **log-space**
        parameters of ``theta``. That is the only quantity the
        marginal-likelihood gradient needs (``inner = K^-1 - alpha
        alpha^T``); contracting it directly avoids materializing the
        ``(n_params, n, n)`` gradient stack, and ``traces`` reuses the
        factor matrices this pass computed instead of evaluating them
        again. It belongs to the ``theta`` of the pass.
        """
        raise NotImplementedError

    def _leaves(self) -> list["Kernel"]:
        """The leaf kernels of this tree, in ``theta`` order."""
        return [self]

    def _build_workspace(self, x: np.ndarray, workspace: dict) -> None:
        """Populate ``workspace`` (keyed by kernel node) for this subtree."""

    @property
    def theta(self) -> np.ndarray:
        """Flat vector of log-space hyperparameters."""
        raise NotImplementedError

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        raise NotImplementedError

    @property
    def bounds(self) -> list[tuple[float, float]]:
        """Log-space box bounds, one pair per entry of ``theta``."""
        raise NotImplementedError

    @property
    def param_names(self) -> list[str]:
        """Human readable names aligned with ``theta``."""
        raise NotImplementedError

    @property
    def n_params(self) -> int:
        return len(self.theta)

    def __add__(self, other: "Kernel") -> "Sum":
        return Sum(self, other)

    def __mul__(self, other: "Kernel") -> "Product":
        return Product(self, other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        pairs = ", ".join(
            f"{name}={np.exp(value):.4g}"
            for name, value in zip(self.param_names, self.theta)
        )
        return f"{type(self).__name__}({pairs})"


class RBF(Kernel):
    """Squared-exponential (SE) ARD kernel — paper eq. (2).

    ``k(x1, x2) = variance * exp(-0.5 * sum_i ((x1_i - x2_i) / l_i)^2)``

    ``active_dims`` restricts the kernel to a subset of input columns;
    :func:`nargp_kernel` uses it to split the augmented NARGP inputs.
    """

    def __init__(
        self,
        input_dim: int,
        variance: float = 1.0,
        lengthscales: float | Sequence[float] | np.ndarray = 1.0,
        active_dims: Sequence[int] | np.ndarray | None = None,
    ) -> None:
        if active_dims is None:
            self.active_dims = None
        else:
            dims = np.asarray(active_dims, dtype=int).ravel()
            if dims.size == 0:
                raise ValueError("active_dims must not be empty")
            if dims.size != input_dim:
                raise ValueError(
                    f"input_dim={input_dim} does not match {dims.size} active dims"
                )
            self.active_dims = dims
        if input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        self.input_dim = int(input_dim)
        scales = np.asarray(lengthscales, dtype=float) * np.ones(input_dim)
        if not (_positive_finite(variance) and _positive_finite(scales)):
            raise ValueError(
                "variance and lengthscales must be positive and finite"
            )
        self._set_log_params(float(np.log(variance)), np.log(scales))
        self._bounds = [_LOG_VARIANCE_BOUNDS] + [_LOG_LENGTHSCALE_BOUNDS] * input_dim

    def _set_log_params(
        self, log_variance: float, log_lengthscales: np.ndarray
    ) -> None:
        """Store the log-space parameters and derive the linear-space ones.

        Every kernel evaluation reads ``variance`` and
        ``_inv_sq_lengthscales``; deriving them here, once per ``theta``
        write, keeps an ``np.exp`` off each read. The derived array is
        shared by all reads, so it is made read-only.
        """
        self._log_variance = log_variance
        self._log_lengthscales = log_lengthscales
        self._variance = float(np.exp(log_variance))
        self._inv_sq_lengthscales = np.exp(-2.0 * log_lengthscales)
        self._inv_sq_lengthscales.flags.writeable = False

    @property
    def variance(self) -> float:
        return self._variance

    @property
    def lengthscales(self) -> np.ndarray:
        return np.exp(self._log_lengthscales)

    def _sq_diffs(
        self,
        x1: np.ndarray,
        x2: np.ndarray | None = None,
        workspace: dict | None = None,
    ) -> np.ndarray:
        """Pairwise per-dimension **squared** differences, unscaled.

        Returns an array of shape ``(n1, n2, d)`` containing
        ``(x1_i - x2_j)^2`` per active dimension. This tensor does not
        depend on ``theta``, so when a ``workspace`` built on the same
        ``x1`` (with ``x2 is None``) is supplied, the cached copy is
        returned instead of recomputing. The cache is keyed by the
        identity of the array the workspace was built from; any other
        input silently takes the fresh-computation path.
        """
        if (
            workspace is not None
            and x2 is None
            and self in workspace
            and workspace.get("x_ref") is x1
        ):
            return workspace[self]
        x1 = self._slice(x1)
        x2 = x1 if x2 is None else self._slice(x2)
        if x1.shape[1] != self.input_dim or x2.shape[1] != self.input_dim:
            raise ValueError(
                f"kernel expects {self.input_dim} active input dims, got "
                f"{x1.shape[1]} and {x2.shape[1]}"
            )
        diffs = x1[:, None, :] - x2[None, :, :]
        return diffs * diffs

    def _slice(self, x: np.ndarray) -> np.ndarray:
        x = _as_2d(x)
        if self.active_dims is None:
            return x
        return x[:, self.active_dims]

    def _build_workspace(self, x: np.ndarray, workspace: dict) -> None:
        workspace[self] = self._sq_diffs(x)

    def __call__(
        self,
        x1: np.ndarray,
        x2: np.ndarray | None = None,
        workspace: dict | None = None,
    ) -> np.ndarray:
        return self._from_sq_diffs(self._sq_diffs(x1, x2, workspace))

    def _from_sq_diffs(self, sq_diffs: np.ndarray) -> np.ndarray:
        """Covariance from a ``(n1, n2, d)`` :meth:`_sq_diffs` tensor.

        The one place the SE formula is evaluated; callers that already
        hold the squared differences (NARGP's fused prediction shares one
        tensor between its two x-factors) skip recomputing them.
        """
        return self.variance * np.exp(-0.5 * (sq_diffs @ self._inv_sq_lengthscales))

    def diag(self, x: np.ndarray) -> np.ndarray:
        return np.full(_as_2d(x).shape[0], self.variance)

    def value_and_traces(
        self, x: np.ndarray, workspace: dict | None = None
    ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        sq_diffs = self._sq_diffs(x, None, workspace)
        k = self._from_sq_diffs(sq_diffs)
        inv_sq = self._inv_sq_lengthscales

        def traces(inner: np.ndarray) -> np.ndarray:
            # dK/d log(variance) = K, dK/d log(l_i) = K * sq_diffs_i / l_i^2,
            # each contracted as one (n^2,) @ (n^2, d) mat-vec.
            w = inner * k
            n2 = w.size
            out = np.empty(1 + inv_sq.size)
            out[0] = w.sum()
            out[1:] = (w.reshape(n2) @ sq_diffs.reshape(n2, -1)) * inv_sq
            return out

        return k, traces

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate(([self._log_variance], self._log_lengthscales))

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float).ravel()
        if value.size != 1 + self.input_dim:
            raise ValueError(
                f"expected {1 + self.input_dim} parameters, got {value.size}"
            )
        self._set_log_params(float(value[0]), value[1:].copy())

    @property
    def bounds(self) -> list[tuple[float, float]]:
        return list(self._bounds)

    @property
    def param_names(self) -> list[str]:
        names = ["rbf.variance"]
        names += [f"rbf.lengthscale[{i}]" for i in range(self.input_dim)]
        return names


class _Combination(Kernel):
    """Base class for binary kernel compositions."""

    def __init__(self, left: Kernel, right: Kernel) -> None:
        self.left = left
        self.right = right
        # A theta write goes straight to each leaf through this plan of
        # (leaf, start, stop) slices, built once: sizing each subtree on
        # every write would re-concatenate its theta.
        plan, start = [], 0
        for leaf in left._leaves() + right._leaves():
            stop = start + leaf.n_params
            plan.append((leaf, start, stop))
            start = stop
        self._theta_plan = plan
        self._n_params = start

    def _leaves(self) -> list[Kernel]:
        return [leaf for leaf, _, _ in self._theta_plan]

    def _build_workspace(self, x: np.ndarray, workspace: dict) -> None:
        self.left._build_workspace(x, workspace)
        self.right._build_workspace(x, workspace)

    @property
    def theta(self) -> np.ndarray:
        return np.concatenate([self.left.theta, self.right.theta])

    @theta.setter
    def theta(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=float).ravel()
        if value.size != self._n_params:
            raise ValueError("parameter vector length mismatch")
        for leaf, start, stop in self._theta_plan:
            leaf.theta = value[start:stop]

    @property
    def bounds(self) -> list[tuple[float, float]]:
        return self.left.bounds + self.right.bounds

    @property
    def param_names(self) -> list[str]:
        return self.left.param_names + self.right.param_names


class Sum(_Combination):
    """Pointwise sum of two kernels."""

    def __call__(
        self,
        x1: np.ndarray,
        x2: np.ndarray | None = None,
        workspace: dict | None = None,
    ) -> np.ndarray:
        return self.left(x1, x2, workspace) + self.right(x1, x2, workspace)

    def diag(self, x: np.ndarray) -> np.ndarray:
        return self.left.diag(x) + self.right.diag(x)

    def value_and_traces(
        self, x: np.ndarray, workspace: dict | None = None
    ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        k_left, left_traces = self.left.value_and_traces(x, workspace)
        k_right, right_traces = self.right.value_and_traces(x, workspace)

        def traces(inner: np.ndarray) -> np.ndarray:
            return np.concatenate([left_traces(inner), right_traces(inner)])

        return k_left + k_right, traces


class Product(_Combination):
    """Pointwise product of two kernels."""

    def __call__(
        self,
        x1: np.ndarray,
        x2: np.ndarray | None = None,
        workspace: dict | None = None,
    ) -> np.ndarray:
        return self.left(x1, x2, workspace) * self.right(x1, x2, workspace)

    def diag(self, x: np.ndarray) -> np.ndarray:
        return self.left.diag(x) * self.right.diag(x)

    def value_and_traces(
        self, x: np.ndarray, workspace: dict | None = None
    ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        k_left, left_traces = self.left.value_and_traces(x, workspace)
        k_right, right_traces = self.right.value_and_traces(x, workspace)

        def traces(inner: np.ndarray) -> np.ndarray:
            # tr(inner (dK_l o K_r)) = tr((inner o K_r) dK_l), and vice versa.
            return np.concatenate(
                [left_traces(inner * k_right), right_traces(inner * k_left)]
            )

        return k_left * k_right, traces


def nargp_kernel(input_dim: int) -> Kernel:
    """Build the NARGP fusion kernel of the paper, eq. (9).

    The high-fidelity GP sees augmented inputs ``[x, f_l(x)]`` where the
    last column holds the low-fidelity posterior mean. The kernel is::

        k_h = k1(f_l(x1), f_l(x2)) * k2(x1, x2) + k3(x1, x2)

    with all three factors squared-exponential, exactly as the paper
    specifies. :class:`repro.mf.NARGP` reads the factors back off this
    tree as ``kernel.left.left``, ``kernel.left.right`` and
    ``kernel.right``.

    Parameters
    ----------
    input_dim:
        Dimensionality of the raw design vector ``x``.
    """
    if input_dim < 1:
        raise ValueError("input_dim must be >= 1")
    x_dims = np.arange(input_dim)
    k1 = RBF(1, active_dims=[input_dim])
    k2 = RBF(input_dim, active_dims=x_dims)
    k3 = RBF(input_dim, active_dims=x_dims)
    return k1 * k2 + k3
