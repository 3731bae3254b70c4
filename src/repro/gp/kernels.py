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
    :meth:`stack_value_and_traces`; hyperparameter plumbing (``theta``,
    ``bounds``, ``param_names``) is shared here.
    """

    def __call__(
        self, x1: np.ndarray, x2: np.ndarray | None = None
    ) -> np.ndarray:
        """Covariance matrix ``K(x1, x2)`` of shape ``(n1, n2)``."""
        raise NotImplementedError

    def diag(self, x: np.ndarray) -> np.ndarray:
        """Diagonal of ``K(x, x)`` without forming the full matrix."""
        raise NotImplementedError

    def sq_diffs_by_leaf(self, x: np.ndarray) -> list[np.ndarray]:
        """Each leaf's ``(n*n, d)`` squared differences on ``x``, in
        ``theta`` order: the theta-independent input of
        :meth:`stack_value_and_traces`.

        Each is ``RBF._sq_diffs`` reshaped, in the layout it returns: a
        mat-vec's last bits follow the layout of its operand, and an
        ``active_dims`` slice (eq. 9's x-part) is Fortran-ordered.
        """
        n = _as_2d(x).shape[0]
        return [leaf._sq_diffs(x).reshape(n * n, -1) for leaf in self._leaves()]

    def stack_value_and_traces(
        self, theta: np.ndarray, sq_diffs: list[np.ndarray]
    ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        """``K(x, x)`` of ``r`` members and a function that contracts a
        weight stack against their ``dK / d theta``, from one pass.

        Parameters
        ----------
        theta:
            ``(r, n_params)`` log-space parameters, one row per member.
            The kernel's own ``theta`` is neither read nor written.
        sq_diffs:
            One ``(m, n*n, d)`` squared-difference stack per leaf, in
            ``theta`` order (:meth:`sq_diffs_by_leaf`), with ``m = 1``
            when every member shares its inputs and ``m = r`` otherwise.

        Returns ``K`` as an ``(r, n*n)`` stack and ``traces(inner)``,
        which gives ``sum_ab inner[i, a, b] * dK_i/dtheta_j[a, b]`` for
        every member ``i`` and parameter ``j`` from an ``(r, n*n)``
        weight stack. That is all the marginal-likelihood gradient needs
        (``inner = K^-1 - alpha alpha^T``); contracting it directly
        avoids materializing ``(n_params, n, n)`` gradient stacks, and
        ``traces`` reuses the factors this pass computed.

        Every product is per member (a ``np.matmul`` over the stack),
        never one GEMM across members, so a member's bits do not depend
        on which other members share its pass.
        """
        raise NotImplementedError

    def _leaves(self) -> list["Kernel"]:
        """The leaf kernels of this tree, in ``theta`` order."""
        return [self]

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
        self, x1: np.ndarray, x2: np.ndarray | None = None
    ) -> np.ndarray:
        """Pairwise per-dimension **squared** differences, unscaled.

        Returns an array of shape ``(n1, n2, d)`` containing
        ``(x1_i - x2_j)^2`` per active dimension. It does not depend on
        ``theta``.
        """
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

    def __call__(
        self, x1: np.ndarray, x2: np.ndarray | None = None
    ) -> np.ndarray:
        return self._from_sq_diffs(self._sq_diffs(x1, x2))

    def _from_sq_diffs(self, sq_diffs: np.ndarray) -> np.ndarray:
        """Covariance from a ``(n1, n2, d)`` :meth:`_sq_diffs` tensor.

        The one place the SE formula is evaluated for predictions;
        callers that already hold the squared differences (NARGP's fused
        prediction shares one tensor between its two x-factors) skip
        recomputing them.
        """
        return self.variance * np.exp(-0.5 * (sq_diffs @ self._inv_sq_lengthscales))

    def diag(self, x: np.ndarray) -> np.ndarray:
        return np.full(_as_2d(x).shape[0], self.variance)

    def stack_value_and_traces(
        self, theta: np.ndarray, sq_diffs: list[np.ndarray]
    ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        (sq,) = sq_diffs
        variance = np.exp(theta[:, :1])
        inv_sq = np.exp(-2.0 * theta[:, 1:])
        # One (n*n, d) @ (d,) mat-vec per member.
        k = np.matmul(sq, inv_sq[:, :, None])[:, :, 0]
        k *= -0.5
        np.exp(k, out=k)
        k *= variance

        def traces(inner: np.ndarray) -> np.ndarray:
            # dK/d log(variance) = K, dK/d log(l_i) = K * sq_diffs_i / l_i^2,
            # each member's contracted as one (n*n,) @ (n*n, d) mat-vec.
            w = inner * k
            out = np.empty((w.shape[0], 1 + inv_sq.shape[1]))
            out[:, 0] = w.sum(axis=1)
            out[:, 1:] = np.matmul(w[:, None, :], sq)[:, 0, :] * inv_sq
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
        # Where the left subtree's columns of a theta stack and entries
        # of a squared-difference list end.
        self._left_params = left.n_params
        self._left_leaves = len(left._leaves())

    def _leaves(self) -> list[Kernel]:
        return [leaf for leaf, _, _ in self._theta_plan]

    def _stack_children(
        self, theta: np.ndarray, sq_diffs: list[np.ndarray]
    ) -> tuple[tuple, tuple]:
        """Both subtrees' :meth:`stack_value_and_traces` passes."""
        p, m = self._left_params, self._left_leaves
        return (
            self.left.stack_value_and_traces(theta[:, :p], sq_diffs[:m]),
            self.right.stack_value_and_traces(theta[:, p:], sq_diffs[m:]),
        )

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
        self, x1: np.ndarray, x2: np.ndarray | None = None
    ) -> np.ndarray:
        return self.left(x1, x2) + self.right(x1, x2)

    def diag(self, x: np.ndarray) -> np.ndarray:
        return self.left.diag(x) + self.right.diag(x)

    def stack_value_and_traces(
        self, theta: np.ndarray, sq_diffs: list[np.ndarray]
    ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        (k_left, left_traces), (k_right, right_traces) = self._stack_children(
            theta, sq_diffs
        )

        def traces(inner: np.ndarray) -> np.ndarray:
            return np.concatenate(
                [left_traces(inner), right_traces(inner)], axis=1
            )

        return k_left + k_right, traces


class Product(_Combination):
    """Pointwise product of two kernels."""

    def __call__(
        self, x1: np.ndarray, x2: np.ndarray | None = None
    ) -> np.ndarray:
        return self.left(x1, x2) * self.right(x1, x2)

    def diag(self, x: np.ndarray) -> np.ndarray:
        return self.left.diag(x) * self.right.diag(x)

    def stack_value_and_traces(
        self, theta: np.ndarray, sq_diffs: list[np.ndarray]
    ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
        (k_left, left_traces), (k_right, right_traces) = self._stack_children(
            theta, sq_diffs
        )

        def traces(inner: np.ndarray) -> np.ndarray:
            # tr(inner (dK_l o K_r)) = tr((inner o K_r) dK_l), and vice versa.
            return np.concatenate(
                [left_traces(inner * k_right), right_traces(inner * k_left)],
                axis=1,
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
