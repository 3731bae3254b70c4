"""Shared test helpers."""

from collections import deque

import numpy as np
import pytest


def _drive_fifo(strategy, in_flight: int) -> None:
    """Keep ``in_flight`` suggestions out and always observe the oldest.

    A deterministic stand-in for an asynchronous evaluator: once the
    pipeline is full, every refill sees pending suggestions.
    """
    problem = strategy.problem
    queue: deque = deque()
    while True:
        if not strategy.is_done:
            want = in_flight - len(queue)
            if want > 0:
                queue.extend(strategy.suggest(want))
        if not queue:
            break
        s = queue.popleft()
        strategy.observe(
            s.x_unit, s.fidelity, problem.evaluate_unit(s.x_unit, s.fidelity)
        )


@pytest.fixture
def drive_fifo():
    """``drive_fifo(strategy, in_flight)``: the FIFO driver above."""
    return _drive_fifo


def _dense_gradients(kernel, x):
    """``dK(x, x) / d theta`` as a dense ``(n_params, n, n)`` stack.

    Derivatives are taken with respect to the log-space ``theta``. This
    is the oracle for ``Kernel.value_and_traces``, which contracts the
    same stack without materializing it.
    """
    from repro.gp.kernels import Product, Sum

    if isinstance(kernel, Sum):
        return np.concatenate(
            [_dense_gradients(kernel.left, x), _dense_gradients(kernel.right, x)]
        )
    if isinstance(kernel, Product):
        k_left, k_right = kernel.left(x), kernel.right(x)
        return np.concatenate(
            [
                _dense_gradients(kernel.left, x) * k_right[None, :, :],
                _dense_gradients(kernel.right, x) * k_left[None, :, :],
            ]
        )
    sq_per_dim = kernel._sq_diffs(x) * kernel._inv_sq_lengthscales
    k = kernel.variance * np.exp(-0.5 * np.sum(sq_per_dim, axis=2))
    grads = np.empty((kernel.n_params, k.shape[0], k.shape[1]))
    grads[0] = k  # d/d log(variance)
    grads[1:] = k[None, :, :] * np.moveaxis(sq_per_dim, 2, 0)  # d/d log(l_i)
    return grads


@pytest.fixture
def dense_gradients():
    """``dense_gradients(kernel, x)``: the gradient-stack oracle above."""
    return _dense_gradients
