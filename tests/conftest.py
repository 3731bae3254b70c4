"""Shared test helpers."""

from collections import deque

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
