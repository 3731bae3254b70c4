"""farm_throughput — streamed farm vs. barrier-style batches.

A barrier evaluator (``AsyncEvaluator.evaluate``) waits for the *slowest*
evaluation of every batch before any worker gets new work; with
heterogeneous simulation latencies the fast workers idle. Streaming
through ``AsyncEvaluator.submit``/``as_completed`` hands out each
evaluation independently, so one straggler per batch no longer sets the
pace.

The workload is :class:`repro.problems.LatencyProblem` — 5 batches of 8
suggestions, exactly one ~0.5 s straggler per batch among ~0.01 s fast
points (a mild version of real SPICE-corner heterogeneity). The barrier
pays ~5 x 0.5 s of straggler serialization; streaming overlaps the
stragglers with all the fast work. The acceptance bar (asserted in
``test_async_speedup``): >= 3x throughput with 8 workers.

The sleeps are in the workers, not the driver, so the comparison holds
on any host core count.
"""

import numpy as np
import pytest

from repro.problems import LatencyProblem
from repro.session import AsyncEvaluator, Suggestion

N_BATCHES = 5
BATCH = 8
_RESULTS: dict[str, float] = {}


def _suggestions():
    """5 batches of 8: one slow point (x < 0.1) per batch, rest fast."""
    batches = []
    for b in range(N_BATCHES):
        xs = [0.05] + [0.2 + 0.09 * (b + 1) * (i / BATCH) for i in range(1, BATCH)]
        batches.append(
            [Suggestion(np.array([x]), "high") for x in xs]
        )
    return batches


def _problem():
    return LatencyProblem(fast_s=0.01, slow_s=0.5, slow_below=0.1)


@pytest.mark.benchmark(group="farm_throughput")
def test_barrier_pool(once):
    problem, batches = _problem(), _suggestions()

    def drive():
        total = 0
        with AsyncEvaluator(max_workers=BATCH) as pool:
            for batch in batches:
                total += len(pool.evaluate(problem, batch))
        return total

    import time

    start = time.perf_counter()
    total = once(drive)
    _RESULTS["barrier"] = time.perf_counter() - start
    assert total == N_BATCHES * BATCH


@pytest.mark.benchmark(group="farm_throughput")
def test_async_farm(once):
    problem, batches = _problem(), _suggestions()

    def drive():
        with AsyncEvaluator(max_workers=BATCH) as farm:
            for batch in batches:
                for suggestion in batch:
                    farm.submit(problem, suggestion)
            return sum(1 for _ in farm.as_completed(timeout=120))

    import time

    start = time.perf_counter()
    total = once(drive)
    _RESULTS["async"] = time.perf_counter() - start
    assert total == N_BATCHES * BATCH


def test_async_speedup():
    """The ISSUE acceptance bar: >= 3x over the barrier pool."""
    if "barrier" not in _RESULTS or "async" not in _RESULTS:
        pytest.skip("throughput benchmarks did not run")
    ratio = _RESULTS["barrier"] / _RESULTS["async"]
    assert ratio >= 3.0, (
        f"async farm only {ratio:.2f}x faster than the barrier pool"
    )
