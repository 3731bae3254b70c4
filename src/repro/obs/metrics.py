"""Thread-safe in-process metrics: counters, gauges, histograms.

A :class:`MetricsRegistry` is a named collection of instruments with
get-or-create semantics — ``registry.counter("op.ping.requests").inc()``
is safe from any thread, and repeated lookups return the same
instrument. Components that need isolated numbers (a server, an
evaluator farm) each own a registry instance rather than
sharing process-global state, so parallel tests and stacked servers
never cross-contaminate.

``snapshot()`` renders the whole registry to plain dicts (JSON-ready),
which is what the service ``stats`` op returns over the wire.

Histograms use fixed upper-bound buckets chosen for latencies in
seconds (100µs … 100s, roughly half-decade steps) so snapshots from
different processes are mergeable bucket-for-bucket.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "LATENCY_BUCKETS_S"]

#: Upper bounds (seconds) for latency histograms; +inf is implicit.
LATENCY_BUCKETS_S: "tuple[float, ...]" = (
    0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03,
    0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0,
)


class Counter:
    """Monotonically increasing count (events, hits, retries)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Point-in-time level (queue depth, in-flight tasks, pool size)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Fixed-bucket distribution of observed values (latencies).

    Buckets are cumulative-style upper bounds; values above the last
    bound land in the implicit +inf bucket. Tracks count/sum/min/max
    exactly, so the mean is exact even though quantiles are bucketed.
    """

    __slots__ = ("name", "bounds", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(
        self, name: str, bounds: "tuple[float, ...]" = LATENCY_BUCKETS_S
    ) -> None:
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self.bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the covering bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = q * self._count
            seen = 0
            for idx, bucket_count in enumerate(self._counts):
                seen += bucket_count
                if seen >= rank and bucket_count:
                    if idx < len(self.bounds):
                        return min(self.bounds[idx], self._max)
                    return self._max
            return self._max

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "type": "histogram",
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else 0.0,
                "max": self._max if self._count else 0.0,
                "mean": (self._sum / self._count) if self._count else 0.0,
                "buckets": dict(zip(map(str, self.bounds), self._counts)),
                "overflow": self._counts[-1],
            }


class MetricsRegistry:
    """Named instruments with get-or-create semantics.

    A name is bound to one instrument kind for the registry's lifetime;
    asking for ``counter("x")`` after ``gauge("x")`` raises rather than
    silently splitting the series.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, kind: type, *args: object):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = kind(name, *args)
                self._instruments[name] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {kind.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(
        self, name: str, bounds: "tuple[float, ...]" = LATENCY_BUCKETS_S
    ) -> Histogram:
        return self._get_or_create(name, Histogram, bounds)

    def snapshot(self) -> dict:
        """All instruments rendered to JSON-ready plain dicts."""
        with self._lock:
            instruments = list(self._instruments.items())
        return {name: instrument.snapshot() for name, instrument in sorted(instruments)}
