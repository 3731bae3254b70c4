"""Contextvar-propagated span tracing with a zero-cost disabled path.

A *span* is one named, timed region of work — ``gp.fit``, ``strategy.
suggest``, ``farm.evaluate`` — carrying a trace ID shared by everything
that happened on behalf of one logical request and a parent span ID
linking it into a tree. Spans nest through a :mod:`contextvars` context
variable, so the tree assembles itself across function calls and (with
:func:`use_context`) across threads; the async evaluator farm forwards
the active context into its worker processes through the submit payload,
so a worker-side ``farm.evaluate`` span parents correctly under the
dispatching client's trace.

Tracing is **off** by default and costs one module-global check plus a
shared no-op context manager per :func:`span` call when disabled — cheap
enough to leave instrumentation inline on hot paths (the session-overhead
benchmark bounds it). Enable it with :func:`enable` (JSONL file and/or
in-memory sinks) or the :func:`tracing` context manager::

    from repro.obs import tracing, span

    with tracing("trace.jsonl"):
        with span("experiment.tab1", seed=0):
            run_everything()

Durations come from ``time.perf_counter`` (monotonic); the wall-clock
``ts`` field exists only so renderers can place spans on a real
timeline, never to compute durations (``tests/test_obs.py`` steps the
wall clock back mid-span to check).
"""

from __future__ import annotations

import json
import os
import secrets
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Iterator

__all__ = [
    "JsonlSink",
    "MemorySink",
    "SpanRecord",
    "current_context",
    "disable",
    "enable",
    "is_enabled",
    "span",
    "traced",
    "tracing",
    "use_context",
    "worker_payload",
    "activate_worker_tracing",
]

#: (trace_id, span_id) of the innermost active span, or None at a root.
_CONTEXT: ContextVar["tuple[str, str] | None"] = ContextVar(
    "repro_obs_context", default=None
)


class SpanRecord(dict):
    """One finished span, as the plain dict sinks receive.

    Keys: ``name``, ``trace_id``, ``span_id``, ``parent_id`` (may be
    ``None``), ``ts`` (wall-clock start, seconds), ``duration_s``,
    ``pid``, ``status`` (``"ok"``/``"error"``) and ``attrs``.
    """


class MemorySink:
    """Collect finished spans in a list (tests, in-process inspection)."""

    def __init__(self) -> None:
        self.records: list[SpanRecord] = []
        self._lock = threading.Lock()

    def emit(self, record: SpanRecord) -> None:
        with self._lock:
            self.records.append(record)

    def close(self) -> None:  # symmetry with JsonlSink
        pass


class JsonlSink:
    """Append finished spans to a JSONL file, one JSON object per line.

    The file is opened lazily in append mode and every span is written
    with a single ``write`` call, so many processes (farm workers) can
    share one trace file without interleaving partial lines on POSIX.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._file = None

    def emit(self, record: SpanRecord) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            if self._file is None:
                self._file = open(self.path, "a", encoding="utf-8")
            self._file.write(line)
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class _TracerState:
    """Module-global tracer configuration (one per process)."""

    __slots__ = ("enabled", "sinks")

    def __init__(self) -> None:
        self.enabled = False
        self.sinks: tuple[Any, ...] = ()


_STATE = _TracerState()
_STATE_LOCK = threading.Lock()


def enable(*sinks: Any) -> None:
    """Turn tracing on, routing finished spans to ``sinks``.

    Each sink needs an ``emit(record)`` method; strings and paths are
    convenience-wrapped in a :class:`JsonlSink`. Calling :func:`enable`
    again replaces the sink set.
    """
    resolved = tuple(
        JsonlSink(sink) if isinstance(sink, (str, os.PathLike)) else sink
        for sink in (sinks or (MemorySink(),))
    )
    with _STATE_LOCK:
        _STATE.sinks = resolved
        _STATE.enabled = True


def disable() -> None:
    """Turn tracing off and close file-backed sinks."""
    with _STATE_LOCK:
        sinks, _STATE.sinks = _STATE.sinks, ()
        _STATE.enabled = False
    for sink in sinks:
        close = getattr(sink, "close", None)
        if close is not None:
            close()


def is_enabled() -> bool:
    return _STATE.enabled


@contextmanager
def tracing(*sinks: Any) -> Iterator[None]:
    """Scoped :func:`enable`/:func:`disable` (tests, examples, CLIs)."""
    enable(*sinks)
    try:
        yield
    finally:
        disable()


def _new_id() -> str:
    # Entropy here names spans for humans; it never reaches optimizer
    # state, checkpoints or RNG streams.
    return secrets.token_hex(8)


class _NoopSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class _Span:
    """A live span: times itself and emits a record on exit."""

    __slots__ = (
        "name", "attrs", "trace_id", "span_id", "parent_id",
        "_start", "_ts", "_token",
    )

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: Any) -> "_Span":
        """Attach (or overwrite) attributes on the live span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        parent = _CONTEXT.get()
        if parent is None:
            self.trace_id = _new_id()
            self.parent_id = None
        else:
            self.trace_id, self.parent_id = parent
        self.span_id = _new_id()
        self._token = _CONTEXT.set((self.trace_id, self.span_id))
        # Wall-clock placement only; the duration below is perf_counter.
        self._ts = time.time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        duration = time.perf_counter() - self._start
        _CONTEXT.reset(self._token)
        record = SpanRecord(
            name=self.name,
            trace_id=self.trace_id,
            span_id=self.span_id,
            parent_id=self.parent_id,
            ts=self._ts,
            duration_s=duration,
            pid=os.getpid(),
            status="error" if exc_type is not None else "ok",
            attrs=self.attrs,
        )
        for sink in _STATE.sinks:
            try:
                sink.emit(record)
            except Exception:
                # A broken sink (full disk, closed file) must never take
                # the instrumented operation down with it.
                continue
        return None


def span(name: str, **attrs: Any):
    """Open a traced span; a shared no-op when tracing is disabled.

    >>> with span("gp.fit", n=32):          # doctest: +SKIP
    ...     model.fit(x, y)
    """
    if not _STATE.enabled:
        return _NOOP
    return _Span(name, attrs)


def traced(name: str | None = None, **attrs: Any):
    """Decorator form of :func:`span`; defaults to the function name."""

    def decorate(fn):
        import functools

        span_name = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            with span(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


# ----------------------------------------------------------------------
# context propagation: threads and farm worker processes
# ----------------------------------------------------------------------
def current_context() -> "tuple[str, str] | None":
    """The active ``(trace_id, span_id)`` pair, or ``None`` outside spans."""
    return _CONTEXT.get()


@contextmanager
def use_context(context: "tuple[str, str] | None") -> Iterator[None]:
    """Adopt a captured context in another thread.

    New threads start with an empty :mod:`contextvars` context, so spans
    opened there would begin fresh traces; capture
    :func:`current_context` before handing work off and wrap the worker
    body in ``use_context(ctx)`` to keep the tree connected.
    """
    token = _CONTEXT.set(tuple(context) if context is not None else None)
    try:
        yield
    finally:
        _CONTEXT.reset(token)


def worker_payload() -> "dict | None":
    """Serializable tracing state to ship to a worker process.

    ``None`` when tracing is off or no file-backed sink exists (an
    in-memory sink cannot be shared across processes). The farm attaches
    this to each submitted task; :func:`activate_worker_tracing` applies
    it on the worker side.
    """
    if not _STATE.enabled:
        return None
    path = next(
        (sink.path for sink in _STATE.sinks if isinstance(sink, JsonlSink)),
        None,
    )
    if path is None:
        return None
    return {"context": _CONTEXT.get(), "path": path}


def activate_worker_tracing(payload: "dict | None"):
    """Enable tracing in a worker process from a submit-path payload.

    Returns a context manager adopting the dispatcher's span context
    (the caller wraps the evaluation in it). Idempotent per process:
    re-enabling onto the same JSONL path reuses the append-mode sink.
    """
    if payload is None:
        return use_context(None) if _STATE.enabled else _NOOP
    path = payload["path"]
    already = any(
        isinstance(sink, JsonlSink) and sink.path == path
        for sink in _STATE.sinks
    )
    if not (_STATE.enabled and already):
        enable(path)
    context = payload.get("context")
    return use_context(tuple(context) if context is not None else None)
