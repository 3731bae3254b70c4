"""Per-layer attribution for one traced artifact run.

The benchmark never edits the library. Instead, :func:`install` swaps a
timing wrapper in front of each layer's public entry points (class
methods, plus module-level functions at every name a caller looks them
up under) and :func:`uninstall` puts the originals back. Wrappers exist
only while a traced run is in progress; timed runs never see them.

Each wrapper opens a span on a single-threaded stack. A span's *self
time* is its duration minus the durations of the spans nested in it, so
the self times of all spans plus the unattributed remainder (``other.s``)
add up to the traced wall clock exactly. Spans are named ``bench.<layer>``
in the trace file, which keeps them apart from the library's own
``repro.obs`` spans (tracing stays disabled in the library throughout).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

#: Every layer span, in report order. ``<name>.calls`` and ``<name>.s``
#: are emitted for each of them.
SPANS = (
    "spice.transient",
    "spice.newton",
    "spice.assemble",
    "spice.dc",
    "spice.ac",
    "circuits.eval",
    "gp.fit",
    "gp.predict",
    "gp.add_points",
    "mf.nargp_fit",
    "mf.nargp_predict",
    "acquisition.wei",
    "optim.msp",
    "moo.ehvi",
    "core.suggest",
    "core.observe",
    "core.select",
    "session.farm",
    "service.vault.observe",
    "service.vault.save",
)

#: Counters tallied by wrappers, on top of each span's call count.
TALLIES = (
    "circuits.eval.low.calls",
    "circuits.eval.high.calls",
    "circuits.eval.failed",
    "gp.predict.points",
    "mf.nargp_predict.points",
    "acquisition.wei.points",
    "moo.ehvi.points",
)


def _rows(array) -> int:
    shape = np.shape(array)
    return 1 if len(shape) < 2 else int(shape[0])


def _points(position: int, stacked: bool = False):
    """Tally the number of query points in positional argument ``position``."""

    def tally(args, kwargs, result, counts, name):
        value = args[position]
        n = _rows(value)
        if stacked:  # (b, m, d) batches of m points
            n *= int(np.shape(value)[1])
        counts[f"{name}.points"] += n

    return tally


def _tally_eval(args, kwargs, result, counts, name):
    fidelity = args[2] if len(args) > 2 else kwargs.get("fidelity")
    if fidelity is None:
        fidelity = args[0].highest_fidelity
    counts[f"circuits.eval.{fidelity}.calls"] += 1
    counts["circuits.eval.failed"] += int(getattr(result, "failed", False))


def _tally_farm(args, kwargs, result, counts, name):
    # The farm simulates in worker processes the wrappers cannot see;
    # its ordered results still say how many designs the circuit layer
    # evaluated, at which fidelity, and how many of them failed.
    for evaluation in result:
        counts[f"circuits.eval.{evaluation.fidelity}.calls"] += 1
        counts["circuits.eval.failed"] += int(evaluation.failed)


class SpanRecorder:
    """Span stack, per-layer totals and the raw spans of one process.

    Forked children (the farm's worker processes) inherit the wrappers;
    a fork hook disables recording there so only the dispatching
    process is measured.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.records: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.root_s = 0.0
        self._stack: list[list] = []
        self._next_id = 1
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def wrap(self, name: str, fn, tally=None):
        stack, records = self._stack, self.records
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Nested entry into the same layer (e.g. GPR.predict_multi ->
            # GPR.predict) stays one logical call of the outer span.
            if not self.enabled or (stack and stack[-1][1] == name):
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                own = duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                else:
                    self.root_s += duration
                self.calls[name] += 1
                self.self_s[name] += own
                records.append((span_id, parent, name, start, duration, own))
            if tally is not None:
                tally(args, kwargs, result, self.counts, name)
            return result

        return wrapper


def _method_targets():
    from repro.acquisition.functions import WeightedEI
    from repro.core.fidelity import FidelitySelector
    from repro.core.strategy import StrategyBase
    from repro.gp.gpr import GPR
    from repro.mf.nargp import NARGP
    from repro.moo.acquisition import ExpectedHypervolumeImprovement
    from repro.optim.msp import MSPOptimizer
    from repro.problems.base import Problem
    from repro.service.vault import VaultSession
    from repro.session.farm import AsyncEvaluator
    from repro.session.session import OptimizationSession
    from repro.spice.backend import DenseBackend, SparseBackend

    return [
        (DenseBackend, "solve_newton", "spice.newton", None),
        (SparseBackend, "solve_newton", "spice.newton", None),
        (DenseBackend, "assemble", "spice.assemble", None),
        (SparseBackend, "assemble", "spice.assemble", None),
        (DenseBackend, "assemble_ac", "spice.assemble", None),
        (SparseBackend, "assemble_ac", "spice.assemble", None),
        (Problem, "evaluate_unit", "circuits.eval", _tally_eval),
        (GPR, "fit", "gp.fit", None),
        (GPR, "predict", "gp.predict", _points(1)),
        (GPR, "predict_multi", "gp.predict", _points(1, stacked=True)),
        (GPR, "predict_from_cross", "gp.predict", _points(1)),
        (GPR, "predict_mean", "gp.predict", _points(1)),
        (GPR, "add_points", "gp.add_points", None),
        (NARGP, "fit", "mf.nargp_fit", None),
        (NARGP, "predict", "mf.nargp_predict", _points(1)),
        (NARGP, "predict_mean_path", "mf.nargp_predict", _points(1)),
        (WeightedEI, "__call__", "acquisition.wei", _points(1)),
        (MSPOptimizer, "maximize", "optim.msp", None),
        (ExpectedHypervolumeImprovement, "__call__", "moo.ehvi", _points(1)),
        (StrategyBase, "suggest", "core.suggest", None),
        (StrategyBase, "observe", "core.observe", None),
        (FidelitySelector, "select", "core.select", None),
        (AsyncEvaluator, "evaluate", "session.farm", _tally_farm),
        (VaultSession, "observe", "service.vault.observe", None),
        # VaultSession checkpoints through the inherited session save.
        (OptimizationSession, "save", "service.vault.save", None),
    ]


def _function_targets():
    from repro.spice.ac import solve_ac
    from repro.spice.dc import solve_dc
    from repro.spice.transient import simulate_transient

    return [
        (simulate_transient, "spice.transient"),
        (solve_dc, "spice.dc"),
        (solve_ac, "spice.ac"),
    ]


def install(recorder: SpanRecorder):
    """Put wrappers in front of every layer entry point; returns an undo."""
    undo = []
    for cls, attr, name, tally in _method_targets():
        original = cls.__dict__[attr]  # KeyError: the entry point moved
        setattr(cls, attr, recorder.wrap(name, original, tally))
        undo.append((cls, attr, original))
    # Module-level functions are imported by name into their callers'
    # modules, so every module-global binding to the original is patched.
    for original, name in _function_targets():
        wrapper = recorder.wrap(name, original)
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(recorder: SpanRecorder, traced_wall_s: float) -> dict:
    """``<layer>.calls`` / ``<layer>.s`` / tallies, plus ``other.s``."""
    metrics: dict = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (recorder.calls.get(name, 0), "count")
        metrics[f"{name}.s"] = (recorder.self_s.get(name, 0.0), "s")
    for key in TALLIES:
        metrics[key] = (recorder.counts.get(key, 0), "count")
    metrics["other.s"] = (traced_wall_s - recorder.root_s, "s")
    return metrics


def write_trace(
    path: str, recorder: SpanRecorder, workload: str, start: float,
    wall_s: float,
) -> None:
    """Write the spans as JSONL that ``python -m repro.obs summarize`` reads.

    ``bench.run`` spans the whole traced run; every top-level layer span
    parents under it, and ``bench.other`` (the unattributed remainder)
    is its own row.
    """
    trace_id = f"bench-{workload}"
    pid = os.getpid()
    # Wall-clock placement for timeline views only; durations are
    # perf_counter differences.
    epoch = time.time() - (time.perf_counter() - start)

    def line(span_id, parent, name, t0, duration, attrs) -> str:
        return json.dumps(
            {
                "name": name,
                "trace_id": trace_id,
                "span_id": f"{span_id:x}",
                "parent_id": None if parent is None else f"{parent:x}",
                "ts": epoch + (t0 - start),
                "duration_s": duration,
                "pid": pid,
                "status": "ok",
                "attrs": attrs,
            }
        )

    root = 0
    other = wall_s - recorder.root_s
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(line(root, None, "bench.run", start, wall_s, {}) + "\n")
        handle.write(
            line(recorder._next_id, root, "bench.other", start, other,
                 {"self_s": other}) + "\n"
        )
        for span_id, parent, name, t0, duration, own in recorder.records:
            handle.write(
                line(span_id, parent, f"bench.{name}", t0, duration,
                     {"self_s": own}) + "\n"
            )
