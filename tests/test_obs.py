"""Observability layer: spans, metrics, CLI, and end-to-end plumbing.

Covers the tracing contract (nesting, context propagation across
threads and farm worker processes, the disabled no-op fast path), the
metrics registry (including thread-safety under two concurrent service
clients hammering one server), the vault telemetry satellites (``ts``
on every event line, telemetry lines invisible to ``read_events``) and
the ``python -m repro.obs`` renderers.
"""

import itertools
import json
import os
import threading
import time

import numpy as np
import pytest

from repro.obs import (
    LATENCY_BUCKETS_S,
    Histogram,
    MemorySink,
    MetricsRegistry,
    current_context,
    disable,
    is_enabled,
    span,
    traced,
    tracing,
    use_context,
)
from repro.obs.cli import main as obs_main
from repro.obs.cli import render_table, summarize_rows

FAST_MFBO = dict(
    budget=6.0, n_init_low=4, n_init_high=2, seed=7, msp_starts=4,
    msp_polish=0, n_restarts=1, n_mc_samples=4, gp_max_opt_iter=15,
)


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with tracing disabled."""
    disable()
    yield
    disable()


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting_builds_parent_child_tree(self):
        sink = MemorySink()
        with tracing(sink):
            with span("outer", seed=3):
                with span("inner"):
                    pass
        inner, outer = sink.records  # children finish (emit) first
        assert inner["name"] == "inner"
        assert outer["name"] == "outer"
        assert inner["trace_id"] == outer["trace_id"]
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None
        assert outer["attrs"] == {"seed": 3}
        assert inner["duration_s"] >= 0.0
        assert outer["duration_s"] >= inner["duration_s"]

    def test_sibling_roots_get_distinct_traces(self):
        sink = MemorySink()
        with tracing(sink):
            with span("a"):
                pass
            with span("b"):
                pass
        a, b = sink.records
        assert a["trace_id"] != b["trace_id"]

    def test_exception_marks_status_and_propagates(self):
        sink = MemorySink()
        with tracing(sink):
            with pytest.raises(ValueError):
                with span("boom") as live:
                    live.set(detail="bad")
                    raise ValueError("no")
        (record,) = sink.records
        assert record["status"] == "error"
        assert record["attrs"] == {"detail": "bad"}

    def test_wall_clock_step_back_leaves_duration_alone(self, monkeypatch):
        """``ts`` reads the wall clock and ``duration_s`` the monotonic
        one: a wall clock stepped back mid-span (NTP, a manual reset)
        moves the span on the timeline but does not change its length."""
        wall = itertools.count(1e9, -3600.0)  # each read an hour earlier
        monotonic = itertools.count(50.0, 0.25)
        monkeypatch.setattr(time, "time", lambda: next(wall))
        monkeypatch.setattr(time, "perf_counter", lambda: next(monotonic))
        sink = MemorySink()
        with tracing(sink):
            with span("stepped"):
                time.time()  # the clock steps back inside the span
        (record,) = sink.records
        assert record["ts"] == 1e9
        assert record["duration_s"] == 0.25

    def test_disabled_is_shared_noop(self):
        assert not is_enabled()
        first = span("x")
        second = span("y", k=1)
        assert first is second  # the shared singleton, no allocation
        with first:
            assert current_context() is None

    def test_traced_decorator_uses_qualname(self):
        sink = MemorySink()

        @traced()
        def work():
            return 41

        with tracing(sink):
            assert work() == 41
        (record,) = sink.records
        assert record["name"].endswith("work")

    def test_jsonl_sink_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with tracing(str(path)):
            with span("op", n=2):
                pass
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["name"] == "op"
        assert record["attrs"] == {"n": 2}
        assert record["pid"] == os.getpid()

    def test_broken_sink_never_breaks_the_operation(self):
        class Broken:
            def emit(self, record):
                raise OSError("disk full")

        good = MemorySink()
        with tracing(Broken(), good):
            with span("survives"):
                pass
        assert [r["name"] for r in good.records] == ["survives"]

    def test_use_context_connects_threads(self):
        sink = MemorySink()
        with tracing(sink):
            with span("root"):
                ctx = current_context()

                def worker():
                    with use_context(ctx):
                        with span("thread.child"):
                            pass

                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        child = next(r for r in sink.records if r["name"] == "thread.child")
        root = next(r for r in sink.records if r["name"] == "root")
        assert child["trace_id"] == root["trace_id"]
        assert child["parent_id"] == root["span_id"]


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_and_gauge_basics(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(4)
        registry.gauge("depth").set(3)
        registry.gauge("depth").dec()
        assert registry.counter("hits").value == 5
        assert registry.gauge("depth").value == 2.0
        with pytest.raises(ValueError):
            registry.counter("hits").inc(-1)

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_histogram_buckets_and_quantiles(self):
        hist = Histogram("lat", LATENCY_BUCKETS_S)
        for value in (0.0002, 0.0002, 0.002, 0.02, 0.2):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(0.2224)
        assert snap["min"] == pytest.approx(0.0002)
        assert snap["max"] == pytest.approx(0.2)
        assert snap["buckets"]["0.0003"] == 2
        assert hist.quantile(0.5) <= hist.quantile(0.95)
        assert hist.quantile(1.0) == pytest.approx(0.2)
        with pytest.raises(ValueError):
            Histogram("bad", (1.0, 0.5))

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.histogram("b").observe(0.01)
        snap = registry.snapshot()
        json.dumps(snap)  # must not raise
        assert snap["a"] == {"type": "counter", "value": 1}
        assert snap["b"]["type"] == "histogram"

    def test_registry_thread_safety_exact_counts(self):
        registry = MetricsRegistry()
        n_threads, n_incs = 8, 500

        def hammer():
            for _ in range(n_incs):
                registry.counter("shared").inc()
                registry.histogram("lat").observe(0.001)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert registry.counter("shared").value == n_threads * n_incs
        assert registry.histogram("lat").count == n_threads * n_incs


# ----------------------------------------------------------------------
# strategy + vault telemetry
# ----------------------------------------------------------------------
class TestTelemetry:
    def test_mfbo_emits_iteration_events(self):
        from repro.registry import get_problem, get_strategy

        problem = get_problem("forrester")
        strategy = get_strategy("mfbo")(problem, **FAST_MFBO)
        while not strategy.is_done:
            for s in strategy.suggest(1):
                strategy.observe(
                    s.x_unit,
                    s.fidelity,
                    problem.evaluate_unit(s.x_unit, s.fidelity),
                )
        events = strategy.take_telemetry()
        assert events, "suggest() past n_init should emit iteration events"
        first = events[0]
        assert first["event"] == "iteration"
        for key in ("fit_s", "propose_s", "fidelity", "n_suggested",
                    "budget_spent"):
            assert key in first
        assert strategy.take_telemetry() == []  # drained

    def test_gp_fit_spans_report_each_shared_search(self):
        """Each lockstep fit's span says how many models and starts it
        trained, in how many rounds and likelihood evaluations, and how
        many chosen thetas sit on their box or converged; the eq. 9
        search nests in its nargp.fit span."""
        from repro.core.loop import fit_pairs
        from repro.gp import GPR

        rng = np.random.default_rng(5)
        x_low, x_high = rng.random((10, 2)), rng.random((4, 2))
        t_low = [np.sin(3 * x_low[:, 0]), np.cos(2 * x_low[:, 1])]
        t_high = [np.sin(3 * x_high[:, 0]), np.cos(2 * x_high[:, 1])]
        sink = MemorySink()
        with tracing(sink):
            low, fused = fit_pairs(
                x_low, t_low, x_high, t_high,
                rng=np.random.default_rng(6), n_restarts=1, max_opt_iter=15,
            )
        fits = [r for r in sink.records if r["name"] == "gp.fit"]
        (nargp,) = [r for r in sink.records if r["name"] == "nargp.fit"]
        assert len(fits) == 2
        assert fits[1]["parent_id"] == nargp["span_id"]
        for record, models in zip(fits, (low, [f.high_model for f in fused])):
            attrs = record["attrs"]
            assert attrs["models"] == 2 and attrs["starts"] == 4
            assert 1 <= attrs["rounds"] <= 15 * 21  # maxls 20 per iteration
            assert attrs["rounds"] <= attrs["evaluations"] <= 4 * attrs["rounds"]
            assert attrs["converged"] == sum(
                m.train_result.success for m in models
            )
            on_bound = 0
            for m in models:
                bounds = np.array(m._full_bounds())
                theta = m.train_result.theta
                on_bound += bool(
                    ((theta == bounds[:, 0]) | (theta == bounds[:, 1])).any()
                )
            assert attrs["on_bound"] == on_bound
        # one model, one search of two starts, through GPR.fit
        with tracing(sink):
            GPR(max_opt_iter=10).fit(
                x_low, t_low[0], n_restarts=1, rng=np.random.default_rng(7)
            )
        assert sink.records[-1]["name"] == "gp.fit"
        assert sink.records[-1]["attrs"]["models"] == 1
        assert sink.records[-1]["attrs"]["starts"] == 2

    def test_disabled_gp_fit_sets_no_attributes(self, monkeypatch):
        """With tracing off the fit neither computes nor attaches its
        outcome attributes: the shared no-op span is never touched."""
        from repro.gp import GPR
        from repro.obs import trace

        def refuse(self, **attrs):
            raise AssertionError("attributes set on a disabled span")

        monkeypatch.setattr(trace._NoopSpan, "set", refuse)
        x = np.linspace(0.0, 1.0, 6)[:, None]
        model = GPR(max_opt_iter=10).fit(
            x, np.sin(x[:, 0]), n_restarts=1, rng=np.random.default_rng(0)
        )
        assert model.train_result is not None

    def test_vault_events_carry_ts_and_split_cleanly(self, tmp_path):
        from repro.service import RunVault

        vault = RunVault(tmp_path)
        session = vault.open_session("forrester", "mfbo", **FAST_MFBO)
        session.run()
        run_id = session.run_id
        session.close()

        raw = [
            json.loads(line)
            for line in (vault.run_dir(run_id) / "events.jsonl")
            .read_text()
            .splitlines()
            if line.strip()
        ]
        assert raw and all(
            isinstance(event.get("ts"), float) for event in raw
        )
        assert vault.meta(run_id)["events_version"] == 2

        evaluations = vault.read_events(run_id)
        telemetry = vault.read_telemetry(run_id)
        assert [e["seq"] for e in evaluations] == list(
            range(1, len(evaluations) + 1)
        )
        assert all("type" not in e for e in evaluations)
        assert telemetry and all(
            e["type"] == "telemetry" for e in telemetry
        )
        assert any("fit_s" in e for e in telemetry)

    def test_resume_ignores_ts_and_telemetry(self, tmp_path):
        from repro.service import RunVault

        vault = RunVault(tmp_path / "a")
        session = vault.open_session("forrester", "mfbo", **FAST_MFBO)
        for _ in range(3):
            for s in session.suggest(1):
                session.observe(
                    s.x_unit,
                    s.fidelity,
                    session.problem.evaluate_unit(s.x_unit, s.fidelity),
                )
        run_id = session.run_id
        n_seen = len(session.history)
        session._events_file.close()  # simulate a kill: no checkpoint

        resumed = vault.resume(run_id)
        assert len(resumed.history) == n_seen
        resumed.close()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _write_trace(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


class TestCli:
    def test_summarize_trace_tree(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        _write_trace(
            path,
            [
                {"name": "child", "span_id": "c1", "parent_id": "p1",
                 "ts": 10.0, "duration_s": 0.25},
                {"name": "parent", "span_id": "p1", "parent_id": None,
                 "ts": 10.0, "duration_s": 1.0},
                {"name": "child", "span_id": "c2", "parent_id": "p1",
                 "ts": 10.5, "duration_s": 0.75},
            ],
        )
        assert obs_main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split()[:2] == ["span", "count"]
        assert any(line.startswith("parent") for line in lines)
        assert any(line.startswith("  child") for line in lines)  # indented

    def test_summarize_rows_math(self):
        rows = summarize_rows(
            [
                {"name": "op", "span_id": None, "parent_id": None,
                 "duration_s": d}
                for d in (0.1, 0.2, 0.3, 0.4)
            ]
        )
        (row,) = rows
        assert row["count"] == 4
        assert row["mean_s"] == pytest.approx(0.25)
        assert row["total_s"] == pytest.approx(1.0)
        assert row["p50_s"] in (0.2, 0.3)
        assert "op" in render_table(rows)

    def test_summarize_skips_torn_tail(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"name": "ok", "duration_s": 0.5}) + "\n")
            handle.write('{"name": "torn", "durat')  # crashed writer
        assert obs_main(["summarize", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_exit_codes(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert obs_main(["summarize", str(empty)]) == 1
        assert obs_main(["summarize", str(tmp_path / "missing.jsonl")]) == 2
        capsys.readouterr()

    def test_summarize_vault_run(self, tmp_path, capsys):
        from repro.service import RunVault

        vault = RunVault(tmp_path)
        session = vault.open_session("forrester", "mfbo", **FAST_MFBO)
        session.run()
        run_dir = vault.run_dir(session.run_id)
        session.close()

        assert obs_main(["summarize", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "iteration.fit" in out
        assert "iteration.propose" in out

    def test_timeline_orders_by_ts(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        _write_trace(
            path,
            [
                {"name": "late", "span_id": "b", "parent_id": None,
                 "ts": 20.0, "duration_s": 0.1},
                {"name": "early", "span_id": "a", "parent_id": None,
                 "ts": 10.0, "duration_s": 0.1},
            ],
        )
        assert obs_main(["timeline", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.index("early") < out.index("late")
        assert out.lstrip().startswith("+")


# ----------------------------------------------------------------------
# end-to-end: farm worker propagation, service stats
# ----------------------------------------------------------------------
class TestFarmPropagation:
    def test_worker_spans_join_the_dispatching_trace(self, tmp_path):
        from repro.problems import ForresterProblem
        from repro.session import AsyncEvaluator, Suggestion

        path = tmp_path / "farm-trace.jsonl"
        problem = ForresterProblem()
        with tracing(str(path)):
            with span("experiment.root"):
                with AsyncEvaluator(max_workers=2) as farm:
                    for x in (0.2, 0.5, 0.8):
                        farm.submit(
                            problem,
                            Suggestion(np.asarray([x]), "high"),
                        )
                    results = list(farm.as_completed(timeout=120.0))
        assert len(results) == 3

        records = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
        root = next(r for r in records if r["name"] == "experiment.root")
        dispatches = [r for r in records if r["name"] == "farm.dispatch"]
        evaluations = [r for r in records if r["name"] == "farm.evaluate"]
        assert len(dispatches) == 3
        assert len(evaluations) == 3

        dispatch_ids = {r["span_id"] for r in dispatches}
        for record in dispatches:
            assert record["trace_id"] == root["trace_id"]
            assert record["parent_id"] == root["span_id"]
        for record in evaluations:
            assert record["trace_id"] == root["trace_id"]
            assert record["parent_id"] in dispatch_ids
            assert record["pid"] != os.getpid()  # ran in a worker process
            assert record["attrs"]["fidelity"] == "high"

    def test_farm_metrics_account_for_the_batch(self):
        from repro.problems import ForresterProblem
        from repro.session import AsyncEvaluator, Suggestion

        problem = ForresterProblem()
        with AsyncEvaluator(max_workers=2) as farm:
            for x in (0.3, 0.7):
                farm.submit(problem, Suggestion(np.asarray([x]), "high"))
            list(farm.as_completed(timeout=120.0))
            snap = farm.metrics.snapshot()
        assert snap["farm.dispatched"]["value"] == 2
        assert snap["farm.completed"]["value"] == 2
        assert snap["farm.wall_s"]["count"] == 2
        assert snap["farm.inflight"]["value"] == 0.0


class TestServiceStats:
    def test_stats_op_counts_two_hammering_clients(self, tmp_path):
        from repro.service import connect, serve

        server = serve(tmp_path / "vault")
        server.start_background()
        try:
            n_clients, n_calls = 2, 40
            errors = []

            def hammer():
                try:
                    with connect(server.address) as client:
                        for _ in range(n_calls):
                            assert client.ping()
                except Exception as exc:  # surfaces in the main thread
                    errors.append(exc)

            threads = [
                threading.Thread(target=hammer) for _ in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []

            with connect(server.address) as client:
                stats = client.stats()
            assert stats["metrics"]["op.ping.requests"]["value"] == (
                n_clients * n_calls
            )
            latency = stats["metrics"]["op.ping.latency_s"]
            assert latency["count"] == n_clients * n_calls
            assert latency["sum"] >= 0.0
            assert set(stats) == {"metrics"}
        finally:
            server.shutdown()
            server.server_close()
