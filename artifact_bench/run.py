"""Paper-artifact benchmark: one workload, timed end to end or traced.

Run from the repository root::

    python3 artifact_bench/run.py --workload pa-tab1 --seed 2019 --seconds 25 --trace 0

``--trace 0`` times the workload with no wrappers installed and reports
``wall_s``, ``setup_s``, ``ask_p50_ms`` and ``peak_rss_mb``.
``--trace 1`` runs the workload once without and once with the layer
wrappers of ``layers.py`` installed, reports the per-layer split
and writes the spans to ``.bench_work/traces/`` as JSONL that
``python -m repro.obs summarize`` renders.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A failed output
check prints ``"correct": false`` and exits 1. Every result is also
saved, with the machine identity, under ``.bench_work/results/``;
``compare.py`` compares two of them.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from identity import BLAS_ENV  # noqa: E402  (no numpy import yet)

# Pin BLAS pools before numpy loads; setup probes and forked farm
# workers inherit the environment.
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

WORK = ROOT / ".bench_work"
SETUP_PROBES = 3
MIN_CYCLES = 2


def _fail(message: str, code: int = 2) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _import_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def probe_setup(workload: str, seed: int) -> None:
    """Child process: imports, construction, first ask; print the clock."""
    import workloads

    prep = workloads.prepare(workload, seed, WORK / "probe")
    try:
        prep.session.suggest(prep.workload.batch_size)
        print(f"first-ask {time.monotonic()!r}", flush=True)
    finally:
        prep.close()
        prep.discard()


def measure_setup(workload: str, seed: int) -> list[float]:
    """Process start to first ask, in fresh interpreters, several times."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, __file__, "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        stamps = [
            line.split()[1] for line in proc.stdout.splitlines()
            if line.startswith("first-ask ")
        ]
        if proc.returncode != 0 or not stamps:
            _fail(f"setup probe failed: {proc.stderr.strip()[-500:]}", 1)
        samples.append(float(stamps[0]) - start)
    return samples


def timed(args, workload) -> tuple[dict, dict, list]:
    import workloads

    seeds = workloads.panel_seeds(args.panel_base, args.seed)
    setup = measure_setup(args.workload, seeds[0])
    walls = {seed: [] for seed in seeds}
    asks = {seed: [] for seed in seeds}
    runs, failures = [], []
    start = time.perf_counter()
    n_cycles, last_cycle = 0, 0.0
    # Whole panel cycles only, so every run covers each seed equally;
    # past MIN_CYCLES, another cycle starts only if it would end near
    # the time box.
    while n_cycles < MIN_CYCLES or (
        time.perf_counter() - start + last_cycle / 2 < args.seconds
    ):
        cycle_start = time.perf_counter()
        for seed in seeds:
            prep = workloads.prepare(args.workload, seed, WORK / "vaults")
            workloads.time_asks(prep)
            try:
                wall, result = workloads.drive(prep)
            finally:
                prep.close()
            out = workloads.outputs(prep, result)
            failures += workloads.check(
                prep, result, out, resimulate=not runs
            )
            prep.discard()
            walls[seed].append(wall)
            asks[seed].append(prep.ask_s)
            runs.append(out)
        n_cycles += 1
        last_cycle = time.perf_counter() - cycle_start
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Interference on a shared host only ever adds time, and a panel
    # seed's work is identical in every cycle, ask for ask: the fastest
    # cycle is its cost. The panel's trajectories differ in length, so
    # their walls are averaged rather than medianed.
    best_asks = [
        min(samples)
        for seed in seeds
        for samples in zip(*asks[seed])
    ]
    metrics = {
        "wall_s": _metric(
            statistics.fmean(min(walls[seed]) for seed in seeds), "s"
        ),
        "setup_s": _metric(statistics.median(setup), "s"),
        "ask_p50_ms": _metric(statistics.median(best_asks) * 1e3, "ms"),
        "peak_rss_mb": _metric(peak_kib / 1024.0, "MB"),
    }
    detail = {
        "walls_s": walls,
        "setup_samples_s": setup,
        "ask_samples": len(best_asks),
        "ask_p90_ms": statistics.quantiles(best_asks, n=10)[-1] * 1e3
        if len(best_asks) > 1 else None,
    }
    return metrics, {"runs": runs, **detail}, failures


def traced(args, workload) -> tuple[dict, dict, list]:
    import layers
    import workloads

    seed = workloads.panel_seeds(args.panel_base, args.seed)[0]
    failures = []

    prep = workloads.prepare(args.workload, seed, WORK / "vaults")
    try:
        untraced_wall, result = workloads.drive(prep)
    finally:
        prep.close()
    clean = workloads.outputs(prep, result)
    failures += workloads.check(prep, result, clean, resimulate=True)
    prep.discard()

    recorder = layers.SpanRecorder()
    prep = workloads.prepare(args.workload, seed, WORK / "vaults")
    uninstall = layers.install(recorder)
    try:
        recorder.enabled = True
        start = time.perf_counter()
        traced_wall, result = workloads.drive(prep)
    finally:
        recorder.enabled = False
        uninstall()
        prep.close()
    out = workloads.outputs(prep, result)
    failures += workloads.check(prep, result, out, resimulate=False)
    if out["best_objective"] != clean["best_objective"]:
        failures.append("traced trajectory differs from the untraced one")

    metrics = {
        name: _metric(value, unit)
        for name, (value, unit) in layers.layer_metrics(
            recorder, traced_wall
        ).items()
    }
    farm = {}
    if workload.served:
        farm = prep.session.evaluator.metrics.snapshot()
    metrics["session.farm.worker_s"] = _metric(
        farm.get("farm.wall_s", {}).get("sum", 0.0), "s"
    )
    metrics["session.farm.retries"] = _metric(
        farm.get("farm.retries", {}).get("value", 0), "count"
    )
    metrics["session.farm.timeouts"] = _metric(
        farm.get("farm.timeouts", {}).get("value", 0), "count"
    )
    metrics["service.vault.bytes"] = _metric(out.get("vault_bytes", 0), "B")
    metrics["core.high_frac"] = _metric(out["high_frac"], "ratio")
    metrics["trace.overhead_frac"] = _metric(
        traced_wall / untraced_wall - 1.0, "ratio"
    )
    metrics["best_objective"] = _metric(out["best_objective"], "obj")
    metrics["hypervolume"] = _metric(out.get("hypervolume", 0.0), "obj")
    metrics["failed_frac"] = _metric(out["n_failed"] / out["n_sims"], "ratio")

    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{args.workload}-seed{seed}.jsonl"
    layers.write_trace(
        str(trace_path), recorder, args.workload, start, traced_wall
    )
    prep.discard()
    detail = {
        "runs": [clean, out],
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return metrics, detail, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2019,
                        help="rotates the order of the artifact panel")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--panel-base", type=int, default=None,
                        help="first artifact seed of the panel (default 2019)")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    import identity
    import workloads

    if args.panel_base is None:
        args.panel_base = workloads.DEFAULT_PANEL_BASE
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"known: {sorted(workloads.WORKLOADS)}")
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    workload = workloads.WORKLOADS[args.workload]

    WORK.mkdir(parents=True, exist_ok=True)
    run = traced if args.trace else timed
    metrics, detail, failures = run(args, workload)
    # Closed farms shut their pools down without waiting; reap the
    # workers so none outlives the benchmark.
    for child in multiprocessing.active_children():
        child.join(timeout=30)

    runs = detail["runs"]
    attempted = sum(r["n_sims"] for r in runs)
    failed = sum(r["n_failed"] for r in runs)
    machine = identity.machine_identity(str(WORK))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "panel_base": args.panel_base,
        "trace": args.trace,
        "identity": machine,
        "metrics": metrics,
        "checks_failed": failures,
        **detail,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_path = results / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    out_path.write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"panel base {args.panel_base}  "
          f"identity {json.dumps(machine, sort_keys=True)}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']!r:>24} {metric['unit']}")
    for r in runs:
        print(f"  seed {r['seed']}: best_objective {r['best_objective']!r} "
              f"hypervolume {r.get('hypervolume', '-')} sims "
              f"{r['n_low']} low / {r['n_high']} high, "
              f"{r['n_failed']} failed")
    if "ask_samples" in detail:
        print(f"  ask samples {detail['ask_samples']}, "
              f"ask_p90_ms {detail['ask_p90_ms']!r}")
    for failure in failures:
        print(f"  CHECK FAILED: {failure}")
    print(f"  saved {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
