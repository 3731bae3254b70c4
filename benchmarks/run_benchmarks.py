#!/usr/bin/env python
"""Run the performance benchmark suite and emit a dated ``BENCH_*.json``.

The substrate micro-benchmarks (``test_substrate_perf.py``) time the hot
paths every experiment depends on: GP hyperparameter training, batched
posterior prediction, NARGP Monte-Carlo fused prediction and the MNA
transient solver. This driver wraps ``pytest-benchmark`` so each PR can
record its perf trajectory next to the previous ones::

    python benchmarks/run_benchmarks.py                 # substrate + session suites
    python benchmarks/run_benchmarks.py --all           # every benchmark
    python benchmarks/run_benchmarks.py --smoke         # CI breakage check
    python benchmarks/run_benchmarks.py --out custom.json
    python benchmarks/run_benchmarks.py --compare BENCH_a.json BENCH_b.json
    python benchmarks/run_benchmarks.py --compare BENCH_baseline.json --tolerance 0.3

``--compare`` with two files prints per-test speedup ratios between two
previously emitted files and exits without running anything. With a
*single* file it becomes the perf-regression guard: the default suites
run fresh (written to ``--out``, default ``BENCH_fresh.json``), the
result is compared against the baseline, and the run exits non-zero if
any tracked benchmark's mean slowed down by more than ``--tolerance``
(a fraction, e.g. ``0.3`` = 30%). ``--smoke`` executes every substrate
benchmark body exactly once with timing collection disabled — a fast
pass that surfaces breakage (import errors, API drift, assertion
failures) in CI without the noise-sensitive timing loops.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SUBSTRATE_SUITE = "benchmarks/test_substrate_perf.py"
SESSION_SUITE = "benchmarks/test_session_overhead.py"
SPARSE_SUITE = "benchmarks/test_substrate_sparse.py"
MOO_SUITE = "benchmarks/test_moo_perf.py"
FARM_SUITE = "benchmarks/test_farm_throughput.py"
SERVICE_SUITE = "benchmarks/test_service_perf.py"


def default_output_name() -> str:
    return f"BENCH_{datetime.date.today().isoformat()}.json"


def run_suite(targets: list[str], out_path: Path | None) -> int:
    command = [
        sys.executable,
        "-m",
        "pytest",
        *targets,
        "-q",
    ]
    if out_path is None:  # smoke mode: run each body once, no timing
        command.append("--benchmark-disable")
    else:
        command.append(f"--benchmark-json={out_path}")
    env = _build_env(str(REPO_ROOT / "src"))
    print(f"$ {' '.join(command)}")
    return subprocess.call(command, cwd=REPO_ROOT, env=env)


def _build_env(env_path: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        env_path + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else env_path
    )
    return env


def load_times(path: Path) -> dict[str, float]:
    """Per-benchmark ``min`` times (the noise-robust statistic).

    Shared-runner wall clock swings 2-3x under load; the minimum over
    rounds tracks the true cost far more stably than the mean, so the
    regression guard compares minima.
    """
    payload = json.loads(path.read_text())
    return {
        bench["name"]: float(bench["stats"]["min"])
        for bench in payload.get("benchmarks", [])
    }


def compare(
    before_path: Path, after_path: Path, tolerance: float | None = None
) -> list[str]:
    """Print the before/after table; return the benchmarks that regressed.

    A benchmark regresses when its min time slows down by more than
    ``tolerance`` (a fraction); with ``tolerance=None`` the comparison
    is informational only. Benchmarks present in only one file are
    listed by name: a fresh benchmark without a baseline row is
    unguarded until the baseline is regenerated.
    """
    before = load_times(before_path)
    after = load_times(after_path)
    shared = sorted(set(before) & set(after))
    regressions = []
    if shared:
        width = max(len(name) for name in shared)
        print(f"{'benchmark'.ljust(width)}  before(ms)  after(ms)  speedup")
    else:
        print("no common benchmarks between the two files")
    for name in shared:
        ratio = before[name] / after[name] if after[name] > 0 else float("inf")
        flag = ""
        if tolerance is not None and after[name] > before[name] * (
            1.0 + tolerance
        ):
            regressions.append(name)
            flag = f"  REGRESSED (> {tolerance:.0%} slower)"
        print(
            f"{name.ljust(width)}  "
            f"{before[name] * 1e3:9.3f}  {after[name] * 1e3:8.3f}  "
            f"{ratio:6.2f}x{flag}"
        )
    only_before = sorted(set(before) - set(after))
    if only_before:
        print(f"missing from the fresh run: {', '.join(only_before)}")
    only_after = sorted(set(after) - set(before))
    if only_after:
        print(f"unguarded (no baseline row): {', '.join(only_after)}")
    return regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: BENCH_<date>.json in the repo root)",
    )
    parser.add_argument(
        "--all",
        action="store_true",
        help="run the full benchmarks/ directory instead of the substrate "
        "perf and session-overhead suites",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run every substrate benchmark body once without timing "
        "(fast CI breakage check, writes no JSON)",
    )
    parser.add_argument(
        "--compare",
        nargs="+",
        metavar="BENCH_JSON",
        help="two files: compare them and exit. one file: run the "
        "default suites fresh, compare against this baseline, and fail "
        "on --tolerance regressions (the CI perf guard)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="fail (exit 2) when any shared benchmark's min time slows "
        "down by more than this fraction (e.g. 0.3 = 30%%)",
    )
    args = parser.parse_args(argv)

    if args.compare and len(args.compare) == 2:
        regressions = compare(
            Path(args.compare[0]), Path(args.compare[1]), args.tolerance
        )
        return 2 if regressions else 0
    if args.compare and len(args.compare) > 2:
        parser.error("--compare takes one (guard mode) or two files")

    if args.smoke and args.out:
        parser.error("--smoke writes no JSON; drop --out or --smoke")
    # The default targets (and the CI --smoke breakage check) cover the
    # session_overhead, sparse-backend, multi-objective and farm
    # throughput suites too: the ask/tell layer must keep producing the
    # legacy trajectories, both solver backends must keep solving the
    # large-circuit scenario, the hypervolume/EHVI/MOMFBO hot paths stay
    # under the perf guard, the async farm must hold its >= 3x
    # advantage over the barrier pool on heterogeneous latencies, and
    # the service posterior cache must keep its >= 2x hit-vs-refit edge.
    targets = (
        ["benchmarks"]
        if args.all
        else [SUBSTRATE_SUITE, SESSION_SUITE, SPARSE_SUITE, MOO_SUITE,
              FARM_SUITE, SERVICE_SUITE]
    )
    if args.smoke:
        return run_suite(targets, None)

    # Resolve against the caller's cwd: pytest below runs with
    # cwd=REPO_ROOT, which would silently relocate a relative --out.
    if args.compare:  # single file: perf-regression guard mode
        baseline = Path(args.compare[0]).resolve()
        if not baseline.is_file():
            parser.error(f"baseline {baseline} does not exist")
        if args.tolerance is None:
            parser.error(
                "guard mode needs --tolerance (e.g. --tolerance 0.3); "
                "without it no regression could ever be reported"
            )
        out_path = (
            Path(args.out).resolve()
            if args.out
            else REPO_ROOT / "BENCH_fresh.json"
        )
        if out_path == baseline:
            parser.error("--out must differ from the --compare baseline")
        status = run_suite(targets, out_path)
        if status != 0:
            return status
        print(f"wrote {out_path}")
        regressions = compare(baseline, out_path, args.tolerance)
        if regressions:
            print(
                f"perf regression in {len(regressions)} benchmark(s): "
                + ", ".join(regressions)
            )
            return 2
        return 0

    out_path = (
        Path(args.out).resolve()
        if args.out
        else REPO_ROOT / default_output_name()
    )
    status = run_suite(targets, out_path)
    if status == 0:
        print(f"wrote {out_path}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
