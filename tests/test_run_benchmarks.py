"""The perf-guard comparison of ``benchmarks/run_benchmarks.py``."""

import importlib.util
import json
from pathlib import Path

import pytest

_RUNNER = Path(__file__).resolve().parent.parent / "benchmarks" / "run_benchmarks.py"


@pytest.fixture(scope="module")
def runner():
    spec = importlib.util.spec_from_file_location("run_benchmarks", _RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_suite_path_exists(runner):
    """A deleted suite must leave the runner's targets with it, or only
    CI's ``--smoke`` and guard jobs would notice."""
    suites = [v for k, v in vars(runner).items() if k.endswith("_SUITE")]
    assert suites
    assert [p for p in suites if not (runner.REPO_ROOT / p).is_file()] == []


def _bench_file(path, mins):
    """A minimal ``pytest-benchmark --benchmark-json`` file."""
    path.write_text(
        json.dumps(
            {
                "benchmarks": [
                    {"name": name, "stats": {"min": value, "mean": 2 * value}}
                    for name, value in mins.items()
                ]
            }
        )
    )
    return path


def test_compare_flags_regressions_and_lists_unshared(runner, tmp_path, capsys):
    before = _bench_file(
        tmp_path / "before.json",
        {"test_fast": 0.010, "test_slow": 0.010, "test_dropped": 0.001},
    )
    after = _bench_file(
        tmp_path / "after.json",
        {"test_fast": 0.005, "test_slow": 0.020, "test_new": 0.003},
    )
    regressions = runner.compare(before, after, tolerance=0.3)
    out = capsys.readouterr().out
    assert regressions == ["test_slow"]
    assert "REGRESSED (> 30% slower)" in out
    assert "2.00x" in out  # test_fast halved its min time
    assert "missing from the fresh run: test_dropped" in out
    assert "unguarded (no baseline row): test_new" in out


def test_compare_without_tolerance_is_informational(runner, tmp_path, capsys):
    before = _bench_file(tmp_path / "before.json", {"test_a": 0.001})
    after = _bench_file(tmp_path / "after.json", {"test_a": 0.010})
    assert runner.compare(before, after) == []
    assert "REGRESSED" not in capsys.readouterr().out


def test_compare_with_nothing_shared_still_lists_unguarded(
    runner, tmp_path, capsys
):
    before = _bench_file(tmp_path / "before.json", {"test_old": 0.001})
    after = _bench_file(tmp_path / "after.json", {"test_new": 0.001})
    assert runner.compare(before, after, tolerance=0.3) == []
    out = capsys.readouterr().out
    assert "no common benchmarks" in out
    assert "missing from the fresh run: test_old" in out
    assert "unguarded (no baseline row): test_new" in out
