"""Tests for the ``reprolint`` static-analysis suite.

One fixture module per rule, each violating exactly that rule, with the
finding asserted down to rule ID and line number — plus the clean-tree
guarantee: ``reprolint`` over ``src/repro`` reports zero findings.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools.analysis import ALL_RULES, run_lint, update_schema_manifest
from repro.devtools.analysis.engine import build_project_index, load_module
from repro.devtools.analysis.serialization import MANIFEST_PATH, build_manifest
from repro.devtools.lint import main as lint_main

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def write_fixture(tmp_path: Path, source: str) -> Path:
    path = tmp_path / "fixture_mod.py"
    path.write_text(textwrap.dedent(source).lstrip("\n"), encoding="utf-8")
    return path


def manifest_for(path: Path) -> dict:
    """Schema manifest matching the fixture exactly (no SER003/4 noise)."""
    module = load_module(path)
    index = build_project_index([module])
    return build_manifest([module], index)


def findings_of(
    tmp_path: Path,
    source: str,
    manifest: dict | None = None,
    rules: set[str] | None = None,
) -> list[tuple[str, int]]:
    path = write_fixture(tmp_path, source)
    if manifest is None:
        manifest = manifest_for(path)
    found = run_lint([path], rules=rules, manifest=manifest)
    return [(f.rule, f.line) for f in found]


# ----------------------------------------------------------------------
# RNG discipline
# ----------------------------------------------------------------------
def test_rng001_global_numpy_rng_call(tmp_path):
    source = """
    import numpy as np


    def draw():
        return np.random.normal(size=3)
    """
    assert findings_of(tmp_path, source) == [("REPRO-RNG001", 5)]


def test_rng001_allows_generator_constructors(tmp_path):
    source = """
    import numpy as np


    def make(seed):
        return np.random.Generator(np.random.PCG64(seed))
    """
    assert findings_of(tmp_path, source) == []


def test_rng002_stdlib_random_import(tmp_path):
    source = """
    import random


    def draw():
        return random.random()
    """
    assert findings_of(tmp_path, source) == [("REPRO-RNG002", 1)]


def test_rng003_unseeded_default_rng(tmp_path):
    source = """
    import numpy as np


    def make():
        return np.random.default_rng()
    """
    assert findings_of(tmp_path, source) == [("REPRO-RNG003", 5)]


def test_rng003_seeded_default_rng_is_fine(tmp_path):
    source = """
    import numpy as np


    def make(seed):
        return np.random.default_rng(seed)
    """
    assert findings_of(tmp_path, source) == []


def test_inline_suppression_same_line(tmp_path):
    source = """
    import numpy as np


    def make():
        return np.random.default_rng()  # reprolint: allow[REPRO-RNG003] test
    """
    assert findings_of(tmp_path, source) == []


def test_inline_suppression_line_above(tmp_path):
    source = """
    import numpy as np


    def make():
        # reprolint: allow[REPRO-RNG003] fixture justification
        return np.random.default_rng()
    """
    assert findings_of(tmp_path, source) == []


# ----------------------------------------------------------------------
# serialization round-trips
# ----------------------------------------------------------------------
def test_ser001_dropped_dataclass_field(tmp_path):
    source = """
    from dataclasses import dataclass


    @dataclass
    class Point:
        x: float
        y: float

        def to_dict(self) -> dict:
            return {"x": self.x, "y": self.y}

        @classmethod
        def from_dict(cls, payload):
            return cls(payload["x"], 0.0)
    """
    # `y` is filled with a constant; the deserializer never mentions it.
    assert findings_of(tmp_path, source) == [("REPRO-SER001", 7)]


def test_ser002_state_key_never_loaded(tmp_path):
    source = """
    class Thing:
        def state_dict(self):
            return {"alpha": 1, "beta": 2}

        def load_state_dict(self, state):
            self.alpha = state["alpha"]
    """
    assert findings_of(tmp_path, source) == [("REPRO-SER002", 3)]


def test_ser003_layout_drift_without_version_bump(tmp_path):
    source = """
    class Thing:
        state_version = 1

        def state_dict(self):
            return {"alpha": 1, "beta": 2}

        def load_state_dict(self, state):
            self.alpha = state["alpha"]
            self.beta = state["beta"]
    """
    stale = {"fixture_mod::Thing": {"state_version": 1, "keys": ["alpha"]}}
    assert findings_of(tmp_path, source, manifest=stale) == [("REPRO-SER003", 1)]


def test_ser003_silent_after_version_bump(tmp_path):
    source = """
    class Thing:
        state_version = 2

        def state_dict(self):
            return {"alpha": 1, "beta": 2}

        def load_state_dict(self, state):
            self.alpha = state["alpha"]
            self.beta = state["beta"]
    """
    stale = {"fixture_mod::Thing": {"state_version": 1, "keys": ["alpha"]}}
    # Bumped version downgrades the drift to a stale-manifest reminder.
    assert findings_of(tmp_path, source, manifest=stale) == [("REPRO-SER004", 1)]


def test_ser004_class_missing_from_manifest(tmp_path):
    source = """
    class Thing:
        def state_dict(self):
            return {"alpha": 1}

        def load_state_dict(self, state):
            self.alpha = state["alpha"]
    """
    assert findings_of(tmp_path, source, manifest={}) == [("REPRO-SER004", 1)]


def test_update_schema_manifest_round_trip(tmp_path):
    source = """
    class Thing:
        def state_dict(self):
            return {"alpha": 1}

        def load_state_dict(self, state):
            self.alpha = state["alpha"]
    """
    path = write_fixture(tmp_path, source)
    manifest_path = tmp_path / "manifest.json"
    manifest = update_schema_manifest([path], manifest_path=manifest_path)
    assert manifest == {
        "fixture_mod::Thing": {"state_version": None, "keys": ["alpha"]}
    }
    assert manifest_path.exists()
    assert run_lint([path], manifest=manifest) == []


# ----------------------------------------------------------------------
# failure paths: swallowed farm-control exceptions (XF002) and
# non-finite literals outside the failure hooks (XF003)
# ----------------------------------------------------------------------
def test_xf002_swallowed_timeout(tmp_path):
    source = """
    def pump(pool, fn):
        try:
            return pool.submit(fn).result(timeout=1.0)
        except TimeoutError:
            return None
    """
    assert findings_of(tmp_path, source, rules={"REPRO-XF002"}) == [
        ("REPRO-XF002", 4)
    ]


def test_xf002_bare_except_without_reraise(tmp_path):
    source = """
    def read(path):
        try:
            return open(path).read()
        except:
            return ""
    """
    assert findings_of(tmp_path, source, rules={"REPRO-XF002"}) == [
        ("REPRO-XF002", 4)
    ]


def test_xf002_reraise_is_fine(tmp_path):
    source = """
    def pump(pool, fn):
        try:
            return pool.submit(fn).result(timeout=1.0)
        except TimeoutError:
            pool.shutdown()
            raise
    """
    assert findings_of(tmp_path, source, rules={"REPRO-XF002"}) == []


def test_xf002_noncritical_handler_is_fine(tmp_path):
    source = """
    def parse(text):
        try:
            return float(text)
        except ValueError:
            return 0.0
    """
    assert findings_of(tmp_path, source, rules={"REPRO-XF002"}) == []


def test_fail002_nonfinite_literal_in_evaluate(tmp_path):
    source = """
    class Problem:
        failure_exceptions = ()


    class Bad(Problem):
        def _evaluate(self, x, fidelity):
            return float("inf")
    """
    assert findings_of(tmp_path, source) == [("REPRO-XF003", 7)]


def test_fail002_nonfinite_into_evaluation_call(tmp_path):
    source = """
    import numpy as np


    def build(Evaluation):
        return Evaluation(objective=np.inf, fidelity="high")
    """
    assert findings_of(tmp_path, source) == [("REPRO-XF003", 5)]


def test_fail002_failure_hooks_are_exempt(tmp_path):
    source = """
    class Problem:
        failure_exceptions = ()


    class Good(Problem):
        def _failure_outcome(self, Evaluation, fidelity):
            return Evaluation(objective=float("inf"), fidelity=fidelity)
    """
    assert findings_of(tmp_path, source) == []


def test_xf003_honours_inline_suppression(tmp_path):
    source = """
    import numpy as np


    def build(Evaluation):
        return Evaluation(
            # reprolint: allow[REPRO-XF003] fixture justification
            objective=np.inf,
            fidelity="high",
        )
    """
    assert findings_of(tmp_path, source) == []
    other_rule = source.replace("REPRO-XF003", "REPRO-XF002")
    assert findings_of(tmp_path, other_rule) == [("REPRO-XF003", 7)]


# ----------------------------------------------------------------------
# executor hygiene
# ----------------------------------------------------------------------
def test_conc001_blocking_result_without_timeout(tmp_path):
    source = """
    def harvest(future):
        return future.result()
    """
    assert findings_of(tmp_path, source) == [("REPRO-CONC001", 2)]


def test_conc001_result_with_timeout_is_fine(tmp_path):
    source = """
    def harvest(future):
        return future.result(timeout=30.0)
    """
    assert findings_of(tmp_path, source) == []


def test_conc002_broad_except_pass(tmp_path):
    source = """
    def run(work):
        try:
            work()
        except Exception:
            pass
    """
    assert findings_of(tmp_path, source) == [("REPRO-CONC002", 4)]


def test_conc003_discarded_submit(tmp_path):
    source = """
    def go(pool, fn):
        pool.submit(fn)
    """
    assert findings_of(tmp_path, source) == [("REPRO-CONC003", 2)]


def test_conc003_kept_future_is_fine(tmp_path):
    source = """
    def go(pool, fn):
        future = pool.submit(fn)
        return future.result(timeout=1.0)
    """
    assert findings_of(tmp_path, source) == []


def test_conc004_timeoutless_socket_read(tmp_path):
    source = """
    def pump(sock):
        while True:
            data = sock.recv(4096)
            if not data:
                return
    """
    assert findings_of(tmp_path, source) == [("REPRO-CONC004", 3)]


def test_conc004_readline_on_socket_file(tmp_path):
    source = """
    def handle(rfile):
        return rfile.readline()
    """
    assert findings_of(tmp_path, source) == [("REPRO-CONC004", 2)]


def test_conc004_settimeout_anywhere_in_module_is_fine(tmp_path):
    source = """
    def setup(sock):
        sock.settimeout(30.0)


    def pump(sock):
        return sock.recv(4096)
    """
    assert findings_of(tmp_path, source) == []


def test_conc004_connection_timeout_kwarg_is_fine(tmp_path):
    source = """
    import socket


    def dial(addr):
        sock = socket.create_connection(addr, timeout=10.0)
        return sock.recv(4096)
    """
    assert findings_of(tmp_path, source) == []


def test_conc004_plain_file_read_is_out_of_scope(tmp_path):
    source = """
    def slurp(handle):
        return handle.read()
    """
    assert findings_of(tmp_path, source) == []


# ----------------------------------------------------------------------
# CLI and the clean-tree guarantee
# ----------------------------------------------------------------------
def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == [
        "REPRO-CONC001",
        "REPRO-CONC002",
        "REPRO-CONC003",
        "REPRO-CONC004",
        "REPRO-RNG001",
        "REPRO-RNG002",
        "REPRO-RNG003",
        "REPRO-SER001",
        "REPRO-SER002",
        "REPRO-SER003",
        "REPRO-SER004",
        "REPRO-XF002",
        "REPRO-XF003",
    ]


def test_cli_text_format_hides_suppressed(tmp_path, capsys):
    source = """
    import numpy as np


    def make():
        return np.random.default_rng()  # reprolint: allow[REPRO-RNG003] test
    """
    path = write_fixture(tmp_path, source)
    code = lint_main([str(path), "--rules", "REPRO-RNG003"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_cli_exit_codes(tmp_path, capsys):
    dirty = write_fixture(tmp_path, "import random\n")
    assert lint_main([str(dirty)]) == 1
    out = capsys.readouterr().out
    assert "REPRO-RNG002" in out
    assert lint_main([str(dirty), "--rules", "REPRO-CONC001"]) == 0


def test_clean_tree_has_zero_findings():
    findings = run_lint([REPO_SRC])
    assert [f.render() for f in findings] == []


def test_schema_manifest_regeneration_is_byte_identical(tmp_path):
    first = tmp_path / "manifest_a.json"
    second = tmp_path / "manifest_b.json"
    update_schema_manifest([REPO_SRC], manifest_path=first)
    update_schema_manifest([REPO_SRC], manifest_path=second)
    blob = first.read_bytes()
    assert blob == second.read_bytes()
    assert blob.endswith(b"\n")
    # The committed manifest must be exactly what regeneration produces.
    assert blob == MANIFEST_PATH.read_bytes()


@pytest.mark.parametrize("module", ["repro.devtools.analysis", "repro.devtools.lint"])
def test_each_devtools_package_imports_first_in_a_fresh_interpreter(module):
    """Whichever devtools module a fresh interpreter imports first must
    load and see the whole catalog."""
    code = (
        f"import {module}\n"
        "from repro.devtools.analysis import ALL_RULES\n"
        "print(' '.join(sorted(ALL_RULES)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == sorted(ALL_RULES)
