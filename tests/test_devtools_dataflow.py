"""Tests for the ``reproflow`` interprocedural dataflow rules.

Mirrors ``test_devtools_lint.py``: one failing fixture per rule ID with
the finding asserted down to rule ID and line, negatives for every
sanitizer/escape path, call-graph builder coverage (inherited-method
resolution, recursion, conservative dynamic edges, cross-module
imports), inline suppression and schema-manifest determinism. The
regression tests for the real bug REPRO-XF003 caught live in
``test_circuits.py``.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools.analysis import ALL_RULES, run_lint, update_schema_manifest
from repro.devtools.analysis.engine import build_project_index, load_module
from repro.devtools.analysis.serialization import MANIFEST_PATH
from repro.devtools.dataflow import RULES as DATAFLOW_RULE_CATALOG
from repro.devtools.dataflow import build_call_graph, build_context
from repro.devtools.lint import main as lint_main

REPO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

DATAFLOW_RULES = set(DATAFLOW_RULE_CATALOG)


def write_fixture(tmp_path: Path, source: str, name: str = "fixture_mod.py") -> Path:
    path = tmp_path / name
    path.write_text(textwrap.dedent(source).lstrip("\n"), encoding="utf-8")
    return path


def dataflow_findings(
    tmp_path: Path,
    source: str,
    rules: set[str] | None = None,
) -> list[tuple[str, int]]:
    path = write_fixture(tmp_path, source)
    found = run_lint([path], rules=rules or DATAFLOW_RULES, manifest={})
    return [(f.rule, f.line) for f in found]


def graph_of(tmp_path: Path, sources: dict[str, str]):
    modules = []
    for name, source in sources.items():
        path = write_fixture(tmp_path, source, name=f"{name}.py")
        modules.append(load_module(path))
    index = build_project_index(modules)
    return build_call_graph(modules, index)


# ----------------------------------------------------------------------
# call-graph builder
# ----------------------------------------------------------------------
def test_callgraph_resolves_inherited_method(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "cg_mod": """
            class Base:
                def helper(self):
                    return 1.0


            class Child(Base):
                def compute(self):
                    return self.helper()
            """
        },
    )
    assert graph.callees("cg_mod::Child.compute") == {"cg_mod::Base.helper"}
    (site,) = graph.sites("cg_mod::Child.compute")
    assert site.dynamic is False


def test_callgraph_recursion_terminates(tmp_path):
    source = """
    def fact(n):
        if n <= 1:
            return 1
        return n * fact(n - 1)
    """
    path = write_fixture(tmp_path, source)
    module = load_module(path)
    index = build_project_index([module])
    graph = build_call_graph([module], index)
    assert graph.callees("fixture_mod::fact") == {"fixture_mod::fact"}
    # The summary fixpoint must terminate on the cycle too.
    ctx = build_context([module], index)
    assert "fixture_mod::fact" in ctx.summaries


def test_callgraph_dynamic_call_degrades_to_conservative_edge(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "cg_mod": """
            class SineSource:
                def level(self):
                    return 0.5


            class NoiseSource:
                def level(self):
                    return 0.7


            def read(source):
                return source.level()
            """
        },
    )
    (site,) = graph.sites("cg_mod::read")
    assert site.dynamic is True
    assert set(site.targets) == {
        "cg_mod::SineSource.level",
        "cg_mod::NoiseSource.level",
    }


def test_callgraph_cross_module_import_edge(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "mod_a": """
            def helper(x):
                return x
            """,
            "mod_b": """
            from mod_a import helper


            def outer(x):
                return helper(x)
            """,
        },
    )
    assert graph.callees("mod_b::outer") == {"mod_a::helper"}


def test_callgraph_nested_def_resolution(tmp_path):
    graph = graph_of(
        tmp_path,
        {
            "cg_mod": """
            def outer(x):
                def inner(y):
                    return y + 1
                return inner(x)
            """
        },
    )
    assert graph.callees("cg_mod::outer") == {"cg_mod::outer.inner"}


# ----------------------------------------------------------------------
# REPRO-XF001: unregistered exceptions escaping _evaluate* chains
# ----------------------------------------------------------------------
def test_xf001_unregistered_exception_from_helper(tmp_path):
    source = """
    class SolverDivergedError(RuntimeError):
        pass


    def helper(x):
        if x > 0:
            raise SolverDivergedError("diverged")
        return x


    class FixtureProblem:
        failure_exceptions = (ValueError,)

        def _evaluate(self, x, fidelity):
            return helper(x)
    """
    assert dataflow_findings(tmp_path, source) == [("REPRO-XF001", 15)]


def test_xf001_three_calls_deep(tmp_path):
    source = """
    class SolverDivergedError(RuntimeError):
        pass


    def inner(x):
        raise SolverDivergedError("diverged")


    def middle(x):
        return inner(x)


    def outer(x):
        return middle(x)


    class FixtureProblem:
        failure_exceptions = ()

        def _evaluate(self, x, fidelity):
            return outer(x)
    """
    assert dataflow_findings(tmp_path, source) == [("REPRO-XF001", 21)]


def test_xf001_registered_exception_is_fine(tmp_path):
    source = """
    class SolverDivergedError(RuntimeError):
        pass


    def helper(x):
        raise SolverDivergedError("diverged")


    class FixtureProblem:
        failure_exceptions = (SolverDivergedError,)

        def _evaluate(self, x, fidelity):
            return helper(x)
    """
    assert dataflow_findings(tmp_path, source) == []


def test_xf001_registered_base_covers_subclass(tmp_path):
    source = """
    class SolverError(RuntimeError):
        pass


    class DivergedError(SolverError):
        pass


    def helper(x):
        raise DivergedError("diverged")


    class FixtureProblem:
        failure_exceptions = (SolverError,)

        def _evaluate(self, x, fidelity):
            return helper(x)
    """
    assert dataflow_findings(tmp_path, source) == []


def test_xf001_builtin_escape_set_is_exempt(tmp_path):
    source = """
    def helper(x):
        if x < 0:
            raise ValueError("negative")
        return x


    class FixtureProblem:
        failure_exceptions = ()

        def _evaluate(self, x, fidelity):
            return helper(x)
    """
    assert dataflow_findings(tmp_path, source) == []


def test_xf001_handler_in_helper_filters_subclass(tmp_path):
    source = """
    class SolverError(RuntimeError):
        pass


    class DivergedError(SolverError):
        pass


    def risky(x):
        raise DivergedError("diverged")


    def safe(x):
        try:
            return risky(x)
        except SolverError:
            return 0.0


    class FixtureProblem:
        failure_exceptions = ()

        def _evaluate(self, x, fidelity):
            return safe(x)
    """
    assert dataflow_findings(tmp_path, source) == []


def test_xf001_direct_raise_keeps_the_narrow_escape_set(tmp_path):
    source = """
    def helper(x):
        if x < 0:
            raise ValueError("negative")
        return x


    class FixtureProblem:
        failure_exceptions = ()

        def _evaluate(self, x, fidelity):
            value = helper(x)
            if value > 1.0:
                raise ValueError("out of range")
            return value
    """
    # The helper's ValueError is a programming error allowed to escape;
    # the same type raised in the body itself is not.
    assert dataflow_findings(tmp_path, source) == [("REPRO-XF001", 13)]


# ----------------------------------------------------------------------
# REPRO-XF002: swallowing farm-critical exceptions
# ----------------------------------------------------------------------
def test_xf002_swallowed_timeout(tmp_path):
    source = """
    def pump(pool, fn):
        try:
            return pool.submit(fn).result(timeout=1.0)
        except TimeoutError:
            return None
    """
    assert dataflow_findings(tmp_path, source, rules={"REPRO-XF002"}) == [
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
    assert dataflow_findings(tmp_path, source, rules={"REPRO-XF002"}) == [
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
    assert dataflow_findings(tmp_path, source, rules={"REPRO-XF002"}) == []


def test_xf002_noncritical_handler_is_fine(tmp_path):
    source = """
    def parse(text):
        try:
            return float(text)
        except ValueError:
            return 0.0
    """
    assert dataflow_findings(tmp_path, source, rules={"REPRO-XF002"}) == []


# ----------------------------------------------------------------------
# REPRO-XF003: non-finite sentinels reaching _evaluate* returns
# ----------------------------------------------------------------------
def test_xf003_helper_sentinel_reaches_return(tmp_path):
    source = """
    def to_db(p):
        if p <= 0:
            return float("-inf")
        return 10.0


    class FixtureProblem:
        failure_exceptions = ()

        def _evaluate(self, x, fidelity):
            level = to_db(x)
            return level
    """
    assert dataflow_findings(tmp_path, source) == [("REPRO-XF003", 12)]


def test_xf003_isfinite_guard_sanitizes(tmp_path):
    source = """
    import numpy as np


    def to_db(p):
        if p <= 0:
            return float("-inf")
        return 10.0


    class FixtureProblem:
        failure_exceptions = ()

        def _evaluate(self, x, fidelity):
            level = to_db(x)
            if not np.isfinite(level):
                level = -100.0
            return level
    """
    assert dataflow_findings(tmp_path, source) == []


def test_xf003_clamp_idiom_sanitizes(tmp_path):
    source = """
    import numpy as np


    def worst(values):
        acc = -np.inf
        for value in values:
            acc = max(acc, value)
        return acc


    class FixtureProblem:
        failure_exceptions = ()

        def _evaluate(self, x, fidelity):
            return worst(x)
    """
    assert dataflow_findings(tmp_path, source) == []


# ----------------------------------------------------------------------
# suppression reuse
# ----------------------------------------------------------------------
def test_dataflow_rules_honour_inline_suppression(tmp_path):
    source = """
    def to_db(p):
        if p <= 0:
            return float("-inf")
        return 10.0


    class FixtureProblem:
        failure_exceptions = ()

        def _evaluate(self, x, fidelity):
            # reprolint: allow[REPRO-XF003] sentinel is floored by caller
            return to_db(x)
    """
    assert dataflow_findings(tmp_path, source) == []


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


# ----------------------------------------------------------------------
# schema manifest determinism
# ----------------------------------------------------------------------
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


@pytest.mark.parametrize(
    "module",
    ["repro.devtools.dataflow", "repro.devtools.analysis", "repro.devtools.lint"],
)
def test_each_devtools_package_imports_first_in_a_fresh_interpreter(module):
    """``analysis`` builds its catalog from ``dataflow``, and ``dataflow``
    imports ``analysis.engine``; whichever a fresh interpreter imports
    first must load and see the whole catalog."""
    code = (
        f"import {module}\n"
        "from repro.devtools.analysis import ALL_RULES\n"
        "print(' '.join(sorted(ALL_RULES)))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == sorted(ALL_RULES)
