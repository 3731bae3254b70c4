"""``reproflow``: interprocedural dataflow rules for ``reprolint``.

The per-module checkers are single-module AST pattern matchers; they
cannot see an unregistered exception raised in a helper three calls
below ``_evaluate``, or a ``-inf`` that reaches its return value through
two layers of plumbing. This package adds the whole-program layer on top
of the same :class:`~repro.devtools.analysis.engine.ProjectIndex`:

* :mod:`.callgraph` — a project-wide call graph (module-level functions,
  method resolution through the name-based class index, constructors,
  and a conservative name-match fallback for dynamic dispatch);
* :mod:`.summaries` — per-function def-use summaries of non-finite
  values (which parameters flow to the return value, whether the return
  value can carry ``inf``/``nan``), iterated to an interprocedural
  fixpoint;
* :mod:`.xflow` — the rules ``REPRO-XF001..003``: what can propagate out
  of ``_evaluate*`` call chains against each Problem's
  ``failure_exceptions`` registry, swallowed farm-control exceptions,
  and non-finite sentinels leaking into evaluations.

All rules honour the standard ``# reprolint: allow[RULE-ID]`` inline
suppressions; the engine filters them exactly like the per-module rules.
"""

from __future__ import annotations

from typing import Iterable

from ..analysis.engine import Finding, ModuleSource, ProjectIndex
from . import xflow
from .callgraph import CallGraph, build_call_graph
from .summaries import DataflowContext, build_context

__all__ = [
    "RULES",
    "CallGraph",
    "DataflowContext",
    "build_call_graph",
    "build_context",
    "check_project",
]

RULES = xflow.RULES


def check_project(
    modules: Iterable[ModuleSource],
    index: ProjectIndex,
    rules: set[str] | None = None,
) -> list[Finding]:
    """Run every dataflow rule over the whole project at once.

    The call graph and summaries are built once; ``rules`` optionally
    restricts which IDs may report.
    """
    modules = list(modules)
    if rules is not None and not (set(RULES) & rules):
        return []
    findings = xflow.check(build_context(modules, index))
    if rules is not None:
        findings = [f for f in findings if f.rule in rules]
    return sorted(findings)
