"""Failure-path rules (REPRO-XF002, REPRO-XF003).

Evaluation failure is a first-class, *finite* outcome: ``evaluate()``
catches a Problem's ``failure_exceptions`` and routes them through the
failure hooks (``failure_evaluation`` / ``_failure_outcome``), which own
the only sanctioned non-finite sentinels. Both rules are per-node:

* XF002 — an ``except`` clause that swallows, without re-raising, a bare
  ``except`` or a type the farm's retry ladder must observe
  (:data:`CRITICAL_TYPES`): worker crashes and timeouts would become
  silent hangs or corrupted retry accounting.
* XF003 — a non-finite literal (``np.inf``, ``float("nan")``) written in
  the ``_evaluate*`` body of a Problem-like class (a ``Problem`` base by
  name, or a body defining ``failure_exceptions``; the MOSFET's device
  ``_evaluate`` is not one), or passed to an ``*Evaluation(...)`` call
  outside the failure hooks and ``Failed*`` classes: it would poison the
  GP fit silently.

An unregistered exception or a non-finite value arriving from a helper
is checked at runtime over every registered problem instead: the
exception contract in ``tests/test_circuits.py`` and the conformance
sweep in ``tests/test_problems.py``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .engine import Finding, ModuleSource, ProjectIndex, dotted_name

__all__ = ["RULES", "check"]

RULES = {
    "REPRO-XF002": (
        "except clause swallows an exception type the evaluator farm's "
        "retry logic depends on"
    ),
    "REPRO-XF003": (
        "non-finite sentinel value can reach an evaluation outside the "
        "failure hooks"
    ),
}

_EVALUATE_METHODS = {"_evaluate", "_evaluate_multi"}
_FAILURE_HOOKS = {
    "_failure_outcome",
    "_failure_outcome_multi",
    "failure_evaluation",
}

#: Exception types the farm's control flow depends on observing.
CRITICAL_TYPES = frozenset(
    {
        "BaseException",
        "KeyboardInterrupt",
        "SystemExit",
        "GeneratorExit",
        "BrokenProcessPool",
        "TimeoutError",
        "FuturesTimeoutError",
        "SimulatedCrashError",
    }
)

_NONFINITE_ATTRS = {"inf", "Inf", "infty", "Infinity", "nan", "NaN", "NINF", "PINF"}
_NUMERIC_MODULES = {"np", "numpy", "math"}
_NONFINITE_STRINGS = {"inf", "infinity", "nan"}


def is_nonfinite_literal(node: ast.AST) -> bool:
    """True for ``np.inf``/``math.nan``-style constants and ``float("inf")``."""
    if isinstance(node, ast.Attribute):
        return (
            node.attr in _NONFINITE_ATTRS
            and isinstance(node.value, ast.Name)
            and node.value.id in _NUMERIC_MODULES
        )
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
        and node.args[0].value.lstrip("+-").lower() in _NONFINITE_STRINGS
    )


def _is_problem_like(index: ProjectIndex, node: ast.ClassDef) -> bool:
    if any(name.endswith("Problem") for name in index.mro_names(node.name)):
        return True
    return index.resolve_class_attr(node.name, "failure_exceptions") is not None


def _handler_names(handler: ast.ExceptHandler) -> list[str] | None:
    """Short type names a handler catches; ``None`` for bare except."""
    if handler.type is None:
        return None
    nodes = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    names: list[str] = []
    for node in nodes:
        name = dotted_name(node)
        if name is not None:
            names.append(name.rsplit(".", 1)[-1])
    return names


def _check_xf002(module: ModuleSource) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Try):
            continue
        for handler in node.handlers:
            names = _handler_names(handler)
            if names is None:
                swallowed = ["<bare except>"]
            elif set(names) & CRITICAL_TYPES:
                swallowed = sorted(set(names) & CRITICAL_TYPES)
            else:
                continue
            if any(isinstance(n, ast.Raise) for n in ast.walk(handler)):
                continue
            findings.append(
                Finding(
                    module.display_path,
                    handler.lineno,
                    "REPRO-XF002",
                    f"handler swallows {', '.join(swallowed)} without "
                    "re-raising; the farm's retry/timeout logic depends "
                    "on observing it",
                )
            )
    return findings


def _check_xf003(module: ModuleSource, index: ProjectIndex) -> list[Finding]:
    findings: list[Finding] = []
    for cls in ast.walk(module.tree):
        if not isinstance(cls, ast.ClassDef) or not _is_problem_like(index, cls):
            continue
        for method in cls.body:
            if not (
                isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                and method.name in _EVALUATE_METHODS
            ):
                continue
            where = f"{cls.name}.{method.name}()"
            for literal in ast.walk(method):
                if is_nonfinite_literal(literal):
                    findings.append(
                        Finding(
                            module.display_path,
                            literal.lineno,
                            "REPRO-XF003",
                            f"non-finite literal in {where}; raise a "
                            "failure_exceptions member instead",
                        )
                    )
    for call, literal in _evaluation_literals(module.tree):
        findings.append(
            Finding(
                module.display_path,
                literal.lineno,
                "REPRO-XF003",
                f"non-finite literal passed to {call}() outside the "
                "failure hooks",
            )
        )
    return findings


def _evaluation_literals(node: ast.AST) -> Iterator[tuple[str, ast.AST]]:
    """``(callee, literal)`` for non-finite literals passed to an
    ``*Evaluation*(...)`` call outside the failure hooks and ``Failed*``
    classes, which own the sanctioned sentinels."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        if node.name in _FAILURE_HOOKS:
            return
    elif isinstance(node, ast.ClassDef) and node.name.startswith("Failed"):
        return
    elif isinstance(node, ast.Call):
        callee = dotted_name(node.func)
        short = callee.rsplit(".", 1)[-1] if callee else ""
        if "Evaluation" in short and not short.startswith("Failed"):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                for sub in ast.walk(arg):
                    if is_nonfinite_literal(sub):
                        yield short, sub
    for child in ast.iter_child_nodes(node):
        yield from _evaluation_literals(child)


def check(module: ModuleSource, index: ProjectIndex) -> list[Finding]:
    return _check_xf002(module) + _check_xf003(module, index)
