"""Exception-flow and failure-path finiteness rules (REPRO-XF001..003).

Evaluation failure is a first-class, *finite* outcome: a ``Problem``
declares ``failure_exceptions``, ``evaluate()`` catches exactly those and
routes them through the failure hooks (``failure_evaluation`` /
``_failure_outcome``), which own the only sanctioned non-finite
sentinels. Everything else escaping an ``_evaluate*`` call chain kills
the run, and a non-finite objective poisons the GP fit silently. These
rules walk the call graph:

* XF001 — an exception type that can propagate out of
  ``_evaluate``/``_evaluate_multi`` but is not in that Problem's
  ``failure_exceptions`` (subclass-aware, matching the runtime
  ``except self.failure_exceptions`` semantics). A raise written in the
  method itself may escape unregistered only as ``NotImplementedError``
  or ``TypeError`` (abstract stubs and signature guards are *meant* to
  escape); one that arrives through a call may also be any type in the
  builtin *escape set* of programming errors (``ValueError``,
  ``KeyError``, ...). Both sets match by exact name: a custom subclass
  of ``RuntimeError`` (e.g. ``ConvergenceError``) still must be
  registered.
* XF002 — an ``except`` clause swallowing a type the evaluator farm's
  retry ladder depends on (``BaseException``, ``KeyboardInterrupt``,
  ``SystemExit``, ``GeneratorExit``, ``BrokenProcessPool``,
  ``TimeoutError``, ``SimulatedCrashError``) or a bare ``except``,
  without re-raising. Swallowing these turns worker crashes and
  timeouts into silent hangs or corrupted retry accounting.
* XF003 — a non-finite sentinel (``np.inf``/``float("nan")``) written
  in an ``_evaluate*`` body, reaching its return value from a helper
  through any call chain (taint from the summary engine), or passed to
  an ``Evaluation``-family constructor outside the failure hooks and
  ``Failed*`` classes.

The ``_evaluate*`` checks are scoped to Problem-like classes (a
``Problem`` base by name, or a body defining ``failure_exceptions``), so
the MOSFET's unrelated ``_evaluate`` device method is out of scope by
construction.

Per-function escaping-exception sets are computed with full
``try``/``except`` awareness (handler filtering is subclass-aware via
the project index plus a builtin hierarchy table; bare re-raises inside
handlers re-raise the caught names) and iterated over the call graph to
a fixpoint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from ..analysis.engine import Finding, ProjectIndex, dotted_name
from .callgraph import CallSite, FunctionDef, FunctionInfo
from .summaries import DataflowContext, is_nonfinite_literal, own_body_nodes

__all__ = ["RULES", "BUILTIN_ESCAPES", "CRITICAL_TYPES", "DIRECT_ESCAPES", "check"]

RULES = {
    "REPRO-XF001": (
        "exception can escape an _evaluate* call chain without being in "
        "failure_exceptions or the builtin escape set"
    ),
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

#: Types a raise written in an ``_evaluate*`` body may let escape
#: unregistered: abstract stubs and signature guards.
DIRECT_ESCAPES = frozenset({"NotImplementedError", "TypeError"})

#: Programming-error types allowed to escape ``_evaluate*`` unregistered
#: from a helper: they indicate bugs that *should* kill the run loudly.
#: Matched by exact name — environmental errors (``OSError`` family) and
#: custom subclasses must be registered in ``failure_exceptions``
#: explicitly.
BUILTIN_ESCAPES = DIRECT_ESCAPES | {
    "ValueError",
    "KeyError",
    "IndexError",
    "LookupError",
    "AttributeError",
    "AssertionError",
    "RuntimeError",
    "ArithmeticError",
    "ZeroDivisionError",
    "OverflowError",
    "FloatingPointError",
    "StopIteration",
    "NameError",
    "ImportError",
    "MemoryError",
    "RecursionError",
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

#: Partial builtin exception hierarchy for subclass-aware handler checks.
_BUILTIN_BASES: dict[str, tuple[str, ...]] = {
    "Exception": ("BaseException",),
    "ValueError": ("Exception",),
    "TypeError": ("Exception",),
    "LookupError": ("Exception",),
    "KeyError": ("LookupError",),
    "IndexError": ("LookupError",),
    "ArithmeticError": ("Exception",),
    "ZeroDivisionError": ("ArithmeticError",),
    "OverflowError": ("ArithmeticError",),
    "FloatingPointError": ("ArithmeticError",),
    "RuntimeError": ("Exception",),
    "NotImplementedError": ("RuntimeError",),
    "RecursionError": ("RuntimeError",),
    "OSError": ("Exception",),
    "TimeoutError": ("OSError",),
    "FileNotFoundError": ("OSError",),
    "PermissionError": ("OSError",),
    "AttributeError": ("Exception",),
    "NameError": ("Exception",),
    "ImportError": ("Exception",),
    "ModuleNotFoundError": ("ImportError",),
    "StopIteration": ("Exception",),
    "AssertionError": ("Exception",),
    "MemoryError": ("Exception",),
    "KeyboardInterrupt": ("BaseException",),
    "SystemExit": ("BaseException",),
    "GeneratorExit": ("BaseException",),
    "LinAlgError": ("Exception",),
}

#: Catch-all handler names: everything tracked here is assumed caught.
_CATCH_ALL = {"Exception", "BaseException"}


def _ancestors(index: ProjectIndex, name: str) -> set[str]:
    """Name-based superclass closure via project index + builtin table."""
    seen: set[str] = set()
    queue = [name]
    while queue:
        current = queue.pop()
        if current in seen:
            continue
        seen.add(current)
        info = index.classes.get(current)
        if info is not None:
            queue.extend(info.base_names)
        queue.extend(_BUILTIN_BASES.get(current, ()))
    return seen


def _is_problem_like(index: ProjectIndex, node: ast.ClassDef) -> bool:
    if any(name.endswith("Problem") for name in index.mro_names(node.name)):
        return True
    return index.resolve_class_attr(node.name, "failure_exceptions") is not None


def _failure_exception_names(index: ProjectIndex, class_name: str) -> set[str] | None:
    """Short names in the class's ``failure_exceptions``; ``None`` if the
    registry is built dynamically and membership cannot be checked."""
    value = index.resolve_class_attr(class_name, "failure_exceptions")
    if value is None:
        return set()
    if not isinstance(value, ast.Tuple):
        return None
    names: set[str] = set()
    for elt in value.elts:
        name = dotted_name(elt)
        if name is None:
            return None
        names.add(name.rsplit(".", 1)[-1])
    return names


def _evaluate_methods(
    ctx: DataflowContext,
) -> Iterator[tuple[str, ast.ClassDef, FunctionDef]]:
    """``(path, class, method)`` for every Problem-like ``_evaluate*``."""
    for module in ctx.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not _is_problem_like(ctx.index, node):
                continue
            for stmt in node.body:
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name in _EVALUATE_METHODS
                ):
                    yield module.display_path, node, stmt


@dataclass(frozen=True)
class _Origin:
    """Where an escaping exception enters the analysed body."""

    line: int
    via_call: bool
    source: str  # callee qual for calls, "raise" for direct raises


_Escapes = dict  # str -> _Origin


def _merge(out: _Escapes, name: str, origin: _Origin) -> None:
    """Keep the first origin of ``name``, unless a direct raise comes
    later: XF001 checks that one against the narrower escape set."""
    held = out.get(name)
    if held is None or (held.via_call and not origin.via_call):
        out[name] = origin


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


def _caught_by(index: ProjectIndex, exc_name: str, names: list[str] | None) -> bool:
    if names is None:
        return True  # bare except
    if any(n in _CATCH_ALL for n in names):
        # Exception does not catch the BaseException-only trio.
        if "BaseException" in names:
            return True
        return exc_name not in ("KeyboardInterrupt", "SystemExit", "GeneratorExit")
    ancestors = _ancestors(index, exc_name)
    return any(n in ancestors for n in names)


class _EscapeAnalysis:
    """Per-function escaping-exception fixpoint over the call graph."""

    def __init__(self, ctx: DataflowContext) -> None:
        self.ctx = ctx
        self.names: dict[str, frozenset] = {
            qual: frozenset() for qual in ctx.graph.functions
        }

    def run(self) -> None:
        order = sorted(self.ctx.graph.functions)
        for _ in range(30):
            changed = False
            for qual in order:
                info = self.ctx.graph.functions[qual]
                escapes = self._body_escapes(info, info.node.body)
                new = frozenset(escapes)
                if new != self.names[qual]:
                    self.names[qual] = new
                    changed = True
            if not changed:
                break

    # -- statement walk ---------------------------------------------------

    def _expr_escapes(self, info: FunctionInfo, node: ast.AST) -> _Escapes:
        """Escapes contributed by call sites inside one expression/stmt."""
        out: _Escapes = {}
        sites = self.ctx.sites.get(info.qual, {})
        stack = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(current, ast.Call):
                site = sites.get(id(current))
                if site is not None:
                    self._site_escapes(site, out)
            stack.extend(ast.iter_child_nodes(current))
        return out

    def _site_escapes(self, site: CallSite, out: _Escapes) -> None:
        for target in site.targets:
            for name in self.names.get(target, ()):
                _merge(out, name, _Origin(site.lineno, True, target))

    def _body_escapes(self, info: FunctionInfo, stmts: list[ast.stmt]) -> _Escapes:
        out: _Escapes = {}
        for stmt in stmts:
            for name, origin in self._stmt_escapes(info, stmt).items():
                _merge(out, name, origin)
        return out

    def _stmt_escapes(self, info: FunctionInfo, stmt: ast.stmt) -> _Escapes:
        if isinstance(stmt, ast.Try):
            return self._try_escapes(info, stmt)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return {}
        if isinstance(stmt, ast.Raise):
            out = self._expr_escapes(info, stmt)
            name = _raised_name(stmt)
            if name is not None:
                _merge(out, name, _Origin(stmt.lineno, False, "raise"))
            return out

        out: _Escapes = {}
        body_lists = []
        header_exprs: list[ast.AST] = []
        if isinstance(stmt, (ast.If, ast.While)):
            header_exprs = [stmt.test]
            body_lists = [stmt.body, stmt.orelse]
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            header_exprs = [stmt.iter]
            body_lists = [stmt.body, stmt.orelse]
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            header_exprs = [item.context_expr for item in stmt.items]
            body_lists = [stmt.body]
        else:
            header_exprs = [stmt]

        for expr in header_exprs:
            for name, origin in self._expr_escapes(info, expr).items():
                _merge(out, name, origin)
        for body in body_lists:
            for name, origin in self._body_escapes(info, body).items():
                _merge(out, name, origin)
        return out

    def _try_escapes(self, info: FunctionInfo, stmt: ast.Try) -> _Escapes:
        out: _Escapes = {}
        body_escapes = self._body_escapes(info, stmt.body)
        handler_names = [_handler_names(h) for h in stmt.handlers]
        for name, origin in body_escapes.items():
            if not any(
                _caught_by(self.ctx.index, name, names) for names in handler_names
            ):
                _merge(out, name, origin)
        for handler, names in zip(stmt.handlers, handler_names):
            for name, origin in self._body_escapes(info, handler.body).items():
                _merge(out, name, origin)
            if _has_bare_reraise(handler) and names:
                # ``except X: ...; raise`` re-raises what it caught.
                for name in names:
                    if name in body_escapes:
                        _merge(out, name, body_escapes[name])
        for body in (stmt.orelse, stmt.finalbody):
            for name, origin in self._body_escapes(info, body).items():
                _merge(out, name, origin)
        return out


def _raised_name(node: ast.Raise) -> str | None:
    """Short name of the raised type; ``None`` for a bare re-raise (the
    ``Try`` branch handles it) or an unnameable expression."""
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if exc is None:
        return None
    name = dotted_name(exc)
    return None if name is None else name.rsplit(".", 1)[-1]


def _has_bare_reraise(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(n, ast.Raise) and n.exc is None for n in ast.walk(handler))


# ---------------------------------------------------------------------------
# rules


def _check_xf001(
    ctx: DataflowContext, analysis: _EscapeAnalysis, quals: dict[int, str]
) -> list[Finding]:
    findings: list[Finding] = []
    for path, cls, method in _evaluate_methods(ctx):
        allowed = _failure_exception_names(ctx.index, cls.name)
        if allowed is None:
            continue  # dynamically built registry: cannot check
        qual = quals.get(id(method))
        if qual is None:
            continue
        info = ctx.graph.functions[qual]
        escapes = analysis._body_escapes(info, info.node.body)
        for exc_name, origin in sorted(escapes.items()):
            escape_set = BUILTIN_ESCAPES if origin.via_call else DIRECT_ESCAPES
            # A registered base class catches subclasses at runtime.
            if exc_name in escape_set or _ancestors(ctx.index, exc_name) & allowed:
                continue
            where = (
                f"{origin.source.split('::', 1)[-1]}()"
                if origin.via_call
                else "a raise in its body"
            )
            findings.append(
                Finding(
                    path,
                    origin.line,
                    "REPRO-XF001",
                    f"{cls.name}.{method.name}() can leak {exc_name} from "
                    f"{where}; add it to failure_exceptions or handle it",
                )
            )
    return findings


def _check_xf002(ctx: DataflowContext) -> list[Finding]:
    findings: list[Finding] = []
    for module in ctx.modules:
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


def _check_xf003(ctx: DataflowContext, quals: dict[int, str]) -> list[Finding]:
    findings: list[Finding] = []
    for path, cls, method in _evaluate_methods(ctx):
        where = f"{cls.name}.{method.name}()"
        literals = [n for n in ast.walk(method) if is_nonfinite_literal(n)]
        for literal in literals:
            findings.append(
                Finding(
                    path,
                    literal.lineno,
                    "REPRO-XF003",
                    f"non-finite literal in {where}; raise a "
                    "failure_exceptions member instead",
                )
            )
        qual = quals.get(id(method))
        if literals or qual is None:
            continue  # one finding per cause: the literal is it
        for child in own_body_nodes(method):
            if not isinstance(child, ast.Return) or child.value is None:
                continue
            if ctx.is_nonfinite(qual, child.value):
                findings.append(
                    Finding(
                        path,
                        child.lineno,
                        "REPRO-XF003",
                        f"{where} return value can carry a non-finite "
                        "sentinel (inf/nan) from a helper; guard it or raise "
                        "a registered failure exception",
                    )
                )
    for module in ctx.modules:
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


def check(ctx: DataflowContext) -> list[Finding]:
    analysis = _EscapeAnalysis(ctx)
    analysis.run()
    quals = {id(info.node): qual for qual, info in ctx.graph.functions.items()}
    return (
        _check_xf001(ctx, analysis, quals)
        + _check_xf002(ctx)
        + _check_xf003(ctx, quals)
    )
