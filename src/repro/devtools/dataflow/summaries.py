"""Per-function def-use summaries of non-finite values, interprocedural.

Each function gets a :class:`FunctionSummary`: a final environment
mapping local names to their *taint*, plus the taint of its return
value. The one concrete taint kind is ``"nonfinite"``: a
``float("inf")`` / ``np.inf`` / ``np.nan`` sentinel that must not leak
out of ``_evaluate*`` results (:func:`is_nonfinite_literal` is the
source).

A parameter starts tainted with the marker ``("param", name)``; markers
surviving into the return taint make the summary *polymorphic*: at each
call site the marker is substituted with the actual argument's taint.
Unresolved (external) calls conservatively propagate the union of their
argument taints; resolved project calls use the callee summary only, so
a helper can act as a sanitizer.

The analysis is flow-insensitive per function (statements are replayed
in program order with strong updates until the environment stabilises,
which handles the ``x = max(x, floor)`` clamp idiom) and iterated over
the call graph to a global fixpoint. Known limitations, accepted for a
linter: attribute state (``self.x``) is untracked, closures do not see
enclosing locals, and ``Compare`` results are treated as clean.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from ..analysis.engine import ModuleSource, ProjectIndex, dotted_name
from .callgraph import CallGraph, CallSite, FunctionInfo, build_call_graph

__all__ = [
    "NONFINITE",
    "DataflowContext",
    "FunctionSummary",
    "build_context",
    "is_nonfinite_literal",
    "own_body_nodes",
]

#: The concrete taint element; the others are ``("param", name)`` markers.
NONFINITE = "nonfinite"

_EMPTY: frozenset = frozenset()
_TAINTED = frozenset({NONFINITE})

# -- source table -----------------------------------------------------------

_NONFINITE_ATTRS = {"inf", "Inf", "infty", "Infinity", "nan", "NaN", "NINF", "PINF"}
_NUMERIC_MODULES = {"np", "numpy", "math"}
_NONFINITE_STRINGS = {"inf", "infinity", "nan"}

# -- sanitizer tables -------------------------------------------------------

#: Calls whose result is never non-finite (booleans, sizes).
_KILL_ALL = {
    "len",
    "bool",
    "isinstance",
    "hasattr",
    "callable",
    "np.isfinite",
    "np.isnan",
    "np.isinf",
    "math.isfinite",
    "math.isnan",
    "math.isinf",
    "np.all",
    "np.any",
}

#: Clamp idioms: treated as removing non-finite sentinels. This is a
#: deliberate over-trust — ``max(-inf, x)`` is exactly the "floor a
#: running extremum initialised at -inf" pattern, which is always
#: finite once one real operand arrives.
_KILL_NONFINITE = {
    "min",
    "max",
    "np.clip",
    "np.nan_to_num",
    "np.maximum",
    "np.minimum",
    "np.fmax",
    "np.fmin",
}

_GUARD_CALLS = {"isfinite", "isnan", "isinf"}


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


@dataclass
class FunctionSummary:
    """Final taint environment and return taint for one function."""

    qual: str
    env: dict[str, frozenset] = field(default_factory=dict)
    return_taint: frozenset = _EMPTY
    #: names checked by an ``isfinite``/``isnan`` guard somewhere in the
    #: function; reads of them drop the non-finite taint.
    guarded: frozenset = _EMPTY


def own_body_nodes(fn: ast.AST) -> Iterable[ast.AST]:
    """All descendant nodes of ``fn``, not descending into nested defs."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _collect_guarded(node: ast.AST) -> frozenset:
    guarded: set[str] = set()
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        name = dotted_name(child.func)
        if name is None or name.rsplit(".", 1)[-1] not in _GUARD_CALLS:
            continue
        for arg in child.args:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Name):
                    guarded.add(sub.id)
    return frozenset(guarded)


class _TaintEvaluator:
    """Evaluate expression taint against one function's environment."""

    def __init__(
        self,
        info: FunctionInfo,
        sites: dict[int, CallSite],
        summaries: dict[str, FunctionSummary],
        functions: dict[str, FunctionInfo],
        guarded: frozenset,
    ) -> None:
        self.info = info
        self.sites = sites
        self.summaries = summaries
        self.functions = functions
        self.guarded = guarded
        self.env: dict[str, frozenset] = {}

    # -- expressions ------------------------------------------------------

    def taint(self, node: ast.expr | None) -> frozenset:
        if node is None:
            return _EMPTY
        method = getattr(self, f"_taint_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        # Default: union over child expressions (BinOp, BoolOp, f-strings,
        # comprehension bodies, Tuple/List/Dict literals, Starred, ...).
        out: frozenset = _EMPTY
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self.taint(child)
            elif isinstance(child, ast.comprehension):
                out |= self.taint(child.iter)
        return out

    def _taint_Name(self, node: ast.Name) -> frozenset:
        taint = self.env.get(node.id, _EMPTY)
        if node.id in self.guarded:
            taint -= _TAINTED
        return taint

    def _taint_Constant(self, node: ast.Constant) -> frozenset:
        return _EMPTY

    def _taint_Lambda(self, node: ast.Lambda) -> frozenset:
        return _EMPTY

    def _taint_Compare(self, node: ast.Compare) -> frozenset:
        return _EMPTY

    def _taint_Attribute(self, node: ast.Attribute) -> frozenset:
        if is_nonfinite_literal(node):
            return _TAINTED
        return self.taint(node.value)

    def _taint_IfExp(self, node: ast.IfExp) -> frozenset:
        return self.taint(node.body) | self.taint(node.orelse)

    def _taint_Call(self, node: ast.Call) -> frozenset:
        name = dotted_name(node.func)
        if name in _KILL_ALL:
            return _EMPTY
        if is_nonfinite_literal(node):
            return _TAINTED

        args_taint: frozenset = _EMPTY
        for arg in node.args:
            args_taint |= self.taint(arg)
        for kw in node.keywords:
            args_taint |= self.taint(kw.value)
        if name in _KILL_NONFINITE:
            return args_taint - _TAINTED

        site = self.sites.get(id(node))
        if site is not None and site.targets:
            out: frozenset = _EMPTY
            for target in site.targets:
                out |= self._apply_summary(target, node)
            return out

        # External / unresolved: propagate argument (and receiver) taint.
        if isinstance(node.func, ast.Attribute):
            args_taint |= self.taint(node.func.value)
        return args_taint

    def _apply_summary(self, target: str, call: ast.Call) -> frozenset:
        summary = self.summaries.get(target)
        callee = self.functions.get(target)
        if summary is None or callee is None:
            return _EMPTY
        params = list(callee.param_names)
        if callee.class_name is not None and params and params[0] in ("self", "cls"):
            params = params[1:]
        arg_taints: dict[str, frozenset] = {}
        for position, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                continue
            if position < len(params):
                arg_taints[params[position]] = self.taint(arg)
        for kw in call.keywords:
            if kw.arg is not None:
                arg_taints[kw.arg] = self.taint(kw.value)

        out: set = set()
        for item in summary.return_taint:
            if isinstance(item, tuple):
                out |= arg_taints.get(item[1], _EMPTY)
            else:
                out.add(item)
        # Starred/unmapped arguments still flow somewhere in the callee.
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                out |= self.taint(arg.value)
        return frozenset(out)

    # -- statements -------------------------------------------------------

    def _assign_target(self, target: ast.expr, taint: frozenset) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt, taint)
        elif isinstance(target, ast.Starred):
            self._assign_target(target.value, taint)
        # Attribute/Subscript targets: state is untracked.

    def execute(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._execute_stmt(stmt)

    def _execute_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self.taint(stmt.value)
            for target in stmt.targets:
                self._assign_target(target, taint)
            self._walrus_updates(stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign_target(stmt.target, self.taint(stmt.value))
                self._walrus_updates(stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            extra = self.taint(stmt.value)
            if isinstance(stmt.target, ast.Name):
                current = self.env.get(stmt.target.id, _EMPTY)
                self.env[stmt.target.id] = current | extra
            self._walrus_updates(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._assign_target(stmt.target, self.taint(stmt.iter))
            self.execute(stmt.body)
            self.execute(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._walrus_updates(stmt.test)
            self.execute(stmt.body)
            self.execute(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._walrus_updates(stmt.test)
            self.execute(stmt.body)
            self.execute(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._assign_target(
                        item.optional_vars, self.taint(item.context_expr)
                    )
            self.execute(stmt.body)
        elif isinstance(stmt, ast.Try):
            self.execute(stmt.body)
            for handler in stmt.handlers:
                self.execute(handler.body)
            self.execute(stmt.orelse)
            self.execute(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self._walrus_updates(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._walrus_updates(stmt.value)
        # Nested defs, Raise, Assert, etc.: no environment effect.

    def _walrus_updates(self, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.NamedExpr) and isinstance(
                node.target, ast.Name
            ):
                self.env[node.target.id] = self.taint(node.value)


@dataclass
class DataflowContext:
    """Everything the dataflow rules share: modules, graph, summaries."""

    modules: list[ModuleSource]
    index: ProjectIndex
    graph: CallGraph
    summaries: dict[str, FunctionSummary]
    #: per-function ``id(ast.Call) -> CallSite`` maps.
    sites: dict[str, dict[int, CallSite]]

    def is_nonfinite(self, qual: str, expr: ast.expr) -> bool:
        """Whether ``expr`` can carry a non-finite value inside ``qual``,
        evaluated in that function's *final* environment."""
        summary = self.summaries[qual]
        evaluator = _TaintEvaluator(
            self.graph.functions[qual],
            self.sites.get(qual, {}),
            self.summaries,
            self.graph.functions,
            summary.guarded,
        )
        evaluator.env = dict(summary.env)
        return NONFINITE in evaluator.taint(expr)


#: Cap on per-function replay and global interprocedural rounds. Strong
#: updates are not monotone, so this bounds non-converging oscillation;
#: real code stabilises in 2-4 rounds.
_MAX_LOCAL_PASSES = 10
_MAX_GLOBAL_ROUNDS = 20


def _summarise(
    info: FunctionInfo,
    sites: dict[int, CallSite],
    summaries: dict[str, FunctionSummary],
    functions: dict[str, FunctionInfo],
) -> FunctionSummary:
    guarded = _collect_guarded(info.node)
    evaluator = _TaintEvaluator(info, sites, summaries, functions, guarded)
    for name in info.param_names:
        evaluator.env[name] = frozenset({("param", name)})

    previous: dict[str, frozenset] = {}
    for _ in range(_MAX_LOCAL_PASSES):
        evaluator.execute(list(info.node.body))
        if evaluator.env == previous:
            break
        previous = dict(evaluator.env)

    return_taint: frozenset = _EMPTY
    for node in own_body_nodes(info.node):
        if isinstance(node, ast.Return) and node.value is not None:
            return_taint |= evaluator.taint(node.value)

    return FunctionSummary(
        qual=info.qual,
        env=dict(evaluator.env),
        return_taint=return_taint,
        guarded=guarded,
    )


def build_context(
    modules: Iterable[ModuleSource], index: ProjectIndex
) -> DataflowContext:
    """Build the call graph and iterate summaries to a fixpoint."""
    modules = list(modules)
    graph = build_call_graph(modules, index)

    sites: dict[str, dict[int, CallSite]] = {
        qual: {id(site.call): site for site in graph.sites(qual)}
        for qual in graph.functions
    }

    summaries: dict[str, FunctionSummary] = {
        qual: FunctionSummary(qual=qual) for qual in graph.functions
    }
    order = sorted(graph.functions)
    for _ in range(_MAX_GLOBAL_ROUNDS):
        changed = False
        for qual in order:
            info = graph.functions[qual]
            new = _summarise(info, sites[qual], summaries, graph.functions)
            old = summaries[qual]
            if new.return_taint != old.return_taint or new.env != old.env:
                changed = True
            summaries[qual] = new
        if not changed:
            break

    return DataflowContext(
        modules=modules,
        index=index,
        graph=graph,
        summaries=summaries,
        sites=sites,
    )
