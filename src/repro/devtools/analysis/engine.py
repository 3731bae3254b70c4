"""Core machinery for the ``reprolint`` static-analysis suite.

The suite is a set of repo-specific AST checkers, each enforcing an
invariant the optimizer stack depends on but Python cannot express in
types: spawned-RNG determinism, checkpoint schema completeness, finite
failure paths and executor hygiene. This module provides the shared
plumbing:

* :class:`Finding` — one diagnostic, rendered ``path:line: RULE-ID msg``.
* :class:`ModuleSource` — a parsed module plus its inline suppressions.
* :class:`ProjectIndex` — a lightweight cross-module class table so
  checkers can resolve inherited class attributes (``state_version``,
  ``failure_exceptions``) by walking base-class *names*; it is
  deliberately flow-insensitive and name-based, which is exact for this
  tree and conservative elsewhere.
* :func:`run_lint` — walk files, run checkers, filter suppressions.

A finding is suppressed by ``# reprolint: allow[RULE-ID]`` (comma
separated for several rules) on the flagged line or the line above; the
bracket may be followed by a justification, which reviewers should
expect to see.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

__all__ = [
    "Finding",
    "ModuleSource",
    "ClassInfo",
    "ProjectIndex",
    "dotted_name",
    "module_key",
    "iter_python_files",
    "load_module",
    "build_project_index",
    "run_lint",
]

#: ``# reprolint: allow[REPRO-XXX001, REPRO-YYY002] optional justification``
_SUPPRESS_RE = re.compile(r"#\s*reprolint:\s*allow\[([A-Za-z0-9,\s-]+)\]")

#: Rule ID used when a file cannot be parsed at all.
PARSE_RULE = "REPRO-PARSE001"


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: a rule violation anchored to a file and line."""

    path: str
    line: int
    rule: str
    message: str
    #: set by :func:`run_lint` with ``keep_suppressed=True`` so machine
    #: consumers (``--format json``) can see allowed findings too.
    suppressed: bool = False

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


@dataclass
class ModuleSource:
    """A parsed module: path, raw text, AST and inline suppressions."""

    path: Path
    text: str
    tree: ast.Module
    #: line number -> set of rule IDs allowed on that line (and the next).
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    @property
    def display_path(self) -> str:
        return str(self.path)

    def is_suppressed(self, finding: Finding) -> bool:
        """True if the finding's line (or the line above) allows its rule."""
        for line in (finding.line, finding.line - 1):
            if finding.rule in self.suppressions.get(line, set()):
                return True
        return False


@dataclass
class ClassInfo:
    """Project-index entry for one class definition."""

    name: str
    module: str
    node: ast.ClassDef
    base_names: tuple[str, ...]
    #: class-body assignments ``name = <ast expression>`` (AnnAssign too).
    assignments: dict[str, ast.expr]


class ProjectIndex:
    """Name-based class table across every linted module.

    Later definitions win on name collisions; this tree has none among
    the classes the checkers care about, and a collision only makes the
    checkers *more* conservative (they skip what they cannot resolve).
    """

    def __init__(self) -> None:
        self.classes: dict[str, ClassInfo] = {}

    def add(self, info: ClassInfo) -> None:
        self.classes[info.name] = info

    def resolve_class_attr(self, class_name: str, attr: str) -> ast.expr | None:
        """Walk ``class_name`` and its bases (by name) for a body assignment."""
        seen: set[str] = set()
        queue = [class_name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            info = self.classes.get(name)
            if info is None:
                continue
            if attr in info.assignments:
                return info.assignments[attr]
            queue.extend(info.base_names)
        return None

    def mro_names(self, class_name: str) -> list[str]:
        """Breadth-first base-name closure of ``class_name`` (inclusive)."""
        seen: list[str] = []
        queue = [class_name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.append(name)
            info = self.classes.get(name)
            if info is not None:
                queue.extend(info.base_names)
        return seen


def dotted_name(node: ast.expr) -> str | None:
    """Render ``a.b.c`` attribute chains (or bare names) as a string."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_key(path: Path) -> str:
    """Stable module identifier for manifest keys, cwd-independent.

    Uses the dotted path from the last ``repro`` package component
    (``repro.core.strategy``); falls back to the file stem for paths
    outside the package (test fixtures).
    """
    parts = list(path.parts)
    if "repro" in parts:
        start = len(parts) - 1 - parts[::-1].index("repro")
        dotted = parts[start:]
        dotted[-1] = Path(dotted[-1]).stem
        return ".".join(dotted)
    return path.stem


def iter_python_files(paths: Iterable[Path | str]) -> Iterator[Path]:
    """Yield ``.py`` files under the given paths, sorted, skipping caches."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for child in sorted(path.rglob("*.py")):
                if "__pycache__" not in child.parts:
                    yield child
        elif path.suffix == ".py":
            yield path


def _collect_suppressions(text: str) -> dict[int, set[str]]:
    suppressions: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",")}
        suppressions[lineno] = {rule for rule in rules if rule}
    return suppressions


def load_module(path: Path) -> ModuleSource | Finding:
    """Parse one file; returns a :data:`PARSE_RULE` finding on failure."""
    text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            path=str(path),
            line=exc.lineno or 1,
            rule=PARSE_RULE,
            message=f"file does not parse: {exc.msg}",
        )
    return ModuleSource(
        path=path,
        text=text,
        tree=tree,
        suppressions=_collect_suppressions(text),
    )


def build_project_index(modules: Iterable[ModuleSource]) -> ProjectIndex:
    index = ProjectIndex()
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = tuple(
                name
                for name in (dotted_name(base) for base in node.bases)
                if name is not None
            )
            assignments: dict[str, ast.expr] = {}
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            assignments[target.id] = stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    if isinstance(stmt.target, ast.Name) and stmt.value is not None:
                        assignments[stmt.target.id] = stmt.value
            base_names = tuple(name.rsplit(".", 1)[-1] for name in bases)
            index.add(
                ClassInfo(
                    name=node.name,
                    module=module_key(module.path),
                    node=node,
                    base_names=base_names,
                    assignments=assignments,
                )
            )
    return index


Checker = Callable[[ModuleSource, ProjectIndex], list[Finding]]

#: Whole-program checker: sees every module and the index at once.
ProjectChecker = Callable[
    [list[ModuleSource], ProjectIndex, "set[str] | None"], list[Finding]
]


def run_lint(
    paths: Iterable[Path | str],
    checkers: Iterable[tuple[dict[str, str], Checker]],
    rules: set[str] | None = None,
    project_checkers: Iterable[ProjectChecker] = (),
    keep_suppressed: bool = False,
) -> list[Finding]:
    """Run ``checkers`` over every module under ``paths``.

    ``checkers`` is a sequence of ``(rule_catalog, check_fn)`` pairs run
    per module; ``project_checkers`` are called once with every parsed
    module (for interprocedural rules). ``rules`` optionally restricts
    the run to a subset of rule IDs. Returns findings sorted by path,
    line and rule. Inline-suppressed findings are dropped unless
    ``keep_suppressed`` is set, in which case they are returned with
    ``suppressed=True`` for machine consumers.
    """
    import dataclasses

    modules: list[ModuleSource] = []
    findings: list[Finding] = []
    by_path = {}
    for path in iter_python_files(paths):
        loaded = load_module(path)
        if isinstance(loaded, Finding):
            findings.append(loaded)
        else:
            modules.append(loaded)
            by_path[loaded.display_path] = loaded

    def emit(module: ModuleSource | None, finding: Finding) -> None:
        if rules is not None and finding.rule not in rules:
            return
        if module is not None and module.is_suppressed(finding):
            if keep_suppressed:
                findings.append(dataclasses.replace(finding, suppressed=True))
            return
        findings.append(finding)

    index = build_project_index(modules)
    for module in modules:
        for catalog, check in checkers:
            if rules is not None and not (set(catalog) & rules):
                continue
            for finding in check(module, index):
                emit(module, finding)
    for project_check in project_checkers:
        for finding in project_check(modules, index, rules):
            emit(by_path.get(finding.path), finding)
    return sorted(findings)
