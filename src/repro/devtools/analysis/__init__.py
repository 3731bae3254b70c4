"""``reprolint``: repo-specific AST checkers for repro's invariants.

Rule families (IDs are stable; the full catalog is in the README's
"Development tooling" section):

* ``REPRO-RNG00x`` — RNG discipline (:mod:`.rng`)
* ``REPRO-SER00x`` — serialization round-trips (:mod:`.serialization`)
* ``REPRO-CONC00x`` — executor hygiene (:mod:`.concurrency`)
* ``REPRO-XF00x`` — failure-path handlers and finiteness (:mod:`.failures`)

Suppress a finding inline with ``# reprolint: allow[RULE-ID]`` on the
flagged line or the line above, followed by a justification.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from . import concurrency, failures, rng, serialization
from .engine import (
    Finding,
    ModuleSource,
    ProjectIndex,
    build_project_index,
    iter_python_files,
    load_module,
)
from .engine import run_lint as _run_lint
from .serialization import MANIFEST_PATH, build_manifest, load_manifest

__all__ = [
    "Finding",
    "ModuleSource",
    "ProjectIndex",
    "ALL_RULES",
    "MANIFEST_PATH",
    "run_lint",
    "update_schema_manifest",
]

#: rule ID -> one-line summary, across every checker.
ALL_RULES: dict[str, str] = {
    **rng.RULES,
    **serialization.RULES,
    **concurrency.RULES,
    **failures.RULES,
}


def run_lint(
    paths: Iterable[Path | str],
    rules: set[str] | None = None,
    manifest: dict[str, dict] | None = None,
) -> list[Finding]:
    """Run every checker over ``paths`` and return sorted findings.

    ``manifest`` overrides the committed schema manifest (tests inject
    synthetic ones); ``rules`` restricts the run to a subset of IDs.
    """
    if manifest is None:
        manifest = load_manifest()

    def _serialization_check(module: ModuleSource, index: ProjectIndex):
        return serialization.check(module, index, manifest=manifest)

    checkers = [
        (rng.RULES, rng.check),
        (serialization.RULES, _serialization_check),
        (concurrency.RULES, concurrency.check),
        (failures.RULES, failures.check),
    ]
    return _run_lint(paths, checkers, rules=rules)


def update_schema_manifest(
    paths: Iterable[Path | str], manifest_path: Path = MANIFEST_PATH
) -> dict[str, dict]:
    """Regenerate the committed schema manifest from ``paths``."""
    import json

    modules = []
    for path in iter_python_files(paths):
        loaded = load_module(path)
        if isinstance(loaded, ModuleSource):
            modules.append(loaded)
    index = build_project_index(modules)
    manifest = build_manifest(modules, index)
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest
