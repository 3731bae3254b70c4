"""``reprolint``: repo-specific AST checkers for repro's invariants.

Rule families (IDs are stable; the full catalog is in the README's
"Development tooling" section):

* ``REPRO-RNG00x`` — RNG discipline (:mod:`.rng`)
* ``REPRO-SER00x`` — serialization round-trips (:mod:`.serialization`)
* ``REPRO-FAIL00x`` — failure-path finiteness (:mod:`.failures`)
* ``REPRO-CONC00x`` — executor hygiene (:mod:`.concurrency`)
* ``REPRO-OBS00x`` — timing discipline (:mod:`.obs`)
* ``REPRO-XF00x`` — interprocedural exception flow
  (:mod:`repro.devtools.dataflow.xflow`)
* ``REPRO-TAINT00x`` — nondeterminism taint into checkpoints
  (:mod:`repro.devtools.dataflow.taint`)

Suppress a finding inline with ``# reprolint: allow[RULE-ID]`` on the
flagged line or the line above, followed by a justification.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from . import concurrency, failures, obs, rng, serialization
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

_CHECKER_MODULES = (rng, serialization, failures, concurrency, obs)

#: rule ID -> one-line summary, across every checker.
ALL_RULES: dict[str, str] = {}
for _module in _CHECKER_MODULES:
    ALL_RULES.update(_module.RULES)

# Imported after the per-module checkers so the dataflow package (which
# pulls helpers from .engine/.failures) never sees a half-initialised
# sibling; it contributes the interprocedural REPRO-XF/TAINT families.
from .. import dataflow as _dataflow  # noqa: E402

ALL_RULES.update(_dataflow.RULES)


def run_lint(
    paths: Iterable[Path | str],
    rules: set[str] | None = None,
    manifest: dict[str, dict] | None = None,
    keep_suppressed: bool = False,
) -> list[Finding]:
    """Run every checker over ``paths`` and return sorted findings.

    ``manifest`` overrides the committed schema manifest (tests inject
    synthetic ones); ``rules`` restricts the run to a subset of IDs;
    ``keep_suppressed`` returns inline-allowed findings too, marked
    ``suppressed=True``, for machine output.
    """
    if manifest is None:
        manifest = load_manifest()

    def _serialization_check(module: ModuleSource, index: ProjectIndex):
        return serialization.check(module, index, manifest=manifest)

    checkers = [
        (rng.RULES, rng.check),
        (serialization.RULES, _serialization_check),
        (failures.RULES, failures.check),
        (concurrency.RULES, concurrency.check),
        (obs.RULES, obs.check),
    ]
    return _run_lint(
        paths,
        checkers,
        rules=rules,
        project_checkers=(_dataflow.check_project,),
        keep_suppressed=keep_suppressed,
    )


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
