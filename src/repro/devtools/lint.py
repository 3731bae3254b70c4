"""Command-line entry point for the ``reprolint`` static-analysis suite.

Usage::

    python -m repro.devtools.lint [paths ...] [--rules ID,ID] [--list-rules]
    python -m repro.devtools.lint --update-schema-manifest [paths ...]

Paths default to ``src/`` when run from the repository root. Exit
status: 0 clean, 1 findings, 2 usage error. Each finding prints as
``path:line: RULE-ID message``; suppress one inline with
``# reprolint: allow[RULE-ID] <justification>``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import ALL_RULES, run_lint, update_schema_manifest


def _default_paths() -> list[str]:
    if Path("src").is_dir():
        return ["src"]
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="repo-specific AST invariant checkers (reprolint)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--update-schema-manifest",
        action="store_true",
        help="regenerate the committed serialization schema manifest "
        "from the linted tree and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(ALL_RULES):
            print(f"{rule_id}  {ALL_RULES[rule_id]}")
        return 0

    paths = args.paths or _default_paths()
    if not paths:
        parser.error("no paths given and no src/ directory here")

    rules: set[str] | None = None
    if args.rules:
        rules = {part.strip() for part in args.rules.split(",") if part.strip()}
        unknown = rules - set(ALL_RULES)
        if unknown:
            parser.error(f"unknown rule IDs: {', '.join(sorted(unknown))}")

    if args.update_schema_manifest:
        manifest = update_schema_manifest(paths)
        print(f"schema manifest updated: {len(manifest)} classes recorded")
        return 0

    findings = run_lint(paths, rules=rules)
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"reprolint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
