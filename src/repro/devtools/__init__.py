"""Developer tooling for the repro codebase.

This package is not part of the library's runtime API. It ships
``reprolint`` — a repo-specific static-analysis suite enforcing the
invariants the optimizer stack depends on (RNG discipline, checkpoint
schema completeness, executor hygiene, and failure-path handlers and
finiteness). Run it as::

    python -m repro.devtools.lint src/

See :mod:`repro.devtools.analysis` for the rule catalog.
"""
