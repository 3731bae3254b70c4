"""Optimization-as-a-service: persistent run vault, server, client, CLI.

The service layer promotes the in-process ask/tell machinery
(:mod:`repro.session`) to a long-running, multi-tenant service:

* :class:`RunVault` — an append-only on-disk run store. One directory
  per run ID holding a JSONL evaluation log, crash-safe checkpoint
  snapshots and a metadata index; every session, evaluation and Pareto
  archive persists and is queryable (:meth:`RunVault.list_runs`).
* :class:`VaultSession` — an :class:`repro.session.OptimizationSession`
  whose every observation is durably logged before it is acknowledged,
  so a killed process loses nothing: :meth:`RunVault.resume` replays the
  acknowledged tail point-for-point on top of the last checkpoint.
* :class:`SessionServer` / :func:`serve` — a stdlib TCP front end
  (newline-delimited JSON frames) serving concurrent sessions backed by
  one vault.
* :class:`ServiceClient` / :class:`RemoteSession` /
  :func:`repro.connect` — the wire client; ``RemoteSession`` mirrors the
  ask/tell :class:`repro.session.Strategy` protocol over the socket.
* ``python -m repro.service`` — ``serve`` / ``ls`` / ``show`` /
  ``resume`` / ``gc`` subcommands over a vault root.
"""

from .client import RemoteSession, ServiceClient, ServiceError, connect
from .server import SessionServer, serve
from .vault import RunInfo, RunVault, VaultError, VaultSession

__all__ = [
    "RunVault",
    "RunInfo",
    "VaultSession",
    "VaultError",
    "SessionServer",
    "serve",
    "ServiceClient",
    "ServiceError",
    "RemoteSession",
    "connect",
]
