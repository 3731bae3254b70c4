"""The run vault: a persistent, queryable, append-only run store.

Layout — one directory per run ID under the vault root::

    <root>/<run_id>/
        meta.json         # identity, status, summary index (atomic writes)
        events.jsonl      # append-only evaluation log, one JSON line each
        checkpoint.json   # latest strategy snapshot (+ .bak previous one)
        lock              # advisory writer lock (pid), stolen when stale

Durability contract
-------------------
:meth:`VaultSession.observe` appends the evaluation to ``events.jsonl``
and flushes it to disk *before* returning — an observation a caller saw
acknowledged is on disk, whatever happens next. Checkpoints snapshot the
full strategy state every ``checkpoint_every`` observations through the
crash-safe ``.tmp``/``.bak`` machinery of
:meth:`repro.session.OptimizationSession.save`; :meth:`RunVault.resume`
loads the newest loadable checkpoint (falling back to the ``.bak``
sibling if the latest write was torn) and replays the acknowledged
events beyond it point-for-point, so killing a process mid-run loses no
acknowledged evaluation and spends no budget twice.
"""

from __future__ import annotations

import json
import os
import secrets
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from ..problems.base import Evaluation, Problem
from ..registry import get_problem, get_strategy, restore_strategy
from ..session.evaluators import Evaluator
from ..session.session import CheckpointError, OptimizationSession, load_checkpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.history import Record
    from ..core.result import BOResult
    from ..session.protocol import Strategy

__all__ = ["RunVault", "RunInfo", "VaultSession", "VaultError"]

META_FORMAT = "repro-run"
META_VERSION = 1
#: events.jsonl schema: v1 lines were bare evaluations; v2 adds a
#: wall-clock ``ts`` to every line plus interleaved ``type: telemetry``
#: lines. Purely additive — replay ignores both — so META_VERSION is
#: unchanged and v1 runs stay fully readable.
EVENTS_VERSION = 2


class VaultError(RuntimeError):
    """A vault run directory is missing, locked, or incompatible."""


def _slug(name: str) -> str:
    return "".join(
        ch if ch.isalnum() else "-" for ch in name.strip().lower()
    ).strip("-")


@dataclass(frozen=True)
class RunInfo:
    """Queryable index entry for one vaulted run."""

    run_id: str
    problem: str
    strategy: str
    status: str
    n_evaluations: int
    total_cost: float
    best_objective: float | None
    best_feasible: bool | None
    hypervolume: float | None
    created: float
    updated: float
    path: str

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "problem": self.problem,
            "strategy": self.strategy,
            "status": self.status,
            "n_evaluations": self.n_evaluations,
            "total_cost": self.total_cost,
            "best_objective": self.best_objective,
            "best_feasible": self.best_feasible,
            "hypervolume": self.hypervolume,
            "created": self.created,
            "updated": self.updated,
            "path": self.path,
        }


class RunVault:
    """Append-only on-disk store of optimization runs.

    Parameters
    ----------
    root:
        Vault root directory; created (with parents) if missing. Every
        immediate subdirectory containing a ``meta.json`` is a run.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def run_dir(self, run_id: str) -> Path:
        return self.root / run_id

    def meta_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "meta.json"

    def events_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "events.jsonl"

    def checkpoint_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "checkpoint.json"

    def lock_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "lock"

    # ------------------------------------------------------------------
    # run lifecycle
    # ------------------------------------------------------------------
    def create_run(
        self,
        problem_name: str,
        strategy_id: str,
        config: dict,
        *,
        problem_kwargs: dict | None = None,
        run_id: str | None = None,
    ) -> str:
        """Allocate a run directory and write its initial metadata."""
        if run_id is None:
            run_id = (
                f"{_slug(problem_name)}-{_slug(strategy_id)}-"
                f"{secrets.token_hex(4)}"
            )
        run_dir = self.run_dir(run_id)
        if run_dir.exists():
            raise VaultError(f"run {run_id!r} already exists in {self.root}")
        run_dir.mkdir(parents=True)
        now = time.time()
        self._write_meta(
            run_id,
            {
                "format": META_FORMAT,
                "version": META_VERSION,
                "events_version": EVENTS_VERSION,
                "run_id": run_id,
                "problem": problem_name,
                "problem_kwargs": dict(problem_kwargs or {}),
                "strategy": strategy_id,
                "config": dict(config),
                "status": "running",
                "created": now,
                "updated": now,
                "summary": {},
            },
        )
        self.events_path(run_id).touch()
        return run_id

    def meta(self, run_id: str) -> dict:
        """Read and validate a run's metadata index."""
        path = self.meta_path(run_id)
        if not path.exists():
            raise VaultError(f"no run {run_id!r} in vault {self.root}")
        payload = json.loads(path.read_text())
        if payload.get("format") != META_FORMAT:
            raise VaultError(f"{path} is not a {META_FORMAT} metadata file")
        version = payload.get("version")
        if version != META_VERSION:
            raise VaultError(
                f"run {run_id!r} was written with vault schema version "
                f"{version}, this build supports {META_VERSION}; migrate "
                "the run directory or read it with a matching library "
                "version"
            )
        return payload

    def update_meta(self, run_id: str, **fields) -> dict:
        """Merge ``fields`` into a run's metadata, atomically."""
        payload = self.meta(run_id)
        payload.update(fields)
        payload["updated"] = time.time()
        self._write_meta(run_id, payload)
        return payload

    def _write_meta(self, run_id: str, payload: dict) -> None:
        path = self.meta_path(run_id)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        tmp.replace(path)

    # ------------------------------------------------------------------
    # event log
    # ------------------------------------------------------------------
    def read_events(self, run_id: str) -> list[dict]:
        """Read the acknowledged evaluation log, oldest first.

        Only evaluation events are returned — interleaved telemetry
        lines (events schema v2, ``"type": "telemetry"``) are filtered
        out, so replay and seq-contiguity consumers see the same stream
        v1 runs produced. Use :meth:`read_telemetry` for the rest.

        A torn final line (process killed mid-append) is dropped; a torn
        line anywhere else means real corruption and raises.
        """
        return [
            event
            for event in self._read_event_lines(run_id)
            if "type" not in event
        ]

    def read_telemetry(self, run_id: str) -> list[dict]:
        """Interleaved per-iteration telemetry events, oldest first."""
        return [
            event
            for event in self._read_event_lines(run_id)
            if event.get("type") == "telemetry"
        ]

    def _read_event_lines(self, run_id: str) -> list[dict]:
        path = self.events_path(run_id)
        if not path.exists():
            raise VaultError(f"no run {run_id!r} in vault {self.root}")
        events: list[dict] = []
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                if i == len(lines) - 1:
                    break  # torn tail write: the event was never acked
                raise VaultError(
                    f"corrupt event log {path} at line {i + 1}"
                ) from None
        return events

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def run_ids(self) -> list[str]:
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and (entry / "meta.json").exists()
        )

    def info(self, run_id: str) -> RunInfo:
        """Index entry for one run (summary fields may be ``None``)."""
        meta = self.meta(run_id)
        summary = meta.get("summary") or {}
        return RunInfo(
            run_id=run_id,
            problem=str(meta["problem"]),
            strategy=str(meta["strategy"]),
            status=str(meta["status"]),
            n_evaluations=int(
                summary.get("n_evaluations")
                or self._count_events(run_id)
            ),
            total_cost=float(summary.get("total_cost", 0.0)),
            best_objective=summary.get("best_objective"),
            best_feasible=summary.get("best_feasible"),
            hypervolume=summary.get("hypervolume"),
            created=float(meta["created"]),
            updated=float(meta["updated"]),
            path=str(self.run_dir(run_id)),
        )

    def _count_events(self, run_id: str) -> int:
        """Count acknowledged *evaluations* (telemetry lines excluded)."""
        path = self.events_path(run_id)
        if not path.exists():
            return 0
        count = 0
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail: never acknowledged
            if "type" not in event:
                count += 1
        return count

    def list_runs(
        self,
        problem: str | None = None,
        strategy: str | None = None,
        status: str | None = None,
    ) -> list[RunInfo]:
        """All runs matching the filters, oldest first."""
        infos = [self.info(run_id) for run_id in self.run_ids()]
        if problem is not None:
            infos = [i for i in infos if i.problem == problem]
        if strategy is not None:
            infos = [i for i in infos if i.strategy == strategy]
        if status is not None:
            infos = [i for i in infos if i.status == status]
        return sorted(infos, key=lambda i: (i.created, i.run_id))

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def delete(self, run_id: str) -> None:
        """Remove one run directory and everything in it."""
        run_dir = self.run_dir(run_id)
        if not (run_dir / "meta.json").exists():
            raise VaultError(f"no run {run_id!r} in vault {self.root}")
        for entry in sorted(run_dir.rglob("*"), reverse=True):
            entry.unlink() if entry.is_file() else entry.rmdir()
        run_dir.rmdir()

    def gc(
        self,
        statuses: tuple[str, ...] = ("done",),
        dry_run: bool = False,
    ) -> list[str]:
        """Delete finished runs (by status); returns the affected IDs."""
        victims = [
            info.run_id
            for info in self.list_runs()
            if info.status in statuses
        ]
        if not dry_run:
            for run_id in victims:
                self.delete(run_id)
        return victims

    # ------------------------------------------------------------------
    # sessions
    # ------------------------------------------------------------------
    def open_session(
        self,
        problem: "Problem | str",
        strategy: "Strategy | str" = "mfbo",
        *,
        run_id: str | None = None,
        evaluator: Evaluator | None = None,
        checkpoint_every: int = 1,
        own_evaluator: bool | None = None,
        problem_kwargs: dict | None = None,
        **config,
    ) -> "VaultSession":
        """Create a new vault-backed session.

        ``problem`` and ``strategy`` accept registry names (resolved via
        :func:`repro.get_problem` / :func:`repro.get_strategy`) or ready
        instances; ``**config`` is forwarded to the strategy constructor
        when a name is given.
        """
        if isinstance(problem, str):
            problem = get_problem(problem, **(problem_kwargs or {}))
        if isinstance(strategy, str):
            strategy = get_strategy(strategy)(problem, **config)
        elif config:
            raise TypeError(
                "strategy configuration kwargs require a strategy *name*; "
                "got a ready instance plus "
                f"{sorted(config)}"
            )
        strategy_id = getattr(strategy, "strategy_id", type(strategy).__name__)
        run_id = self.create_run(
            problem.name,
            strategy_id,
            getattr(strategy, "config_dict", dict)(),
            problem_kwargs=problem_kwargs,
            run_id=run_id,
        )
        session = VaultSession(
            strategy,
            vault=self,
            run_id=run_id,
            evaluator=evaluator,
            checkpoint_every=checkpoint_every,
            own_evaluator=own_evaluator,
        )
        # Checkpoint the pristine state immediately: resume then always
        # has a snapshot to replay events onto, even if the process dies
        # before the first periodic checkpoint.
        session.save(session.checkpoint_path)
        return session

    def resume(
        self,
        run_id: str,
        problem: Problem | None = None,
        *,
        evaluator: Evaluator | None = None,
        checkpoint_every: int = 1,
        own_evaluator: bool | None = None,
        rng: np.random.Generator | None = None,
    ) -> "VaultSession":
        """Reconstruct a session from its run directory.

        Loads the newest loadable checkpoint (``checkpoint.json``, then
        its ``.bak`` sibling if the last write was torn) and replays
        every acknowledged event beyond it, point-for-point. ``problem``
        defaults to rebuilding the recorded problem from the registry.
        """
        meta = self.meta(run_id)
        if problem is None:
            problem = get_problem(
                meta["problem"], **(meta.get("problem_kwargs") or {})
            )
        if problem.name != meta["problem"]:
            raise VaultError(
                f"run {run_id!r} was recorded for problem "
                f"{meta['problem']!r}, got {problem.name!r}"
            )
        payload = self._load_newest_checkpoint(run_id)
        strategy = restore_strategy(problem, payload["state"], rng=rng)
        replayed = self._replay_tail(run_id, strategy)
        session = VaultSession(
            strategy,
            vault=self,
            run_id=run_id,
            evaluator=evaluator,
            checkpoint_every=checkpoint_every,
            own_evaluator=own_evaluator,
        )
        session.n_steps = int(payload.get("n_steps", 0)) + replayed
        if replayed:
            # Fold the replayed tail into a fresh snapshot so the next
            # crash replays from here, not from the stale checkpoint.
            session.save(session.checkpoint_path)
        self.update_meta(
            run_id, status="done" if strategy.is_done else "running"
        )
        return session

    def _load_newest_checkpoint(self, run_id: str) -> dict:
        path = self.checkpoint_path(run_id)
        backup = path.with_suffix(path.suffix + ".bak")
        try:
            return load_checkpoint(path)
        except (CheckpointError, FileNotFoundError) as exc:
            incompatible = (
                isinstance(exc, CheckpointError)
                and "not supported" in str(exc)
            )
            if incompatible:
                # A checkpoint from a *different schema version* must
                # not silently fall back to the .bak — replaying events
                # onto an older schema's state would corrupt the run.
                raise
            if backup.exists():
                return load_checkpoint(backup)
            raise VaultError(
                f"run {run_id!r} has no loadable checkpoint: {exc}"
            ) from exc

    def _replay_tail(self, run_id: str, strategy: "Strategy") -> int:
        """Re-observe acknowledged events beyond the checkpoint.

        Observation consumes no RNG, so replaying the tail reproduces
        exactly the state the crashed process had acknowledged. Replayed
        points that were checkpointed as in-flight sit in the restored
        queue and are retracted so they are not dispatched twice; each
        record keeps the iteration number it was originally observed at.
        """
        events = self.read_events(run_id)
        tail = events[len(strategy.history):]
        for event in tail:
            x_unit = np.asarray(event["x_unit"], dtype=float)
            fidelity = str(event["fidelity"])
            evaluation = Evaluation.from_dict(event["evaluation"])
            strategy.discard_queued(x_unit, fidelity)
            mark = strategy._iteration
            strategy._iteration = int(event.get("iteration", mark))
            strategy.observe(x_unit, fidelity, evaluation)
            strategy._iteration = max(mark, strategy._iteration)
        return len(tail)


class VaultSession(OptimizationSession):
    """An :class:`OptimizationSession` persisted through a run vault.

    Every observation is appended (and flushed) to the run's
    ``events.jsonl`` *before* :meth:`observe` returns; the strategy
    state is checkpointed every ``checkpoint_every`` observations and
    when a driving loop finishes. An advisory pid lock file keeps two
    live processes from appending to the same run; a lock left behind
    by a killed process is stolen automatically.
    """

    def __init__(
        self,
        strategy: "Strategy",
        *,
        vault: RunVault,
        run_id: str,
        evaluator: Evaluator | None = None,
        checkpoint_every: int = 1,
        own_evaluator: bool | None = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        super().__init__(
            strategy,
            evaluator=evaluator,
            checkpoint_path=vault.checkpoint_path(run_id),
            own_evaluator=own_evaluator,
        )
        self.vault = vault
        self.run_id = run_id
        self._checkpoint_every_observations = int(checkpoint_every)
        self._acquire_lock()
        self._n_observed = len(strategy.history)
        self._events_file = open(
            vault.events_path(run_id), "a", encoding="utf-8"
        )

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def _acquire_lock(self) -> None:
        path = self.vault.lock_path(self.run_id)
        pid = os.getpid()
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    holder = int(path.read_text().strip() or "0")
                except (OSError, ValueError):
                    holder = 0
                if holder and holder != pid and _pid_alive(holder):
                    raise VaultError(
                        f"run {self.run_id!r} is locked by live process "
                        f"{holder}; a run accepts one writer at a time"
                    ) from None
                path.unlink(missing_ok=True)  # stale: steal it
                continue
            with os.fdopen(fd, "w") as handle:
                handle.write(str(pid))
            return

    def _release_lock(self) -> None:
        self.vault.lock_path(self.run_id).unlink(missing_ok=True)

    def suggest(self, k: int = 1) -> "list":
        """Ask the strategy, then persist any telemetry it produced.

        Model-based strategies emit one per-iteration telemetry event
        (fidelity, acquisition value, stage durations, budget) from each
        refill; draining here puts those lines next to the evaluations
        they explain, making every vaulted run post-hoc inspectable with
        ``python -m repro.obs``.
        """
        batch = super().suggest(k)
        self._flush_telemetry()
        return batch

    def _flush_telemetry(self) -> None:
        take = getattr(self.strategy, "take_telemetry", None)
        if take is None or self._events_file.closed:
            return
        events = take()
        if not events:
            return
        # Telemetry is advisory: flushed but not fsynced (unlike
        # evaluations, nothing downstream depends on it surviving a
        # crash), and replay filters it out entirely.
        ts = time.time()
        for event in events:
            line = json.dumps({"type": "telemetry", "ts": ts, **event})
            self._events_file.write(line + "\n")
        self._events_file.flush()

    def observe(
        self, x_unit: np.ndarray, fidelity: str, evaluation: "Evaluation"
    ) -> "Record":
        record = self.strategy.observe(x_unit, fidelity, evaluation)
        self._n_observed += 1
        ts = time.time()
        line = json.dumps(
            {
                "seq": self._n_observed,
                "iteration": int(record.iteration),
                "x_unit": [float(v) for v in record.x_unit],
                "fidelity": record.fidelity,
                "evaluation": record.evaluation.to_dict(),
                "ts": ts,
            }
        )
        self._events_file.write(line + "\n")
        self._events_file.flush()
        os.fsync(self._events_file.fileno())
        done = bool(self.strategy.is_done)
        if done or self._n_observed % self._checkpoint_every_observations == 0:
            self.save(self.checkpoint_path)
            self._refresh_meta(**({"status": "done"} if done else {}))
        return record

    # ------------------------------------------------------------------
    # metadata index
    # ------------------------------------------------------------------
    def _summary(self) -> dict:
        history = self.strategy.history
        summary: dict = {
            "n_evaluations": len(history),
            "total_cost": history.total_cost,
        }
        best = (
            history.incumbent(self.problem.highest_fidelity)
            if history.records
            else None
        )
        if best is not None:
            summary["best_objective"] = float(best.objective)
            summary["best_feasible"] = bool(best.feasible)
        trace_fn = getattr(self.strategy, "hypervolume_trace", None)
        if trace_fn is not None and history.records:
            trace = trace_fn()
            if len(trace):
                summary["hypervolume"] = float(trace[-1, 1])
        return summary

    def _refresh_meta(self, **fields) -> None:
        self.vault.update_meta(self.run_id, summary=self._summary(), **fields)

    # ------------------------------------------------------------------
    # driving + lifecycle
    # ------------------------------------------------------------------
    def run(self, batch_size: int = 1, max_steps: int | None = None) -> "BOResult":
        try:
            result = super().run(batch_size=batch_size, max_steps=max_steps)
        except Exception:
            self._refresh_meta(status="failed")
            raise
        self._refresh_meta(
            status="done" if self.strategy.is_done else "running"
        )
        return result

    def run_async(
        self,
        batch_size: int = 1,
        over_suggest: int = 0,
        max_results: int | None = None,
    ) -> "BOResult":
        try:
            result = super().run_async(
                batch_size=batch_size,
                over_suggest=over_suggest,
                max_results=max_results,
            )
        except Exception:
            self._refresh_meta(status="failed")
            raise
        self._refresh_meta(
            status="done" if self.strategy.is_done else "running"
        )
        return result

    def close(self) -> None:
        """Flush the event log, drop the writer lock, close the evaluator."""
        if not self._events_file.closed:
            self._flush_telemetry()
            self.save(self.checkpoint_path)
            self._refresh_meta(
                status="done" if self.strategy.is_done else "running"
            )
            self._events_file.close()
        self._release_lock()
        super().close()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned elsewhere
        return True
    return True
