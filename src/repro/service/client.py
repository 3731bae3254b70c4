"""Wire client for the session server.

:class:`ServiceClient` is a thin JSON-frame RPC wrapper around one TCP
connection. :class:`RemoteSession` layers the familiar ask/tell
:class:`repro.session.Strategy` surface on top of it — ``suggest`` /
``observe`` / ``is_done`` / ``result`` behave like their in-process
counterparts, except the strategy state lives (durably) in the server's
vault. Evaluations run *client-side*: the client rebuilds the problem
from the registry using the name recorded in the run's metadata, so the
server never blocks a handler thread on a simulator.

>>> session = repro.connect(("127.0.0.1", 7777)).create("forrester")
...                                                     # doctest: +SKIP
>>> result = session.run()                              # doctest: +SKIP
"""

from __future__ import annotations

import json
import socket
from typing import Sequence

import numpy as np

from ..session.protocol import Suggestion

__all__ = ["ServiceClient", "ServiceError", "RemoteSession", "connect"]

DEFAULT_TIMEOUT = 60.0


class ServiceError(RuntimeError):
    """The server reported a failure, or the connection broke."""

    def __init__(self, message: str, etype: str | None = None) -> None:
        super().__init__(message)
        self.etype = etype


def _parse_address(address: "str | tuple[str, int]") -> tuple[str, int]:
    if isinstance(address, str):
        host, sep, port = address.rpartition(":")
        if not sep:
            raise ValueError(
                f"address {address!r} must be 'host:port' or a (host, port) "
                "tuple"
            )
        return host, int(port)
    host, port = address
    return str(host), int(port)


class ServiceClient:
    """One TCP connection speaking newline-delimited JSON frames."""

    def __init__(
        self,
        address: "str | tuple[str, int]",
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        self.address = _parse_address(address)
        self.timeout = float(timeout)
        self._sock = socket.create_connection(self.address, timeout=self.timeout)
        self._sock.settimeout(self.timeout)
        self._rfile = self._sock.makefile("rb")

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def call(self, op: str, **fields) -> dict:
        """Send one request frame, block for its reply, unwrap errors."""
        frame = json.dumps({"op": op, **fields}).encode() + b"\n"
        try:
            self._sock.sendall(frame)
            line = self._rfile.readline()
        except (ConnectionError, socket.timeout, OSError) as exc:
            raise ServiceError(
                f"lost connection to {self.address[0]}:{self.address[1]} "
                f"during {op!r}: {exc}"
            ) from exc
        if not line:
            raise ServiceError(
                f"server at {self.address[0]}:{self.address[1]} closed the "
                f"connection during {op!r}"
            )
        reply = json.loads(line)
        if not reply.pop("ok", False):
            raise ServiceError(
                reply.get("error", "unknown server error"),
                etype=reply.get("etype"),
            )
        return reply

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # convenience ops
    # ------------------------------------------------------------------
    def ping(self) -> bool:
        return bool(self.call("ping").get("pong"))

    def ls(self, **filters) -> list[dict]:
        return self.call("ls", **filters)["runs"]

    def gc(self, statuses: Sequence[str] = ("done",), dry_run: bool = False):
        return self.call("gc", statuses=list(statuses), dry_run=dry_run)[
            "removed"
        ]

    def stats(self) -> dict:
        """Server-wide metrics snapshot: per-op counters and latencies."""
        return self.call("stats")

    def shutdown(self) -> None:
        self.call("shutdown")

    def create(
        self,
        problem: str,
        strategy: str = "mfbo",
        *,
        problem_kwargs: dict | None = None,
        checkpoint_every: int = 1,
        **config,
    ) -> "RemoteSession":
        """Create a fresh vaulted run on the server and attach to it."""
        status = self.call(
            "create",
            problem=problem,
            strategy=strategy,
            problem_kwargs=problem_kwargs,
            checkpoint_every=checkpoint_every,
            config=config,
        )
        return RemoteSession(self, status)

    def attach(self, run_id: str, *, checkpoint_every: int = 1) -> "RemoteSession":
        """Attach to an existing run, resuming it from the vault."""
        status = self.call(
            "attach", run_id=run_id, checkpoint_every=checkpoint_every
        )
        return RemoteSession(self, status)


class RemoteSession:
    """Ask/tell access to one vaulted run through a :class:`ServiceClient`.

    Mirrors the :class:`repro.session.Strategy` protocol — ``suggest``
    returns :class:`repro.session.Suggestion` tuples and ``observe``
    takes ``(x_unit, fidelity, evaluation)`` — so driving code written
    against an in-process strategy works unchanged against a remote run.
    An ``observe`` that returns has been durably logged by the server.
    """

    def __init__(self, client: ServiceClient, status: dict) -> None:
        self.client = client
        self.run_id = str(status["run_id"])
        self.problem_name = str(status["problem"])
        self._problem_kwargs = dict(status.get("problem_kwargs") or {})
        self._problem = None

    # ------------------------------------------------------------------
    # ask/tell protocol
    # ------------------------------------------------------------------
    def suggest(self, k: int = 1) -> list[Suggestion]:
        reply = self.client.call("suggest", run_id=self.run_id, k=k)
        return [
            Suggestion(np.asarray(s["x_unit"], dtype=float), str(s["fidelity"]))
            for s in reply["suggestions"]
        ]

    def observe(self, x_unit, fidelity: str, evaluation) -> dict:
        return self.client.call(
            "observe",
            run_id=self.run_id,
            x_unit=[float(v) for v in np.asarray(x_unit, dtype=float)],
            fidelity=str(fidelity),
            evaluation=evaluation.to_dict(),
        )

    @property
    def is_done(self) -> bool:
        return bool(self.status().get("is_done"))

    def result(self):
        from ..core.result import BOResult

        return BOResult.from_dict(
            self.client.call("result", run_id=self.run_id)["result"]
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def status(self) -> dict:
        return self.client.call("status", run_id=self.run_id)

    def history(self):
        from ..core.history import History

        return History.from_dict(
            self.client.call("history", run_id=self.run_id)["history"]
        )

    # ------------------------------------------------------------------
    # client-side driver
    # ------------------------------------------------------------------
    @property
    def problem(self):
        """The run's problem, rebuilt locally from the registry."""
        if self._problem is None:
            from ..registry import get_problem

            self._problem = get_problem(
                self.problem_name, **self._problem_kwargs
            )
        return self._problem

    def run(self, batch_size: int = 1, max_steps: int | None = None):
        """Drive the remote run to completion, evaluating locally.

        The ask → evaluate → tell loop of
        :meth:`repro.session.OptimizationSession.run`, with the ask/tell
        halves crossing the wire and the (expensive) simulator staying
        on the client.
        """
        steps = 0
        while max_steps is None or steps < max_steps:
            suggestions = self.suggest(batch_size)
            if not suggestions:
                break
            for x_unit, fidelity in suggestions:
                evaluation = self.problem.evaluate_unit(x_unit, fidelity)
                self.observe(x_unit, fidelity, evaluation)
            steps += 1
        return self.result()

    def detach(self) -> None:
        """Release the server-side session (the run stays resumable)."""
        self.client.call("detach", run_id=self.run_id)


def connect(
    address: "str | tuple[str, int]", timeout: float = DEFAULT_TIMEOUT
) -> ServiceClient:
    """Open a :class:`ServiceClient` to a running session server.

    ``address`` is ``"host:port"`` or a ``(host, port)`` tuple.
    """
    return ServiceClient(address, timeout=timeout)
