"""The session server: concurrent clients, kill-resume, CLI.

The headline guarantees under test:

* two clients can create, drive and resume runs through one server
  concurrently without interference;
* SIGKILLing the *server process* mid-run loses no observation the
  client saw acknowledged — a restarted server replays the vault
  point-for-point;
* the wire refuses what the in-process session refuses, and ``gc``
  never removes a run a client is still attached to.
"""

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.service import RunVault, ServiceError, connect, serve
from repro.service.cli import main as cli_main

REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

RS = dict(budget=6, n_init=3, seed=5)


@pytest.fixture()
def server(tmp_path):
    srv = serve(tmp_path / "vault")
    srv.start_background()
    yield srv
    srv.shutdown()
    srv.server_close()


class TestProtocol:
    def test_ping(self, server):
        with connect(server.address) as client:
            assert client.ping()

    def test_unknown_op_is_nonfatal(self, server):
        with connect(server.address) as client:
            with pytest.raises(ServiceError, match="unknown op"):
                client.call("frobnicate")
            assert client.ping()  # connection survives the error

    @pytest.mark.parametrize("op", ["predict", "cache_stats"])
    def test_retired_op_is_unknown(self, server, op):
        """A client built against the retired posterior-cache ops gets a
        clean error and keeps a usable connection."""
        with connect(server.address) as client:
            session = client.create("forrester", "random_search", **RS)
            with pytest.raises(ServiceError, match="unknown op"):
                client.call(op, run_id=session.run_id, x_unit=[[0.5]])
            assert client.ping()
            assert session.status()["n_evaluations"] == 0

    def test_unattached_run_is_reported(self, server):
        with connect(server.address) as client:
            with pytest.raises(ServiceError, match="not attached"):
                client.call(
                    "observe", run_id="missing", x_unit=[0.5],
                    fidelity="high",
                    evaluation={"objective": 1.0, "constraints": [],
                                "cost": 1.0},
                )
            assert client.ping()

    def test_string_address_form(self, server):
        host, port = server.address
        with connect(f"{host}:{port}") as client:
            assert client.ping()


class TestRemoteSessions:
    def test_create_drive_result(self, server):
        with connect(server.address) as client:
            session = client.create("forrester", "random_search", **RS)
            result = session.run()
            assert np.isfinite(result.best_objective)
            status = session.status()
            assert status["n_evaluations"] == RS["budget"]
            assert status["status"] == "done"
            history = session.history()
            assert len(history) == RS["budget"]
            session.detach()

    def test_remote_matches_local_trajectory(self, server, tmp_path):
        local = RunVault(tmp_path / "local").open_session(
            "forrester", "random_search", **RS
        )
        local.run()
        local_records = [
            (tuple(map(float, r.x_unit)), r.objective)
            for r in local.history.records
        ]
        local.close()

        with connect(server.address) as client:
            session = client.create("forrester", "random_search", **RS)
            session.run()
            remote_records = [
                (tuple(map(float, r.x_unit)), r.objective)
                for r in session.history().records
            ]
            session.detach()
        assert remote_records == local_records

    def test_two_concurrent_clients(self, server):
        """Two clients drive independent runs through one server at once."""
        errors: list[Exception] = []
        run_ids: dict[str, str] = {}

        def drive(tag: str, seed: int) -> None:
            try:
                with connect(server.address) as client:
                    session = client.create(
                        "forrester", "random_search",
                        budget=6, n_init=3, seed=seed,
                    )
                    run_ids[tag] = session.run_id
                    session.run()
                    assert session.status()["status"] == "done"
                    session.detach()
            except Exception as exc:  # propagated to the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=drive, args=(f"t{i}", 100 + i))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert len(set(run_ids.values())) == 2
        infos = server.vault.list_runs(status="done")
        assert {i.run_id for i in infos} == set(run_ids.values())

    def test_detach_then_reattach_resumes(self, server):
        with connect(server.address) as client:
            session = client.create(
                "forrester", "random_search", budget=9, n_init=3, seed=2
            )
            for x_unit, fidelity in session.suggest(3):
                session.observe(
                    x_unit, fidelity,
                    session.problem.evaluate_unit(x_unit, fidelity),
                )
            n_before = session.status()["n_evaluations"]
            session.detach()

        with connect(server.address) as client:
            again = client.attach(session.run_id)
            assert again.status()["n_evaluations"] == n_before
            again.run()
            assert again.status()["status"] == "done"
            again.detach()

    def test_ls_and_gc_over_the_wire(self, server):
        with connect(server.address) as client:
            session = client.create("forrester", "random_search", **RS)
            session.run()
            session.detach()
            runs = client.ls(status="done")
            assert [r["run_id"] for r in runs] == [session.run_id]
            assert client.gc(dry_run=True) == [session.run_id]
            assert client.gc() == [session.run_id]
            assert client.ls() == []

    def test_gc_spares_an_attached_run(self, server):
        """A done run a client is still attached to survives ``gc``, and
        its ``detach`` can still checkpoint it."""
        with connect(server.address) as client:
            session = client.create("forrester", "random_search", **RS)
            session.run()
            assert session.status()["status"] == "done"
            assert client.gc(dry_run=True) == []
            assert client.gc() == []
            assert [r["run_id"] for r in client.ls()] == [session.run_id]
            session.detach()
            assert client.gc(statuses=[]) == []
            assert client.gc() == [session.run_id]

    def test_wire_refuses_what_the_session_refuses(self, server):
        """Out-of-range fields are refused, not quietly replaced."""
        with connect(server.address) as client:
            with pytest.raises(ServiceError, match="checkpoint_every"):
                client.create(
                    "forrester", "random_search", checkpoint_every=0, **RS
                )
            assert server.vault.run_ids() == []
            session = client.create("forrester", "random_search", **RS)
            with pytest.raises(ServiceError, match="k must be >= 1"):
                session.suggest(0)
            assert session.status()["n_evaluations"] == 0
            assert len(session.suggest(1)) == 1
            session.detach()
            with pytest.raises(ServiceError, match="checkpoint_every"):
                client.attach(session.run_id, checkpoint_every=0)
            assert session.run_id not in server.sessions


class _ServerProcess:
    """A session server in a real subprocess, killable with SIGKILL."""

    def __init__(self, vault_root: Path) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "serve",
                "--root", str(vault_root), "--port", "0",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": REPO_SRC},
        )
        banner = self.proc.stdout.readline().strip()
        host, _, port = banner.rpartition(" ")[2].rpartition(":")
        self.address = (host, int(port))

    def kill(self) -> None:
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)


class TestServerKill:
    def test_kill_loses_no_acknowledged_evaluation(self, tmp_path):
        """SIGKILL the server mid-run; a restarted server replays the
        vault so every acknowledged observation survives."""
        vault_root = tmp_path / "vault"
        first = _ServerProcess(vault_root)
        acknowledged = []
        try:
            client = connect(first.address)
            session = client.create(
                "forrester", "random_search", budget=9, n_init=3, seed=13
            )
            run_id = session.run_id
            for x_unit, fidelity in session.suggest(4):
                evaluation = session.problem.evaluate_unit(x_unit, fidelity)
                session.observe(x_unit, fidelity, evaluation)
                acknowledged.append(
                    (tuple(float(v) for v in x_unit), evaluation.objective)
                )
        finally:
            first.kill()

        second = _ServerProcess(vault_root)
        try:
            with connect(second.address) as client:
                again = client.attach(run_id)
                history = again.history()
                replayed = [
                    (tuple(float(v) for v in r.x_unit), r.objective)
                    for r in history.records
                ]
                assert replayed == acknowledged
                again.run()
                assert again.status()["status"] == "done"
                again.detach()
        finally:
            second.kill()


class TestServiceCLI:
    def _make_run(self, root) -> str:
        vault = RunVault(root)
        session = vault.open_session(
            "forrester", "random_search", budget=4, n_init=3, run_id="cli-run"
        )
        session.run()
        session.close()
        return session.run_id

    def test_ls_table_and_json(self, tmp_path, capsys):
        run_id = self._make_run(tmp_path)
        assert cli_main(["ls", "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert run_id in out and "done" in out
        assert cli_main(["ls", "--root", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["run_id"] == run_id

    def test_show(self, tmp_path, capsys):
        run_id = self._make_run(tmp_path)
        assert cli_main(["show", "--root", str(tmp_path), run_id]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["problem"] == "forrester"
        assert payload["info"]["status"] == "done"

    def test_resume_drives_to_completion(self, tmp_path, capsys):
        vault = RunVault(tmp_path)
        session = vault.open_session(
            "forrester", "random_search", budget=6, n_init=3, run_id="part"
        )
        session.step()
        session._events_file.close()  # abandon mid-run
        assert cli_main(["resume", "--root", str(tmp_path), "part"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_done"] and payload["n_evaluations"] == 6

    def test_gc(self, tmp_path, capsys):
        run_id = self._make_run(tmp_path)
        assert cli_main(["gc", "--root", str(tmp_path), "--dry-run"]) == 0
        assert run_id in capsys.readouterr().out
        assert cli_main(["gc", "--root", str(tmp_path)]) == 0
        capsys.readouterr()
        assert RunVault(tmp_path).run_ids() == []
