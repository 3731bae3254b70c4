"""The run vault: durable round-trips, crash resume, schema guards.

The durability contract under test: every observation a caller saw
acknowledged is on disk before ``observe`` returns, and
:meth:`RunVault.resume` reconstructs exactly the acknowledged state —
point-for-point against an uninterrupted reference run — whether the
process died between checkpoints, mid-checkpoint-write (``.bak``
fallback) or mid-event-append (torn tail).
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.registry import get_problem, get_strategy
from repro.service import RunVault, VaultError
from repro.session import CheckpointError, OptimizationSession

FAST_MFBO = dict(
    budget=6.0, n_init_low=4, n_init_high=2, seed=7, msp_starts=4,
    msp_polish=0, n_restarts=1, n_mc_samples=4, gp_max_opt_iter=15,
)


def _fingerprint(history):
    """Trajectory identity: designs, fidelities and outcomes, in order."""
    return [
        (
            tuple(float(v) for v in r.x_unit),
            r.fidelity,
            float(r.objective),
            int(r.iteration),
        )
        for r in history.records
    ]


def _abandon(session):
    """Simulate SIGKILL: drop the session without close()/checkpoint."""
    session._events_file.close()


def _drive_pairs(target, stop_after=None):
    """Ask for pairs and observe one member at a time, in order.

    With ``stop_after``, return as soon as the history holds that many
    records, leaving the rest of the pair in flight.
    """
    in_flight = []
    while in_flight or not target.is_done:
        if not in_flight:
            in_flight = target.suggest(2)
            if not in_flight:
                return
        s = in_flight.pop(0)
        evaluation = target.problem.evaluate_unit(s.x_unit, s.fidelity)
        target.observe(s.x_unit, s.fidelity, evaluation)
        if len(target.history) == stop_after:
            return


def _reference_history(problem_name, strategy_name, **config):
    problem = get_problem(problem_name)
    strategy = get_strategy(strategy_name)(problem, **config)
    while not strategy.is_done:
        for s in strategy.suggest(1):
            strategy.observe(
                s.x_unit, s.fidelity, problem.evaluate_unit(s.x_unit, s.fidelity)
            )
    return strategy.history


class TestRoundTrip:
    def test_run_persists_and_indexes(self, tmp_path):
        vault = RunVault(tmp_path)
        session = vault.open_session(
            "forrester", "random_search", budget=6, n_init=3
        )
        result = session.run()
        run_id = session.run_id
        session.close()

        info = vault.info(run_id)
        assert info.status == "done"
        assert info.n_evaluations == 6
        assert info.best_objective == pytest.approx(result.best_objective)
        assert info.problem == "forrester"
        assert info.strategy == "random_search"

        events = vault.read_events(run_id)
        assert len(events) == 6
        assert [e["seq"] for e in events] == list(range(1, 7))

    def test_event_log_matches_history_exactly(self, tmp_path):
        vault = RunVault(tmp_path)
        session = vault.open_session(
            "forrester", "random_search", budget=5, n_init=3
        )
        session.run()
        history = session.strategy.history
        events = vault.read_events(session.run_id)
        session.close()
        assert [
            (tuple(e["x_unit"]), e["fidelity"], e["evaluation"]["objective"])
            for e in events
        ] == [
            (tuple(float(v) for v in r.x_unit), r.fidelity, r.objective)
            for r in history.records
        ]

    def test_observation_on_disk_before_ack(self, tmp_path):
        """The fsync'd event precedes the checkpoint: ack == durable."""
        vault = RunVault(tmp_path)
        session = vault.open_session(
            "forrester", "random_search", budget=8, n_init=3,
            checkpoint_every=100,  # so events are the only durable record
        )
        session.step()
        on_disk = vault.read_events(session.run_id)
        assert len(on_disk) == len(session.history) > 0
        _abandon(session)

    def test_open_session_rejects_instance_plus_config(self, tmp_path):
        vault = RunVault(tmp_path)
        problem = get_problem("forrester")
        strategy = get_strategy("random_search")(problem, budget=5, n_init=3)
        with pytest.raises(TypeError, match="strategy *"):
            vault.open_session(problem, strategy, budget=5)


class TestCrashResume:
    @pytest.mark.parametrize(
        "strategy_name,config,kill_after",
        [
            ("random_search", dict(budget=9, n_init=3, seed=11), 4),
            ("mfbo", FAST_MFBO, 3),
        ],
    )
    def test_resume_matches_uninterrupted_run(
        self, tmp_path, strategy_name, config, kill_after
    ):
        reference = _fingerprint(
            _reference_history("forrester", strategy_name, **config)
        )
        vault = RunVault(tmp_path)
        session = vault.open_session("forrester", strategy_name, **config)
        run_id = session.run_id
        for _ in range(kill_after):
            session.step()
        _abandon(session)

        resumed = vault.resume(run_id)
        assert _fingerprint(resumed.history) == reference[: len(resumed.history)]
        while not resumed.is_done:
            resumed.step()
        assert _fingerprint(resumed.history) == reference
        resumed.close()
        assert vault.info(run_id).status == "done"

    @pytest.mark.parametrize("kill_after", [7, 11, 15])
    def test_mfbo_resume_with_a_suggestion_in_flight(self, tmp_path, kill_after):
        """Abandon MF-BO inside its BO loop, past its 6-point initial
        design, with one member of a batch of two still in flight: the
        resumed run refits its models from the history, re-dispatches
        the in-flight member and finishes on the uninterrupted run's
        trajectory."""
        reference = get_strategy("mfbo")(get_problem("forrester"), **FAST_MFBO)
        _drive_pairs(reference)
        assert len(reference.history) > kill_after

        vault = RunVault(tmp_path)
        session = vault.open_session("forrester", "mfbo", **FAST_MFBO)
        run_id = session.run_id
        _drive_pairs(session, stop_after=kill_after)
        assert len(session.strategy.pending) == 1
        _abandon(session)

        resumed = vault.resume(run_id)
        _drive_pairs(resumed)
        assert _fingerprint(resumed.history) == _fingerprint(reference.history)
        resumed.close()

    def test_rejected_observation_writes_no_event(self, tmp_path):
        """An observation the problem cannot have is refused before the
        event line is fsynced, so resume never replays it."""
        vault = RunVault(tmp_path)
        session = vault.open_session("forrester", "mfbo", **FAST_MFBO)
        for _ in range(6):  # the initial design
            session.step()
        n_events = len(vault.read_events(session.run_id))
        evaluation = session.problem.evaluate_unit(np.array([0.5]), "low")
        with pytest.raises(ValueError, match="finite"):
            session.observe(np.array([np.nan]), "low", evaluation)
        assert len(vault.read_events(session.run_id)) == n_events
        session.step()
        assert len(vault.read_events(session.run_id)) == n_events + 1
        session.close()

    def test_resume_replays_events_beyond_stale_checkpoint(self, tmp_path):
        """Kill between checkpoints: the acknowledged tail is replayed."""
        vault = RunVault(tmp_path)
        session = vault.open_session(
            "forrester", "random_search", budget=9, n_init=3,
            checkpoint_every=100,  # pristine checkpoint only
        )
        run_id = session.run_id
        for _ in range(4):
            session.step()
        acknowledged = _fingerprint(session.history)
        _abandon(session)

        resumed = vault.resume(run_id)
        assert _fingerprint(resumed.history) == acknowledged
        resumed.close()

    def test_resume_survives_torn_checkpoint_via_bak(self, tmp_path):
        vault = RunVault(tmp_path)
        session = vault.open_session(
            "forrester", "random_search", budget=9, n_init=3
        )
        run_id = session.run_id
        for _ in range(3):
            session.step()
        acknowledged = _fingerprint(session.history)
        _abandon(session)

        path = vault.checkpoint_path(run_id)
        assert path.with_suffix(path.suffix + ".bak").exists()
        path.write_text('{"format": "repro-session-checkpoint", "vers')
        resumed = vault.resume(run_id)
        assert _fingerprint(resumed.history) == acknowledged
        resumed.close()

    def test_resume_drops_torn_tail_event(self, tmp_path):
        """A half-written final event line was never acked: dropped."""
        vault = RunVault(tmp_path)
        session = vault.open_session(
            "forrester", "random_search", budget=9, n_init=3,
            checkpoint_every=100,
        )
        run_id = session.run_id
        for _ in range(3):
            session.step()
        acknowledged = _fingerprint(session.history)
        _abandon(session)

        with open(vault.events_path(run_id), "a", encoding="utf-8") as fh:
            fh.write('{"seq": 99, "x_unit": [0.')
        resumed = vault.resume(run_id)
        assert _fingerprint(resumed.history) == acknowledged
        resumed.close()

    def test_mid_file_corruption_raises(self, tmp_path):
        vault = RunVault(tmp_path)
        session = vault.open_session(
            "forrester", "random_search", budget=9, n_init=3
        )
        run_id = session.run_id
        for _ in range(3):
            session.step()
        _abandon(session)

        lines = vault.events_path(run_id).read_text().splitlines()
        lines[1] = lines[1][:10]
        vault.events_path(run_id).write_text("\n".join(lines) + "\n")
        with pytest.raises(VaultError, match="corrupt"):
            vault.read_events(run_id)

    def test_no_rng_double_spend_after_resume(self, tmp_path):
        """Replay consumes no RNG: post-resume suggestions differ from
        none of the uninterrupted run's (same stream position)."""
        config = dict(budget=9, n_init=3, seed=11)
        reference = _fingerprint(
            _reference_history("forrester", "random_search", **config)
        )
        vault = RunVault(tmp_path)
        session = vault.open_session("forrester", "random_search", **config)
        run_id = session.run_id
        session.step()
        _abandon(session)
        resumed = vault.resume(run_id)
        while not resumed.is_done:
            resumed.step()
        assert _fingerprint(resumed.history) == reference
        resumed.close()


class TestSchemaGuards:
    def test_checkpoint_version_mismatch_is_clear_error(self, tmp_path):
        vault = RunVault(tmp_path)
        session = vault.open_session(
            "forrester", "random_search", budget=5, n_init=3
        )
        run_id = session.run_id
        session.step()
        session.close()

        path = vault.checkpoint_path(run_id)
        payload = json.loads(path.read_text())
        payload["version"] = 999
        path.write_text(json.dumps(payload))
        # An incompatible checkpoint must NOT silently fall back to the
        # .bak (that would replay onto an older schema's state).
        with pytest.raises(CheckpointError, match="version"):
            vault.resume(run_id)

    @pytest.mark.parametrize("path", ["session", "vault"])
    def test_stale_mfbo_checkpoint_is_clear_error(self, tmp_path, path):
        """A checkpoint in MF-BO's version-1 layout, whose config names
        options this build no longer has, fails with the state version
        error on both resume paths, not with a TypeError raised by the
        constructor."""
        vault = RunVault(tmp_path)
        session = vault.open_session("forrester", "mfbo", **FAST_MFBO)
        run_id = session.run_id
        for _ in range(8):  # past the initial design
            session.step()
        session.close()

        checkpoint = vault.checkpoint_path(run_id)
        payload = json.loads(checkpoint.read_text())
        state = payload["state"]
        state["state_version"] = 1
        state["config"].update(fusion="nargp", fused_prediction="mc", refit_every=1)
        state["extra"] = {"models": None}
        checkpoint.write_text(json.dumps(payload))
        resume = {
            "session": lambda: OptimizationSession.resume(
                checkpoint, get_problem("forrester")
            ),
            "vault": lambda: vault.resume(run_id),
        }[path]
        with pytest.raises(ValueError, match="state schema version 1"):
            resume()

    def test_meta_version_mismatch_is_clear_error(self, tmp_path):
        vault = RunVault(tmp_path)
        session = vault.open_session(
            "forrester", "random_search", budget=5, n_init=3
        )
        run_id = session.run_id
        session.close()

        payload = json.loads(vault.meta_path(run_id).read_text())
        payload["version"] = 999
        vault.meta_path(run_id).write_text(json.dumps(payload))
        with pytest.raises(VaultError, match="schema version"):
            vault.meta(run_id)

    def test_meta_foreign_file_rejected(self, tmp_path):
        vault = RunVault(tmp_path)
        (tmp_path / "weird").mkdir()
        (tmp_path / "weird" / "meta.json").write_text('{"hello": 1}')
        with pytest.raises(VaultError, match="not a repro-run"):
            vault.meta("weird")


class TestQueriesAndMaintenance:
    def _seed_runs(self, vault):
        done = vault.open_session(
            "forrester", "random_search", budget=4, n_init=3
        )
        done.run()
        done.close()
        live = vault.open_session(
            "currin", "random_search", budget=9, n_init=3
        )
        live.step()
        _abandon(live)
        return done.run_id, live.run_id

    def test_list_runs_filters(self, tmp_path):
        vault = RunVault(tmp_path)
        done_id, live_id = self._seed_runs(vault)
        assert {i.run_id for i in vault.list_runs()} == {done_id, live_id}
        assert [i.run_id for i in vault.list_runs(status="done")] == [done_id]
        assert [i.run_id for i in vault.list_runs(problem="currin")] == [live_id]
        assert vault.list_runs(strategy="mfbo") == []

    def test_gc_removes_only_requested_statuses(self, tmp_path):
        vault = RunVault(tmp_path)
        done_id, live_id = self._seed_runs(vault)
        assert vault.gc(dry_run=True) == [done_id]
        assert vault.run_ids() == sorted([done_id, live_id])
        assert vault.gc() == [done_id]
        assert vault.run_ids() == [live_id]

    def test_delete_unknown_run_raises(self, tmp_path):
        with pytest.raises(VaultError, match="no run"):
            RunVault(tmp_path).delete("nope")

    def test_duplicate_run_id_rejected(self, tmp_path):
        vault = RunVault(tmp_path)
        session = vault.open_session(
            "forrester", "random_search", budget=4, n_init=3, run_id="twin"
        )
        session.close()
        with pytest.raises(VaultError, match="already exists"):
            vault.create_run("forrester", "random_search", {}, run_id="twin")


class TestWriterLock:
    def test_live_lock_blocks_second_writer(self, tmp_path):
        vault = RunVault(tmp_path)
        session = vault.open_session(
            "forrester", "random_search", budget=5, n_init=3
        )
        run_id = session.run_id
        _abandon(session)  # lock file stays behind, pid is ours...
        # ...so impersonate a *different* live process holding it.
        holder = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
        try:
            vault.lock_path(run_id).write_text(str(holder.pid))
            with pytest.raises(VaultError, match="locked by live process"):
                vault.resume(run_id)
        finally:
            holder.kill()
            holder.wait()

    def test_stale_lock_is_stolen(self, tmp_path):
        vault = RunVault(tmp_path)
        session = vault.open_session(
            "forrester", "random_search", budget=9, n_init=3
        )
        run_id = session.run_id
        session.step()
        _abandon(session)
        # A pid that cannot exist: the kill(pid, 0) probe fails, so the
        # lock is recognised as a dead process's and stolen.
        dead = 2 ** 22 + os.getpid()
        vault.lock_path(run_id).write_text(str(dead))
        resumed = vault.resume(run_id)
        assert len(resumed.history) > 0
        resumed.close()
        assert not vault.lock_path(run_id).exists()
