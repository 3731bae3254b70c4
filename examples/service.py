"""Optimization as a service: vault, server, concurrent clients, resume.

Four acts, all against one run vault:

1. **Serve** — boot a :class:`repro.SessionServer` on an ephemeral port
   (in-process here; production would run ``python -m repro.service
   serve --root runs/``).
2. **Two concurrent clients** — each connects with :func:`repro.connect`
   and drives its own run through the ask/tell wire protocol; the
   simulator executes client-side, the strategy state lives server-side.
3. **Kill and resume** — a client abandons a run mid-flight (as if the
   machine died); a second client re-attaches and the vault replays
   every acknowledged evaluation before continuing, point-for-point.
4. **Query** — list the finished runs, then read the revived run's
   status and its full evaluation history back over the wire.

Run:  python examples/service.py
"""

import shutil
import tempfile
import threading

from repro import connect
from repro.service import serve

SETTINGS = dict(budget=8, n_init=3)


def main() -> None:
    vault_root = tempfile.mkdtemp(prefix="repro-vault-")
    try:
        run(vault_root)
    finally:
        shutil.rmtree(vault_root, ignore_errors=True)


def run(vault_root: str) -> None:
    # -- act 1: boot the server ----------------------------------------
    server = serve(vault_root)
    server.start_background()
    address = server.address
    print(f"[server] listening on {address[0]}:{address[1]}")
    print(f"[server] vault root: {vault_root}")

    # -- act 2: two clients, concurrently ------------------------------
    def drive(tag: str, seed: int, results: dict) -> None:
        with connect(address) as client:
            session = client.create(
                "forrester", "random_search", seed=seed, **SETTINGS
            )
            result = session.run()
            results[tag] = (session.run_id, result.best_objective)
            session.detach()

    results: dict = {}
    clients = [
        threading.Thread(target=drive, args=(f"client-{i}", 10 + i, results))
        for i in range(2)
    ]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    for tag, (run_id, best) in sorted(results.items()):
        print(f"[{tag}] run {run_id} done, best objective {best:.4f}")

    # -- act 3: kill a run mid-flight, resume it from the vault --------
    with connect(address) as client:
        session = client.create(
            "forrester", "random_search", seed=99, **SETTINGS
        )
        victim_id = session.run_id
        for x_unit, fidelity in session.suggest(4):
            session.observe(
                x_unit, fidelity,
                session.problem.evaluate_unit(x_unit, fidelity),
            )
        n_before = session.status()["n_evaluations"]
        print(f"[victim] {victim_id}: {n_before} evaluations acknowledged, "
              "client dies without detaching")
        # The connection simply drops — no goodbye. Every acknowledged
        # observation is already fsynced in the vault's event log.

    with connect(address) as client:
        # The orphaned session is still held server-side; release it so
        # the attach below truly resumes from the vault's event log.
        client.call("detach", run_id=victim_id)
        revived = client.attach(victim_id)
        n_after = revived.status()["n_evaluations"]
        assert n_after == n_before, "resume lost an acknowledged evaluation"
        print(f"[rescuer] re-attached {victim_id}: all {n_after} "
              "evaluations replayed, driving to completion")
        result = revived.run()
        print(f"[rescuer] finished, best objective {result.best_objective:.4f}")

        # -- act 4: queries ------------------------------------------
        runs = client.ls(status="done")
        print(f"[query] {len(runs)} finished runs in the vault")
        status = revived.status()
        history = revived.history()
        assert len(history) == status["n_evaluations"]
        best = history.incumbent(revived.problem.highest_fidelity)
        print(f"[query] {victim_id}: status {status['status']}, "
              f"{len(history)} evaluations, total cost "
              f"{status['total_cost']:.1f}, best objective "
              f"{best.objective:.4f}")
        revived.detach()
        client.shutdown()
    server.server_close()
    print("done.")


if __name__ == "__main__":
    main()
