"""``python -m repro.service`` — operate a run vault from the shell.

Subcommands::

    serve   --root VAULT [--host H] [--port P]    # blocking server
    ls      --root VAULT [--problem P] [--strategy S] [--status ST]
    show    --root VAULT RUN_ID                   # metadata + summary
    resume  --root VAULT RUN_ID [--max-steps N]   # drive a run onward
    gc      --root VAULT [--status ST ...] [--dry-run]
"""

from __future__ import annotations

import argparse
import json
import sys

from .vault import RunVault

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Operate a persistent optimization run vault.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_root(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
        p.add_argument("--root", required=True, help="vault root directory")
        return p

    p_serve = with_root(sub.add_parser("serve", help="run a session server"))
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0)

    p_ls = with_root(sub.add_parser("ls", help="list vaulted runs"))
    p_ls.add_argument("--problem")
    p_ls.add_argument("--strategy")
    p_ls.add_argument("--status")
    p_ls.add_argument("--json", action="store_true", dest="as_json")

    p_show = with_root(sub.add_parser("show", help="inspect one run"))
    p_show.add_argument("run_id")

    p_resume = with_root(
        sub.add_parser("resume", help="resume a run and drive it")
    )
    p_resume.add_argument("run_id")
    p_resume.add_argument("--max-steps", type=int, default=None)
    p_resume.add_argument("--batch-size", type=int, default=1)

    p_gc = with_root(sub.add_parser("gc", help="delete finished runs"))
    p_gc.add_argument(
        "--status",
        action="append",
        default=None,
        help="status to collect (repeatable; default: done)",
    )
    p_gc.add_argument("--dry-run", action="store_true")
    return parser


def _cmd_serve(args: argparse.Namespace) -> int:
    from .server import serve

    server = serve(args.root, args.host, args.port)
    host, port = server.address
    print(f"listening on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # reprolint: allow[REPRO-XF002] Ctrl-C is the
        pass  # documented way to stop a foreground server; exit quietly.
    finally:
        server.server_close()
    return 0


def _cmd_ls(args: argparse.Namespace) -> int:
    vault = RunVault(args.root)
    infos = vault.list_runs(
        problem=args.problem, strategy=args.strategy, status=args.status
    )
    if args.as_json:
        print(json.dumps([info.to_dict() for info in infos], indent=2))
        return 0
    header = f"{'RUN':40} {'PROBLEM':18} {'STRATEGY':14} {'STATUS':8} {'N':>5} {'BEST':>12}"
    print(header)
    for info in infos:
        best = "-" if info.best_objective is None else f"{info.best_objective:.4g}"
        print(
            f"{info.run_id:40} {info.problem:18} {info.strategy:14} "
            f"{info.status:8} {info.n_evaluations:>5} {best:>12}"
        )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    vault = RunVault(args.root)
    payload = vault.meta(args.run_id)
    payload["info"] = vault.info(args.run_id).to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    vault = RunVault(args.root)
    with vault.resume(args.run_id) as session:
        result = session.run(
            batch_size=args.batch_size, max_steps=args.max_steps
        )
        print(
            json.dumps(
                {
                    "run_id": args.run_id,
                    "n_evaluations": len(session.history),
                    "best_objective": result.best_objective,
                    "is_done": bool(session.is_done),
                },
                indent=2,
            )
        )
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    vault = RunVault(args.root)
    statuses = tuple(args.status) if args.status else ("done",)
    removed = vault.gc(statuses=statuses, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(f"{verb} {len(removed)} run(s)")
    for run_id in removed:
        print(f"  {run_id}")
    return 0


_COMMANDS = {
    "serve": _cmd_serve,
    "ls": _cmd_ls,
    "show": _cmd_show,
    "resume": _cmd_resume,
    "gc": _cmd_gc,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
