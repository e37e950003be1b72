"""Command line entry point.

    lenserv serve --server todo --port 8080 [--snapshot state.json]
    lenserv routes --server calculator

``serve`` runs one of the bundled demo servers.  With ``--snapshot``,
state is loaded from the file at startup (if it exists) and replaced
whole on shutdown, using the same canonical JSON that travels over the
wire.  ``routes`` prints the path grammar the engine derived.
"""

import argparse
import logging
import os
import signal
import sys
from pathlib import Path

from .demos import DEMOS
from .engine import EngineConfig, PrepareError, prepare, serve
from .routing import describe_routes
from .values import DecodeError, decode_json, encode_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lenserv",
        description="composable HTTP servers built from lenses")
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="run a bundled demo server")
    p_serve.add_argument("--server", required=True, choices=sorted(DEMOS),
                         help="which demo to run")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument("--snapshot", type=Path, default=None,
                         help="file to load state from and save state to")

    p_routes = sub.add_parser("routes", help="print a demo server's routes")
    p_routes.add_argument("--server", required=True, choices=sorted(DEMOS))

    return parser


def _cmd_serve(args) -> int:
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(message)s")
    server = DEMOS[args.server]()

    initial = None
    if args.snapshot is not None and args.snapshot.exists():
        try:
            initial = decode_json(server.param.shape, args.snapshot.read_text("utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            print(f"cannot read snapshot {args.snapshot}: {exc}", file=sys.stderr)
            return 1
        except DecodeError as exc:
            print(f"snapshot {args.snapshot} does not match the server's "
                  f"state schema: {exc}", file=sys.stderr)
            return 1

    try:
        config = EngineConfig(port=args.port)
        prepared = prepare(server, config, initial=initial)
    except (ValueError, PrepareError) as exc:
        print(f"cannot start: {exc}", file=sys.stderr)
        return 1

    def on_term(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, on_term)
    except ValueError:
        pass  # not the main thread; Ctrl-C still works

    try:
        serve(prepared)
    finally:
        if args.snapshot is not None:
            _save(args.snapshot, encode_json(prepared.cell.snapshot()))
    return 0


def _save(path: Path, text: str) -> None:
    """Write ``text`` to a temp file beside ``path``, then rename it over
    ``path``, so a crash mid-write leaves the previous snapshot whole."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _cmd_routes(args) -> int:
    server = DEMOS[args.server]()
    for route in describe_routes(server.left.shape):
        print(route)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"serve": _cmd_serve, "routes": _cmd_routes}[args.command]
    return command(args)


if __name__ == "__main__":
    sys.exit(main())
