"""Serve a bundled demo like ``lenserv serve`` does, with a span around
every call into a layer's public functions.

    PYTHONPATH=src python bench/traced_server.py --server combined \\
        --port 8080 --snapshot state.json --spans spans.json

Nothing in the library changes.  The engine's module globals
(``handle_get``, ``handle_post``, ``split_path``, ``decode_json``,
``encode_json``, ``conforms``) are replaced by timed wrappers; the
server's lens, request/response containers and route parser are rebuilt
through their constructors with timed callables; the state cell's
``transaction`` and ``apply_diff`` are wrapped on the instance.

Spans ``(id, name, start_ns, end_ns, parent id, request id)`` and one
record per request ``(request id, thread number, method, path, status, bytes
out)`` stay in memory and are written to ``--spans`` at shutdown,
together with the state snapshot, as the CLI does.
"""

import argparse
import itertools
import json
import logging
import signal
import sys
import threading
from contextlib import ExitStack, contextmanager
from pathlib import Path
from time import perf_counter_ns

import lenserv.engine as engine
from lenserv.containers import Container
from lenserv.demos import DEMOS
from lenserv.deplens import DepLens
from lenserv.engine import EngineConfig, PreparedServer, prepare, serve
from lenserv.routing import UriParser
from lenserv.servers import Server
from lenserv.values import decode_json, encode_json


class Tracer:
    def __init__(self):
        self.spans = []
        self.requests = {}
        self._span_ids = itertools.count()
        self._request_ids = itertools.count()
        self._thread_ids = itertools.count()
        self._local = threading.local()

    def _context(self):
        local = self._local
        if not hasattr(local, "stack"):
            # Numbered here rather than by threading.get_ident(), which
            # the next connection's thread may reuse.
            local.thread = next(self._thread_ids)
            local.stack = []
            local.rid = None
        return local

    def span(self, name, fn):
        """``fn`` wrapped in a span named ``name``."""
        spans, ids = self.spans, self._span_ids

        def timed(*args, **kwargs):
            local = self._context()
            stack = local.stack
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans.append((sid, name, t0, t1, parent, local.rid))
        return timed

    def request(self, method, handle):
        """``handle_get`` / ``handle_post`` as the root span of a request."""
        timed = self.span("engine.handle", handle)

        def traced(p, path, *rest):
            local = self._context()
            rid = next(self._request_ids)
            record = [rid, local.thread, method, path, None, 0]
            self.requests[rid] = record
            local.rid = rid
            try:
                resp = timed(p, path, *rest)
                record[4] = resp.status
                return resp
            finally:
                local.rid = None
        return traced

    def encoder(self, encode):
        timed = self.span("values.encode", encode)

        def traced(v):
            text = timed(v)
            rid = self._context().rid
            if rid is not None:
                self.requests[rid][5] += len(text.encode("utf-8"))
            return text
        return traced

    def transaction(self, transaction):
        """Time entering ``cell.transaction()``: the wait for the lock."""
        enter = self.span("state.lock_wait", ExitStack.enter_context)

        @contextmanager
        def traced():
            with ExitStack() as stack:
                yield enter(stack, transaction())
        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans,
                                    "requests": list(self.requests.values())}))


def instrument(p: PreparedServer, tracer: Tracer) -> PreparedServer:
    engine.handle_get = tracer.request("GET", engine.handle_get)
    engine.handle_post = tracer.request("POST", engine.handle_post)
    engine.split_path = tracer.span("routing.split", engine.split_path)
    engine.decode_json = tracer.span("values.decode", engine.decode_json)
    engine.encode_json = tracer.encoder(engine.encode_json)
    engine.conforms = tracer.span("values.conforms", engine.conforms)

    s = p.server
    lens = DepLens(s.lens.src, s.lens.dst,
                   tracer.span("servers.view", s.lens.view),
                   tracer.span("servers.update", s.lens.update))
    left = Container(s.left.shape, tracer.span("containers.position", s.left.position),
                     s.left.form)
    right = Container(s.right.shape, tracer.span("containers.position", s.right.position),
                      s.right.form)
    parser = UriParser(p.parser.schema, tracer.span("routing.run", p.parser.run))
    p.cell.transaction = tracer.transaction(p.cell.transaction)
    p.cell.apply_diff = tracer.span("state.apply_diff", p.cell.apply_diff)
    return PreparedServer(Server(left, s.param, right, lens), parser, p.cell, p.config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--server", required=True, choices=sorted(DEMOS))
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--snapshot", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)

    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(message)s")
    server = DEMOS[args.server]()
    initial = None
    if args.snapshot.exists():
        initial = decode_json(server.param.shape, args.snapshot.read_text("utf-8"))
    tracer = Tracer()
    prepared = instrument(prepare(server, EngineConfig(port=args.port), initial=initial),
                          tracer)

    def on_term(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, on_term)
    try:
        serve(prepared)
    finally:
        args.snapshot.write_text(encode_json(prepared.cell.snapshot()), "utf-8")
        tracer.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
