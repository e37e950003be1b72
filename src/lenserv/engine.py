"""HTTP engine: drive a server value over actual HTTP.

``prepare`` checks a server is runnable (its request schema has a path
grammar, its state container has a derivable update action), builds the
initial state, and returns a PreparedServer.  ``handle_get`` and
``handle_post`` are pure request->response functions over that value,
so everything short of sockets is unit-testable; ``serve`` wraps them
in a threaded stdlib HTTP server, which logs each request line at
DEBUG; ``serve`` itself logs only its start and stop at INFO.

Exactly two methods exist, and both go through one request path.  GET
runs the lens forward and never touches state.  POST parses the body at
the position schema the forward pass picked out, hands it to that
pass's backward map, checks and encodes the response, and only then
applies the resulting diff; the whole read-update-write sequence
happens inside one state transaction, so concurrent POSTs serialize,
and a POST answered with anything but 200 has not changed state.

Status mapping: 200 success, 400 bad body or handler-signalled domain
error, 404 no route, 405 other methods, 500 a broken typing contract or
a failed phase (forward pass, backward pass, response position, response
encoding, state commit): a library or handler bug, never a client
mistake.  A request whose end cannot be found, or whose body never
arrives whole, is refused and the connection closed: 400 a malformed
request line, header line or ``Content-Length``, or a body cut short by
the peer; 408 a body that stops arriving for ``IDLE_TIMEOUT_S``; 413 a
body announced over ``MAX_BODY_BYTES`` (1 MiB; unread); 501 a body sent
with ``Transfer-Encoding`` (unread).
Every response body is JSON; errors look like ``{"error": "..."}``.
"""

import json
import logging
import threading
from contextlib import nullcontext
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .routing import NotRoutable, UriParser, parser_for, split_path
from .servers import HandlerError, Server
from .state import ActionDerivationError, StateCell, StateContractError, initial_state
from .values import (
    DecodeError, Inl, Pair, Value, conforms, decode_json, encode_json,
)


__all__ = [
    "EngineConfig", "MAX_BODY_BYTES", "IDLE_TIMEOUT_S", "HttpResponse",
    "PrepareError", "PreparedServer", "prepare", "handle_get", "handle_post",
    "serve", "serve_background",
]

_log = logging.getLogger("lenserv.engine")


class PrepareError(Exception):
    """The server value cannot be driven by the engine as configured."""


# A request announcing a longer body is refused unread with a 413.
MAX_BODY_BYTES = 1 << 20

# A connection idle this long is closed; a body that stops arriving for
# this long is answered 408.
IDLE_TIMEOUT_S = 30


@dataclass(frozen=True)
class EngineConfig:
    port: int = 8080

    def __post_init__(self):
        if not 1 <= self.port <= 65535:
            raise ValueError(f"port must be in 1..65535, got {self.port}")


@dataclass(frozen=True)
class HttpResponse:
    status: int
    body: str


@dataclass(frozen=True)
class PreparedServer:
    server: Server
    parser: UriParser
    cell: StateCell
    config: EngineConfig


def prepare(server: Server, config: EngineConfig | None = None,
            initial: Value | None = None) -> PreparedServer:
    """Validate and instantiate a server for running.

    Raises PrepareError when the request schema contains a part with
    no path grammar, when the state container has no derivable update
    action, or when a supplied initial state does not conform.
    """
    config = config if config is not None else EngineConfig()
    try:
        parser = parser_for(server.left.shape)
    except NotRoutable as exc:
        raise PrepareError(f"request schema is not routable: {exc}") from None
    init = initial if initial is not None else initial_state(server.param)
    try:
        cell = StateCell(server.param, init)
    except ActionDerivationError as exc:
        raise PrepareError(f"state has no update action: {exc}") from None
    except StateContractError as exc:
        raise PrepareError(str(exc)) from None
    return PreparedServer(server, parser, cell, config)


def _error(status: int, message: str) -> HttpResponse:
    return HttpResponse(status, '{"error":%s}' % json.dumps(message, ensure_ascii=False))


def _strip_route_tags(left, right, x: Value, y: Value) -> Value:
    # Choice composition tags a forward value with the branch the
    # request took; the client named that branch in the path, so the tag
    # is not payload.  Walking the request and response containers
    # together: a coproduct on both sides is such a choice, and its tag
    # is dropped while the request's tag matches; a mount on the request
    # side is a path segment to walk past, and one on the response side
    # too is a typed capture, whose echoed value stays.  Anything else
    # ends the route: a tag below it is the payload's own.
    lf, rf = left.form or ("",), right.form or ("",)
    if lf[0] == rf[0] == "coproduct" and type(x) is type(y):
        i = 1 if isinstance(x, Inl) else 2
        return _strip_route_tags(lf[i], rf[i], x.value, y.value)
    if lf[0] == "mount" and rf[0] == "mount":
        return Pair(y.first, _strip_route_tags(lf[2], rf[2], x.second, y.second))
    if lf[0] == "mount":
        return _strip_route_tags(lf[2], right, x.second, y)
    return y


def _route(p: PreparedServer, path: str) -> Value | None:
    segments = split_path(path)
    return None if segments is None else p.parser.parse(segments)


def handle_get(p: PreparedServer, path: str) -> HttpResponse:
    return _handle(p, path, None)


def handle_post(p: PreparedServer, path: str, body: str) -> HttpResponse:
    return _handle(p, path, body)


def _handle(p: PreparedServer, path: str, body: str | None) -> HttpResponse:
    """Serve a GET (``body`` is None) or a POST.  A POST commits its diff
    as the last step of its transaction, after every check has passed
    and its answer is encoded."""
    x = _route(p, path)
    if x is None:
        return _error(404, f"no route matches {path}")
    server = p.server
    phase = "forward pass"
    try:
        with nullcontext() if body is None else p.cell.transaction():
            y, back = server.lens.run(Pair(x, p.cell.snapshot()))
            if body is None:
                if not conforms(server.right.shape, y):
                    return _error(500, "forward pass broke the response contract")
                y = _strip_route_tags(server.left, server.right, x, y)
                phase = "response encoding"
                return HttpResponse(200, encode_json(y))
            r = decode_json(server.right.position(y), body)
            phase = "backward pass"
            out = back(r)
            phase = "response position"
            if not conforms(server.left.position(x), out.first):
                return _error(500, "backward pass broke the response contract")
            phase = "response encoding"
            resp = HttpResponse(200, encode_json(out.first))
            phase = "state commit"
            p.cell.apply_diff(out.second)
    except (HandlerError, DecodeError) as exc:
        return _error(400, str(exc))
    except StateContractError as exc:
        return _error(500, str(exc))
    except Exception as exc:
        return _error(500, f"{phase} failed: {exc}")
    return resp


# ---------------------------------------------------------------------------
# Socket layer


def _make_handler(p: PreparedServer):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = IDLE_TIMEOUT_S  # reap idle keep-alive connections

        def _content_length(self) -> int | None:
            """The body length, or None when the framing is unusable:
            a value that is not a plain decimal number, or copies of
            the header that disagree.  Leading zeros do not count, and
            a value longer than ``MAX_BODY_BYTES`` is over it: only one
            digit more is converted, within ``int``'s digit limit."""
            values = set(self.headers.get_all("Content-Length", ()))
            if not values:
                return 0
            if len(values) > 1:
                return None
            value = values.pop().strip()
            if not (value.isascii() and value.isdigit()):
                return None
            return int(value.lstrip("0")[:len(str(MAX_BODY_BYTES)) + 1] or 0)

        def _read_body(self) -> bytes | tuple[int, str]:
            """The request body, or the status and reason to refuse a
            request whose end cannot be found or whose body never
            arrived whole."""
            if self.headers.defects or any("\n" in v for _, v in self.headers.raw_items()):
                # The stdlib parser turns a line without a colon, and
                # every line after it, into payload, and a folded line
                # into part of the value above it: a Content-Length or
                # Transfer-Encoding there would go unseen.
                return 400, "malformed header line"
            if "Transfer-Encoding" in self.headers:
                # Chunked bodies are not decoded; refuse unread.
                return 501, "Transfer-Encoding is not supported"
            length = self._content_length()
            if length is None:
                return 400, "invalid Content-Length"
            if length > MAX_BODY_BYTES:
                return 413, "request body too large"  # refuse unread
            try:
                raw = self.rfile.read(length) if length else b""
            except TimeoutError:
                return 408, "request body timed out"
            if len(raw) < length:
                return 400, "request body ended early"
            return raw

        def _finish(self, resp: HttpResponse) -> None:
            data = resp.body.encode("utf-8")
            self.send_response(resp.status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            if self.command != "HEAD":
                self.wfile.write(data)

        def _dispatch(self) -> None:
            raw = self._read_body()
            if isinstance(raw, tuple):
                self.send_error(*raw)
                return
            path = self.path.split("?", 1)[0]
            if self.command == "GET":
                resp = handle_get(p, path)
            elif self.command == "POST":
                try:
                    resp = handle_post(p, path, raw.decode("utf-8"))
                except UnicodeDecodeError:
                    resp = _error(400, "request body is not valid UTF-8")
            else:
                resp = _error(405, f"method {self.command} not supported")
            self._finish(resp)

        def __getattr__(self, name):
            # every method (GET, POST, PUT, anything) lands in _dispatch;
            # all but GET and POST come back as a 405
            if name.startswith("do_"):
                return self._dispatch
            raise AttributeError(name)

        def send_error(self, code, message=None, explain=None):
            # Every framing refusal arrives here: the stdlib's own (bad
            # request line, oversized headers, unsupported version) and
            # _read_body's.  Where the refused request ends is unknown,
            # or its body never came whole, so nothing after it on the
            # connection can be read as a request: answer in JSON with a
            # status line, like every other response, and hang up.  A request line that did not
            # parse leaves the HTTP/0.9 default version, which would
            # suppress the status line.
            self.close_connection = True
            self.request_version = self.protocol_version
            reason = message or self.responses.get(code, ("error",))[0]
            self._finish(_error(code, reason))

        def log_message(self, fmt, *args):
            _log.debug(fmt, *args)

    return Handler


def _build(p: PreparedServer) -> ThreadingHTTPServer:
    httpd = ThreadingHTTPServer(("127.0.0.1", p.config.port), _make_handler(p))
    # Connection threads must not block shutdown: an idle keep-alive
    # connection would otherwise pin server_close until its peer went
    # away.  State integrity does not depend on joining them; every
    # read-update-write runs inside the cell's lock.
    httpd.daemon_threads = True
    httpd.block_on_close = False
    return httpd


def serve(p: PreparedServer) -> None:
    """Serve until interrupted.  A diff is applied under the state lock
    or not at all, so shutdown never leaves state half-written."""
    httpd = _build(p)
    _log.info("listening on 127.0.0.1:%d", httpd.server_port)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
        _log.info("shut down")


def serve_background(p: PreparedServer) -> ThreadingHTTPServer:
    """Start serving on a daemon thread; shut the result down with
    ``shutdown()`` then ``server_close()``.  For tests and demos."""
    httpd = _build(p)
    # Poll often, so that shutdown() returns within ~50 ms.
    threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True).start()
    return httpd
