"""HTTP engine: drive a server value over actual HTTP.

``prepare`` checks a server is runnable (its request schema has a path
grammar, its state container has a derivable update action), builds the
initial state, and returns a PreparedServer.  It also spreads the
server's forms (``choice``, ``lit``, ``cap`` and ``reparam``) into one
ordered table of routes, one entry per leaf server under its prefixes
and one re-parametrisation, so that no request walks the nesting of
choices.  A path's leading literals are looked up, and each entry's own
grammar reads the rest: the first entry that matches a prefix of the
path runs its server's lens, and a 404 if it left segments over, as
ordered choice reads a path.  ``handle_get`` and ``handle_post`` are
pure request->response functions over that value, so everything short
of sockets is unit-testable; ``serve`` reads HTTP/1.1 for them on a
thread per connection, and logs only its start and stop.
Each response leaves in two writes, head then body, so a peer that holds
back its ACK of the head stalls the body ~40 ms under Nagle's algorithm.

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
request line (HTTP/0.9's too), header line or ``Content-Length``, or a
body cut short by the peer; 408 a body that stops arriving for
``IDLE_TIMEOUT_S``; 413 a body announced over ``MAX_BODY_BYTES`` (1 MiB;
unread); 501 a body sent with ``Transfer-Encoding`` (unread).
Every response body is JSON; errors look like ``{"error": "..."}``.
"""

import json
import logging
import re
import socketserver
import sys
import threading
import time
from contextlib import nullcontext, suppress
from dataclasses import dataclass, field
from http import HTTPStatus
from typing import NamedTuple
from wsgiref.handlers import format_date_time

from .routing import NotRoutable, UriParser, parser_for, split_path
from .servers import HandlerError, Server, reparam_server
from .state import ActionDerivationError, StateCell, StateContractError, initial_state
from .values import DecodeError, Inl, Pair, Value, conforms, decode_json, encode_json


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


class _Route(NamedTuple):
    """One entry of the route table: a leaf server under its prefixes.
    ``literals`` are the leading literal segments, the lookup steps;
    ``parser`` reads the rest of the path, any capture and the literals
    below it included; ``server`` is the leaf rebuilt under those
    prefixes and one re-parametrisation, so its lens takes what
    ``parser`` reads and the whole state."""

    literals: list
    parser: UriParser
    server: Server


@dataclass(frozen=True)
class PreparedServer:
    server: Server
    parser: UriParser
    cell: StateCell
    config: EngineConfig
    # The route table: the entries under each first literal, and those
    # for any other first segment, each list in route order.
    table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "table", _dispatch(_routes(self.server, self.parser)))


def _routes(server: Server, parser: UriParser) -> list:
    """Spread ``&`` and the prefixes into route entries, in route order.
    The ``reparam`` forms met on the way down compose into one lens,
    outer first (re-parametrising twice is once by the composite), and
    a prefix, which touches only the request, commutes with it; both
    distribute over ``&``, so ``+``, the ``&`` of two
    re-parametrisations, spreads too.  A literal above every capture is
    a lookup step; a capture and the literals below it are rebuilt over
    the leaf, for the entry's grammar to read.  A formless server is one
    entry, read by ``parser`` at the top.  An explicit stack walks the
    choices, so no nesting depth costs a Python frame."""
    out, stack = [], [(server, [], (), None)]
    while stack:
        s, literals, prefixes, lens = stack.pop()
        kind, a, b = s.form or (None, None, None)
        if kind == "choice":
            stack += [(b, literals, prefixes, lens), (a, literals, prefixes, lens)]
        elif kind == "reparam":
            stack.append((b, literals, prefixes, a if lens is None else lens >> a))
        elif kind == "lit" and not prefixes:
            stack.append((b, literals + [a], prefixes, lens))
        elif kind in ("lit", "cap"):
            stack.append((b, literals, prefixes + (a,), lens))
        else:
            for arg in reversed(prefixes):
                s = arg / s
            if lens is not None:
                s = reparam_server(s, lens)
            out.append(_Route(literals, parser if s is server else parser_for(s.left.shape), s))
    return out


def _dispatch(routes: list) -> tuple:
    """``(by_literal, others)``: under each first literal, the entries
    that start with it merged in order with those that start with no
    literal; ``others`` alone for any other first segment.  No entry
    left out of a list could match a path that the list is read for."""
    by_literal, others = {}, []
    for r in routes:
        if not r.literals:
            others.append(r)
            for entries in by_literal.values():
                entries.append(r)
        else:
            by_literal.setdefault(r.literals[0], list(others)).append(r)
    return by_literal, others


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
    except RecursionError:
        raise PrepareError("route nesting is too deep for the recursion limit "
                           f"({sys.getrecursionlimit()})") from None
    init = initial if initial is not None else initial_state(server.param)
    try:
        cell = StateCell(server.param, init)
    except ActionDerivationError as exc:
        raise PrepareError(f"state has no update action: {exc}") from None
    except StateContractError as exc:
        raise PrepareError(str(exc)) from None
    return PreparedServer(server, parser, cell, config)


def _error(status: int, message: str) -> HttpResponse:
    # ASCII escapes carry any message, a lone surrogate's included.
    return HttpResponse(status, '{"error":%s}' % json.dumps(message))


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


def _lookup(table: tuple, path: str):
    """``(entry, request)`` for the first entry whose literals and
    grammar match a prefix of ``path``, or None: also when that entry
    leaves segments over, as ordered choice commits to the first branch
    that matches."""
    segments = split_path(path)
    if segments is None:
        return None
    by_literal, others = table
    n = len(segments)
    for r in by_literal.get(segments[0], others) if n else others:
        k = len(r.literals)
        if segments[:k] == r.literals:
            out = r.parser.run(segments, k)
            if out is not None:
                return (r, out[0]) if out[1] == n else None
    return None


def handle_get(p: PreparedServer, path: str) -> HttpResponse:
    return _handle(p, path, None)


def handle_post(p: PreparedServer, path: str, body: str) -> HttpResponse:
    return _handle(p, path, body)


def _handle(p: PreparedServer, path: str, body: str | None) -> HttpResponse:
    """Serve a GET (``body`` is None) or a POST.  A POST commits its diff
    as the last step of its transaction, after every check has passed
    and its answer is encoded."""
    found = _lookup(p.table, path)
    if found is None:
        return _error(404, f"no route matches {path}")
    route, x = found
    phase = "forward pass"
    try:
        with nullcontext() if body is None else p.cell.transaction():
            s = route.server
            y, back = s.lens.run(Pair(x, p.cell.snapshot()))
            if body is None:
                if not conforms(s.right.shape, y):
                    return _error(500, "forward pass broke the response contract")
                y = _strip_route_tags(s.left, s.right, x, y)
                phase = "response encoding"
                return HttpResponse(200, encode_json(y))
            r = decode_json(s.right.position(y), body)
            phase = "backward pass"
            out = back(r)
            phase = "response position"
            if not conforms(s.left.position(x), out.first):
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
# Socket layer: HTTP/1.1 framing (RFC 9112), one thread per connection.
# The contract's limits: 64 KiB per request or header line, under 100 header lines.
_MAX_LINE, _MAX_HEADERS = 1 << 16, 100
# RFC 9110 §15 renamed two phrases that this Python's HTTPStatus still has.
_PHRASES = {status.value: status.phrase for status in HTTPStatus} | {
    413: "Content Too Large", 414: "URI Too Long"}
_REQUEST_LINE = re.compile(r"(\S+)\s+(\S+)\s+HTTP/([0-9]{1,10})\.([0-9]{1,10})")


class _Refused(Exception):
    """``(status, reason)``: answer the request, then hang up."""


def _content_length(values: list[str]) -> int:
    """The body length.  Refused: copies that disagree or a value not
    plain decimal digits (400), and over ``MAX_BODY_BYTES`` (413, unread).
    Past leading zeros, one digit more than the limit's is read at most."""
    value, *others = set(values) or {"0"}
    if others or not (value.isascii() and value.isdigit()):
        raise _Refused(400, "invalid Content-Length")
    length = int(value.lstrip("0")[:len(str(MAX_BODY_BYTES)) + 1] or 0)
    if length > MAX_BODY_BYTES:
        raise _Refused(413, "request body too large")
    return length


class _Connection(socketserver.StreamRequestHandler):
    """One keep-alive connection: read a request, answer it, repeat."""

    def handle(self) -> None:
        self.connection.settimeout(IDLE_TIMEOUT_S)  # reap idle connections
        try:
            while self._exchange(self.server.prepared):
                pass
        except _Refused as exc:
            self._send(_error(*exc.args), True)
        except (EOFError, TimeoutError, ConnectionError):
            pass  # the peer left, or went quiet before a whole head

    def _line(self, too_long: int) -> str:
        line = self.rfile.readline(_MAX_LINE + 1)
        if len(line) > _MAX_LINE:
            raise _Refused(too_long, "line too long")
        if not line:
            raise EOFError
        return line.decode("latin-1").rstrip("\r\n")

    def _exchange(self, p: PreparedServer) -> bool:
        """Read one request and answer it; whether the connection stays."""
        self.method = None  # until the request line parses; no HEAD answer has a body
        line = self._line(414) or self._line(414)  # RFC 9112 §2.2: skip one CRLF
        request = _REQUEST_LINE.fullmatch(line.strip())
        major = int(request[3]) if request else 0
        if major > 1:
            raise _Refused(505, "HTTP version not supported")
        if major != 1:  # HTTP/0.9's two-word line too
            raise _Refused(400, "malformed request line")
        self.method, path, minor = request[1], request[2], int(request[4])
        headers = {}
        for _ in range(_MAX_HEADERS):
            if not (line := self._line(431)):
                break
            name, colon, value = line.partition(":")
            if not colon or name.split() != [name]:  # no colon, or a folded or spaced name
                raise _Refused(400, "malformed header line")
            headers.setdefault(name.lower(), []).append(value.strip())
        else:
            raise _Refused(431, "too many header lines")
        # RFC 9110 §7.6.1: a list of tokens, over every Connection line
        tokens = {t.strip().lower() for v in headers.get("connection", ()) for t in v.split(",")}
        close = "close" in tokens or (minor == 0 and "keep-alive" not in tokens)
        if "transfer-encoding" in headers:  # chunked bodies are not decoded: refuse unread
            raise _Refused(501, "Transfer-Encoding is not supported")
        length = _content_length(headers.get("content-length", []))
        if minor and headers.get("expect", [""])[0].lower() == "100-continue":
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        try:
            raw = self.rfile.read(length)
        except TimeoutError:
            raise _Refused(408, "request body timed out") from None
        if len(raw) < length:
            raise _Refused(400, "request body ended early")
        if path.startswith("//"):  # one leading slash, as the stdlib reads it
            path = "/" + path.lstrip("/")
        path = path.split("?", 1)[0]
        if self.method == "GET":
            resp = handle_get(p, path)
        elif self.method == "POST":
            try:
                resp = handle_post(p, path, raw.decode("utf-8"))
            except UnicodeDecodeError:
                resp = _error(400, "request body is not valid UTF-8")
        else:
            resp = _error(405, f"method {self.method} not supported")
        self._send(resp, close)
        return not close

    def _send(self, resp: HttpResponse, close: bool) -> None:
        data = resp.body.encode("utf-8")
        self.connection.sendall((
            f"HTTP/1.1 {resp.status} {_PHRASES[resp.status]}\r\n"
            f"Date: {self.server.date()}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
            + ("Connection: close\r\n" if close else "") + "\r\n").encode("ascii"))
        if self.method != "HEAD":
            self.connection.sendall(data)


class _Server(socketserver.ThreadingTCPServer):
    # An idle keep-alive connection must not pin server_close; no thread
    # needs joining, as every read-update-write runs inside the cell's lock.
    daemon_threads = allow_reuse_address = True
    block_on_close = False

    def __init__(self, p: PreparedServer):
        super().__init__(("127.0.0.1", p.config.port), _Connection)
        self.prepared = p
        self._stamp = (None, "")  # (second, its Date text)

    def date(self) -> str:
        """The ``Date`` header's IMF-fixdate, formatted once per second."""
        now = int(time.time())
        second, text = self._stamp
        if second != now:
            text = format_date_time(now)
            self._stamp = (now, text)
        return text


def serve(p: PreparedServer) -> None:
    """Serve until interrupted.  A diff is applied under the state lock
    or not at all, so shutdown never leaves state half-written."""
    with _Server(p) as httpd, suppress(KeyboardInterrupt):
        _log.info("listening on 127.0.0.1:%d", httpd.server_address[1])
        httpd.serve_forever()
    _log.info("shut down")


def serve_background(p: PreparedServer) -> _Server:
    """Start serving on a daemon thread; shut the result down with
    ``shutdown()`` then ``server_close()``.  For tests and demos."""
    httpd = _Server(p)
    # Poll often, so that shutdown() returns within ~50 ms.
    threading.Thread(target=httpd.serve_forever, args=(0.05,), daemon=True).start()
    return httpd
