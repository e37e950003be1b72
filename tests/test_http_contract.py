"""The README's HTTP contract as one table of raw exchanges, each sent
to a fresh engine serving ``conftest.counter`` from state 7: once in one
``sendall``, and once more cut into pieces with a pause between them.  A
server that hangs up on its own says ``Connection: close`` and sends
nothing more; a kept connection stays open and quiet.  No row may leave
an exception unanswered in a handler thread."""

import io
import json
import random
import re
import socket
import sys
import time
from http.client import HTTPResponse
from typing import NamedTuple

import pytest

from conftest import counter, free_port
from lenserv import engine
from lenserv.engine import MAX_BODY_BYTES, EngineConfig, prepare, serve_background
from lenserv.values import Int

ERROR = object()  # any {"error": "<text>"} body
LENGTH = b"Content-Length: %d\r\n"


class Row(NamedTuple):
    id: str
    request: bytes
    answers: list  # (status, exact body or ERROR) per answer
    closes: bool = False
    unchanged: bool = True
    half_close: bool = False
    then: bytes = b""  # sent only once the interim "100 Continue" has been read


def req(start: bytes, head: bytes = b"", body: bytes = b"") -> bytes:
    """``start`` is the method and path; ``head`` holds header lines."""
    return start + b" HTTP/1.1\r\nHost: t\r\n" + head + b"\r\n" + body


def post(path: bytes, body: bytes, head: bytes = b"") -> bytes:
    return req(b"POST " + path, head + LENGTH % len(body), body)


PEEK = req(b"GET /peek")
SMUGGLED = post(b"/add/1", b"9")  # moves the state if read as a request
SMUGGLED_LENGTH = LENGTH % len(SMUGGLED)
CHUNKED, CHUNKS = b"Transfer-Encoding: chunked\r\n", b"1\r\n5\r\n0\r\n\r\n"
SHORT_BODY = req(b"POST /add/1", LENGTH % 5, b"4")
LINE = b"GET /%s HTTP/1.1\r\n"  # a request line of len(path) + 16 bytes
BIG = b"X-Big: %s\r\n"  # a header line of len(value) + 9 bytes

ROWS = [
    Row("keep_alive", PEEK + post(b"/add/2", b"5") + PEEK,
        [(200, "7"), (200, "null"), (200, "17")], unchanged=False),
    Row("pipelined_in_order", req(b"GET /missing") + req(b"PUT /peek") + post(b"/add/1", b"3")
        + PEEK, [(404, ERROR), (405, ERROR), (200, "null"), (200, "10")], unchanged=False),
    Row("trailing_slash", req(b"GET /peek/"), [(200, "7")]),
    Row("query_string", req(b"GET /peek?verbose=1"), [(200, "7")]),
    Row("trailing_slash_and_query", req(b"GET /peek/?a=b&c=d"), [(200, "7")]),
    Row("no_route_404", req(b"GET /missing"), [(404, ERROR)]),
    *(Row(m.lower() + "_405", req(m.encode() + b" /peek"), [(405, ERROR)])
      for m in ("PUT", "DELETE", "PATCH", "OPTIONS")),
    Row("head_405_no_body", req(b"HEAD /peek"), [(405, "")]),
    Row("get_with_a_body", req(b"GET /peek", LENGTH % 7, b"[1,2,3]"), [(200, "7")]),
    Row("bad_utf8_body", post(b"/add/1", b"\xff\xfe"), [(400, ERROR)]),
    Row("lone_surrogate_text", post(b"/tally", b'"\\ud800"') + PEEK, [(400, ERROR), (200, "7")]),
    Row("raw_bad_utf8_path", req(b"GET /peek\xff"), [(404, ERROR)]),
    Row("int_capture_over_the_digit_limit", req(b"GET /add/" + b"9" * 5000) + PEEK,
        [(404, ERROR), (200, "7")]),
    Row("deeply_nested_body", post(b"/add/1", b"[" * 100000) + PEEK,
        [(400, ERROR), (200, "7")]),
    Row("percent_bad_utf8_path", req(b"GET /peek%FF"), [(404, ERROR)]),
    Row("body_at_limit", post(b"/add/1", b" " * (MAX_BODY_BYTES - 1) + b"7") + PEEK,
        [(200, "null"), (200, "14")], unchanged=False),
    Row("body_over_limit_413", req(b"POST /add/1", LENGTH % (MAX_BODY_BYTES + 1)),
        [(413, ERROR)], closes=True),
    *(Row("content_length_" + name, req(b"POST /add/1", b"Content-Length: %s\r\n" % v) + PEEK,
          [(400, ERROR)], closes=True)
      for name, v in [("negative", b"-1"), ("non_integer", b"abc"), ("underscored", b"1_0"),
                      ("conflicting", b"1\r\nContent-Length: 2")]),
    Row("content_length_over_the_digit_limit",
        req(b"POST /add/1", b"Content-Length: %s\r\n" % (b"1" * 5000)), [(413, ERROR)],
        closes=True),
    Row("content_length_leading_zeros",
        req(b"POST /add/1", b"Content-Length: %s5\r\n" % (b"0" * 5000), b"    3") + PEEK,
        [(200, "null"), (200, "10")], unchanged=False),
    *(Row(name, req(b"POST /add/1", head + CHUNKED, CHUNKS), [(501, ERROR)], closes=True)
      for name, head in [("chunked", b""), ("chunked_with_length", b"Content-Length: 1\r\n")]),
    Row("bad_request_line", b"GARBAGE\r\n\r\n", [(400, ERROR)], closes=True),
    Row("bad_version", b"GET /peek HTTP/2.0\r\n\r\n", [(505, ERROR)], closes=True),
    Row("oversized_header", req(b"GET /peek", BIG % (b"a" * 70000)), [(431, ERROR)], closes=True),
    Row("header_line_at_limit", req(b"GET /peek", BIG % (b"a" * 65527)), [(200, "7")]),
    Row("header_line_over_limit", req(b"GET /peek", BIG % (b"a" * 65528)), [(431, ERROR)],
        closes=True),
    Row("too_many_headers", req(b"GET /peek", b"X: 1\r\n" * 100), [(431, ERROR)], closes=True),
    Row("request_line_at_limit", LINE % (b"a" * 65520) + b"\r\n", [(404, ERROR)]),
    Row("request_line_over_limit", LINE % (b"a" * 65521), [(414, ERROR)], closes=True),
    Row("no_colon_then_chunked", req(b"POST /add/1", b"nocolon\r\n" + CHUNKED, CHUNKS),
        [(400, ERROR)], closes=True),
    *(Row(name, req(b"POST /add/1", head) + SMUGGLED, [(400, ERROR)], closes=True)
      for name, head in [("no_colon_header", b"nocolon\r\n" + SMUGGLED_LENGTH),
                         ("space_before_colon", SMUGGLED_LENGTH.replace(b":", b" :")),
                         ("obs_fold", b"X-Note: 1\r\n " + SMUGGLED_LENGTH)]),
    Row("continuation_first", b"POST /add/1 HTTP/1.1\r\n " + SMUGGLED_LENGTH
        + b"Host: t\r\n\r\n" + SMUGGLED, [(400, ERROR)], closes=True),
    Row("half_close_after_request", post(b"/add/1", b"2") + PEEK,
        [(200, "null"), (200, "9")], unchanged=False, half_close=True),
    Row("half_close_mid_body", SHORT_BODY, [(400, ERROR)], closes=True, half_close=True),
    Row("stalled_body", SHORT_BODY, [(408, ERROR)], closes=True),
    Row("half_sent_header", b"GET /peek HTTP/1.1\r\nHost: te", [], closes=True),
    Row("http_1_0", b"GET /peek HTTP/1.0\r\n\r\n" + PEEK, [(200, "7")], closes=True),
    Row("connection_close", req(b"GET /peek", b"Connection: close\r\n") + PEEK, [(200, "7")],
        closes=True),
    Row("expect_100_continue", post(b"/add/1", b"2", b"Expect: 100-continue\r\n") + PEEK,
        [(200, "null"), (200, "9")], unchanged=False),
    Row("http_0_9_request_line", b"GET /peek\r\n\r\n", [(400, ERROR)], closes=True),
    Row("lowercase_content_length", req(b"POST /add/1", b"content-length: 1\r\n", b"3") + PEEK,
        [(200, "null"), (200, "10")], unchanged=False),
    Row("lf_line_ends", b"POST /add/1 HTTP/1.1\nHost: t\nContent-Length: 1\n\n3"
        + b"GET /peek HTTP/1.1\nHost: t\n\n", [(200, "null"), (200, "10")], unchanged=False),
    Row("leading_double_slash", req(b"GET //peek"), [(200, "7")]),
    Row("http_1_0_keep_alive", b"GET /peek HTTP/1.0\r\nConnection: keep-alive\r\n\r\n" + PEEK,
        [(200, "7"), (200, "7")]),
    Row("expect_100_continue_waits", req(b"POST /add/1", b"Expect: 100-continue\r\n" + LENGTH % 1),
        [(200, "null"), (200, "9")], unchanged=False, then=b"2" + PEEK),
    Row("crlf_before_request_line", b"\r\n" + PEEK, [(200, "7")]),
    Row("refused_mid_pipeline", PEEK + req(b"POST /add/1", b"Content-Length: abc\r\n")
        + SMUGGLED + PEEK, [(200, "7"), (400, ERROR)], closes=True),
    Row("head_refused_no_body", req(b"HEAD /peek", b"Content-Length: abc\r\n"), [(400, "")],
        closes=True),
    Row("connection_list_with_close", req(b"GET /peek", b"Connection: keep-alive, close\r\n")
        + PEEK, [(200, "7")], closes=True),
    Row("http_1_0_keep_alive_in_a_list",
        b"GET /peek HTTP/1.0\r\nConnection: Keep-Alive, x\r\n\r\n" + PEEK, [(200, "7"), (200, "7")]),
    Row("absolute_form", req(b"GET http://t/peek?x=1"), [(200, "7")]),
    Row("absolute_form_upper_scheme", req(b"GET HTTP://t:80/peek"), [(200, "7")]),
]

# Rows that wait out IDLE_TIMEOUT_S; they run whole only.
TIMED = {"stalled_body", "half_sent_header"}
PAUSE_S = 0.005


class _Answers(io.BufferedReader):
    """One buffer for all the answers on a socket, which no HTTPResponse may close."""

    def makefile(self, mode):
        return self

    def close(self):
        pass


@pytest.fixture
def served(monkeypatch):
    monkeypatch.setattr(engine, "IDLE_TIMEOUT_S", 1)
    p = prepare(counter(), EngineConfig(port=free_port()), initial=Int(7))
    httpd = serve_background(p)
    errors = []  # exceptions that escaped a handler and dropped its connection

    def handle_error(request, client_address, report=httpd.handle_error):
        errors.append(sys.exc_info()[1])
        report(request, client_address)

    httpd.handle_error = handle_error
    yield p, errors
    httpd.shutdown()
    httpd.server_close()


def pieces(data: bytes, seed: str) -> list[bytes]:
    """``data`` cut inside its request line, between the line ends that
    end its first head, inside that head's body (or just after the head,
    when the body is shorter than two bytes), and at two seeded points."""
    rng = random.Random(seed)
    points = {rng.randrange(1, len(data)) for _ in range(2)}
    points.add(rng.randrange(1, max(data.find(b"\n"), 2)))
    head = re.search(rb"\n\r?\n", data)
    if head:
        length = re.search(rb"(?i)\ncontent-length: *(\d{1,7})\r?\n", data[:head.end()])
        body = int(length[1]) if length else 0
        points |= {head.start() + 1, head.end() + (rng.randrange(1, body) if body > 1 else 0)}
    cuts = [0, *sorted(p for p in points if 0 < p < len(data)), len(data)]
    return [data[a:b] for a, b in zip(cuts, cuts[1:])]


def send(s: socket.socket, data: bytes, seed: str | None) -> None:
    """Send ``data`` whole, or in pieces when there is a seed.  A server
    that has hung up may refuse the pieces after its answer; the row's
    own checks then say whether it should have."""
    for i, piece in enumerate(pieces(data, seed) if seed else [data]):
        if i:
            time.sleep(PAUSE_S)
        try:
            s.sendall(piece)
        except (BrokenPipeError, ConnectionResetError):
            if seed is None:
                raise
            return


def rest(answers: _Answers, seed: str | None) -> bytes:
    try:
        return answers.read()
    except ConnectionResetError:
        if seed is None:
            raise
        return b""  # the server hung up while pieces were still arriving


def exchange(served, row: Row, seed: str | None = None) -> None:
    p, errors = served
    before = p.cell.snapshot()
    with socket.create_connection(("127.0.0.1", p.config.port), timeout=5) as s:
        s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # each piece leaves at once
        answers = _Answers(socket.SocketIO(s, "rb"))
        send(s, row.request, seed)
        if row.then:
            assert answers.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert answers.readline() == b"\r\n"
            send(s, row.then, seed)
        if row.half_close:
            s.shutdown(socket.SHUT_WR)
        for status, body in row.answers:
            r = HTTPResponse(answers, method=row.request.split(b" ", 1)[0].decode())
            r.begin()
            got = r.read().decode("utf-8")
            assert (r.status, r.getheader("Content-Type")) == (status, "application/json")
            if body is ERROR:
                (key, text), = json.loads(got).items()
                assert key == "error" and isinstance(text, str)
            else:
                assert got == body
        if row.answers:
            assert (r.getheader("Connection") == "close") == row.closes
        if row.closes or row.half_close:
            assert rest(answers, seed) == b""  # hung up, with nothing more
        else:
            s.settimeout(0.05)
            with pytest.raises(TimeoutError):  # open, and nothing more
                answers.read1(1)
    assert (p.cell.snapshot() == before) == row.unchanged
    assert errors == []


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_contract(served, row):
    exchange(served, row)


SPLIT = [row for row in ROWS if row.id not in TIMED]


@pytest.mark.parametrize("row", SPLIT, ids=[row.id for row in SPLIT])
def test_contract_in_pieces(served, row):
    exchange(served, row, seed=row.id)
