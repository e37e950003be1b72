import json
import socket

import pytest

from conftest import free_port, running
from lenserv.containers import const_of, pinned, tensor
from lenserv.deplens import DepLens
from lenserv.engine import (
    MAX_BODY_BYTES,
    EngineConfig,
    PrepareError,
    handle_get,
    handle_post,
    prepare,
)
from lenserv.lens import Boundary, fst_lens, identity, snd_lens
from lenserv.servers import (
    HandlerError,
    Server,
    get_lens,
    post_lens,
    reparam_server,
    state_server,
)
from lenserv.values import (
    Bool,
    BoolS,
    Inr,
    Int,
    IntS,
    List,
    ListS,
    Map,
    NatS,
    Pair,
    ProdS,
    SumS,
    Text,
    TextS,
    UnitS,
    encode_json,
)


def _counter():
    c = const_of(IntS())
    read = get_lens(UnitS(), c, IntS(), lambda st, u: st)
    add = post_lens(IntS(), c, IntS(), lambda st, n, body: Int(st.i + n.i * body.i))
    return ("peek" / read) & ("add" / add)


# ------------------------------------------------------------------- prepare


def test_prepare_rejects_unroutable_request_schema():
    srv = get_lens(ListS(IntS()), const_of(UnitS()), IntS(), lambda st, xs: Int(0))
    with pytest.raises(PrepareError):
        prepare(srv)


def test_prepare_rejects_underivable_state():
    base = state_server(const_of(TextS()))
    skew = DepLens(
        pinned(IntS(), TextS()),
        const_of(TextS()),
        view=lambda v: Text(str(v.i)),
        update=lambda v, p: p,
    )
    srv = reparam_server(base, skew)
    with pytest.raises(PrepareError):
        prepare(srv)


def test_prepare_rejects_nonconforming_initial_state():
    with pytest.raises(PrepareError):
        prepare(_counter(), initial=Text("nope"))


def test_prepare_defaults_the_initial_state():
    p = prepare(_counter())
    assert p.cell.snapshot() == Int(0)
    p2 = prepare(_counter(), initial=Int(42))
    assert p2.cell.snapshot() == Int(42)


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(port=0)
    with pytest.raises(ValueError):
        EngineConfig(port=70000)


# ------------------------------------------------------------ request handling


def test_get_and_post_happy_path():
    p = prepare(_counter(), initial=Int(10))
    r = handle_get(p, "/peek")
    assert (r.status, r.body) == (200, "10")
    r = handle_post(p, "/add/3", "4")
    assert (r.status, r.body) == (200, "null")
    assert p.cell.snapshot() == Int(22)
    assert handle_get(p, "/peek").body == "22"


def test_unknown_route_is_404():
    p = prepare(_counter())
    r = handle_get(p, "/nope")
    assert r.status == 404
    assert "error" in json.loads(r.body)
    assert handle_post(p, "/peek/extra", "1").status == 404


def test_handler_domain_error_is_400():
    def moody(st, u):
        raise HandlerError("not today")

    srv = get_lens(UnitS(), const_of(UnitS()), IntS(), moody)
    p = prepare(srv)
    r = handle_get(p, "/")
    assert r.status == 400
    assert json.loads(r.body) == {"error": "not today"}


def test_bad_body_is_400_and_leaves_state_alone():
    p = prepare(_counter(), initial=Int(5))
    for body in ("true", '"x"', "[1,2]", "not json", "1.5", ""):
        r = handle_post(p, "/add/3", body)
        assert r.status == 400, body
    assert p.cell.snapshot() == Int(5)


def test_handler_crash_is_500():
    def broken(st, u):
        raise RuntimeError("library bug")

    srv = get_lens(UnitS(), const_of(UnitS()), IntS(), broken)
    p = prepare(srv)
    assert handle_get(p, "/").status == 500

    def broken_writer(st, n, body):
        raise ZeroDivisionError

    wsrv = post_lens(IntS(), const_of(IntS()), IntS(), broken_writer)
    wp = prepare(wsrv)
    assert handle_post(wp, "/3", "1").status == 500


def test_contract_breakage_is_500():
    # forward: handler output does not conform to the response schema
    lying = get_lens(UnitS(), const_of(UnitS()), IntS(), lambda st, u: Text("x"))
    assert handle_get(prepare(lying), "/").status == 500

    # backward: handler writes a state of the wrong shape
    corrupting = post_lens(IntS(), const_of(IntS()), IntS(),
                           lambda st, n, body: Text("junk"))
    p = prepare(corrupting, initial=Int(1))
    assert handle_post(p, "/2", "3").status == 500
    assert p.cell.snapshot() == Int(1)  # the bad diff never landed

    # backward: a well-formed diff paired with a response that does not
    # conform to the request's response position; the diff must not land
    left, store = pinned(UnitS(), IntS()), const_of(IntS())
    misanswering = Server(left, store, store, DepLens(
        tensor(left, store), store,
        view=lambda v: v.second,
        update=lambda v, r: Pair(Text("not an int"), r),
    ))
    p = prepare(misanswering, initial=Int(0))
    assert handle_post(p, "/", "5").status == 500
    assert p.cell.snapshot() == Int(0)


@pytest.mark.parametrize("depth", [1, 4, 16])
def test_post_handler_calls_stay_within_one_per_lens_layer(depth):
    calls = [0]

    def read(st, u):
        calls[0] += 1
        return st

    srv = get_lens(UnitS(), const_of(IntS()), IntS(), read)
    for _ in range(depth):
        srv = srv >> identity(Boundary(IntS(), UnitS()))
    p = prepare(srv, initial=Int(7))
    assert handle_post(p, "/", "null").status == 200
    assert p.cell.snapshot() == Int(7)
    assert calls[0] <= depth + 1


def test_state_focused_through_a_parallel_lens_serves():
    # The lens's source is a tensor of pinned containers, the state a
    # pinned product: the same container, built two ways.
    a, b = ProdS(IntS(), BoolS()), ProdS(TextS(), IntS())
    srv = "pair" / (state_server(const_of(ProdS(a, b))) >> (fst_lens(a) * snd_lens(b)))
    start = Pair(Pair(Int(1), Bool(True)), Pair(Text("keep"), Int(2)))
    p = prepare(srv, initial=start)
    got = handle_get(p, "/pair")
    assert (got.status, got.body) == (200, "[1,2]")
    assert handle_post(p, "/pair", "[5,6]").status == 200
    assert p.cell.snapshot() == Pair(Pair(Int(5), Bool(True)), Pair(Text("keep"), Int(6)))
    assert handle_get(p, "/pair").body == "[5,6]"
    assert handle_post(p, "/pair", '[5,"x"]').status == 400
    assert p.cell.snapshot() == Pair(Pair(Int(5), Bool(True)), Pair(Text("keep"), Int(6)))


def test_get_responses_drop_route_tags():
    p = prepare(_counter(), initial=Int(9))
    # /peek goes through a choice, but the payload is plain
    assert handle_get(p, "/peek").body == "9"


_EITHER = SumS(IntS(), TextS())
_SUM_STATE = "s" / state_server(const_of(_EITHER))


@pytest.mark.parametrize("server, initial, path", [
    (_SUM_STATE, Inr(Text("hi")), "/s"),
    (_SUM_STATE + ("n" / state_server(const_of(IntS()))),
     Pair(Inr(Text("hi")), Int(0)), "/s"),
    (("n" / get_lens(UnitS(), const_of(_EITHER), IntS(), lambda st, u: Int(0)))
     & ("e" / get_lens(UnitS(), const_of(_EITHER), _EITHER, lambda st, u: st)),
     Inr(Text("hi")), "/e"),
], ids=["alone", "under_ext_choice", "get_lens_under_clone_choice"])
def test_get_keeps_the_tags_of_a_sum_payload(server, initial, path):
    # Only the tags of the choices the path went through are dropped.
    p = prepare(server, initial=initial)
    assert handle_get(p, path).body == '{"R":"hi"}'


def test_post_to_a_read_only_route_answers_unit():
    p = prepare(_counter(), initial=Int(3))
    r = handle_post(p, "/peek", "null")
    assert (r.status, r.body) == (200, "null")
    assert p.cell.snapshot() == Int(3)


def test_get_never_changes_state():
    p = prepare(_counter(), initial=Int(12))
    before = encode_json(p.cell.snapshot())
    for path in ("/peek", "/add/3", "/nope", "/peek/"):
        handle_get(p, path)
    assert encode_json(p.cell.snapshot()) == before


# ------------------------------------------------------------------- sockets


def test_http_roundtrip_and_keep_alive():
    with running(_counter(), initial=Int(100)) as (p, client):
        # two requests on one connection
        assert client.get("/peek") == (200, "100")
        assert client.post("/add/2", "5") == (200, "null")
        assert client.get("/peek") == (200, "110")


def test_http_trailing_slash_and_query_strings():
    with running(_counter(), initial=Int(7)) as (p, client):
        assert client.get("/peek/") == (200, "7")
        assert client.get("/peek?verbose=1") == (200, "7")
        assert client.get("/peek/?a=b&c=d") == (200, "7")


def test_http_404_and_405():
    with running(_counter()) as (p, client):
        status, body = client.get("/missing")
        assert status == 404
        for method in ("PUT", "DELETE", "PATCH", "OPTIONS"):
            status, body = client.request(method, "/peek")
            assert status == 405, method
            assert "error" in json.loads(body)
        status, body = client.request("HEAD", "/peek")
        assert status == 405
        assert body == ""  # HEAD answers carry no body


def test_http_get_with_a_body_ignores_it():
    with running(_counter(), initial=Int(1)) as (p, client):
        status, body = client.request("GET", "/peek", body="[1,2,3]")
        assert (status, body) == (200, "1")


def test_http_bad_utf8_body_is_400():
    with running(_counter()) as (p, client):
        client.conn.request("POST", "/add/1", body=b"\xff\xfe")
        r = client.conn.getresponse()
        assert r.status == 400
        r.read()


def test_http_oversized_body_is_413():
    srv = _counter()
    port = free_port()
    cfg = EngineConfig(port=port)
    from lenserv.engine import serve_background

    p = prepare(srv, cfg)
    httpd = serve_background(p)
    try:
        # Announce one byte over the limit and send none of it; the
        # engine must refuse from the headers alone.
        with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
            s.sendall(
                b"POST /add/1 HTTP/1.1\r\n"
                b"Host: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n"
                b"\r\n" % (MAX_BODY_BYTES + 1)
            )
            s.settimeout(10)
            head = s.recv(4096).decode("utf-8", "replace")
        assert "413" in head.split("\r\n")[0]
    finally:
        httpd.shutdown()
        httpd.server_close()


def test_http_body_within_limit_is_served():
    srv = _counter()
    cfg = EngineConfig(port=free_port())
    from lenserv.engine import serve_background

    p = prepare(srv, cfg)
    httpd = serve_background(p)
    try:
        from conftest import Client

        c = Client(cfg.port)
        body = " " * (MAX_BODY_BYTES - 1) + "7"   # JSON allows leading spaces
        assert c.post("/add/1", body) == (200, "null")
        c.close()
    finally:
        httpd.shutdown()
        httpd.server_close()


def _exchange(port: int, request: bytes) -> bytes:
    """Send raw bytes and read until the server hangs up.  A short
    timeout turns a worker stuck on the request into a test failure."""
    with socket.create_connection(("127.0.0.1", port), timeout=3) as s:
        s.sendall(request)
        out = b""
        while chunk := s.recv(4096):
            out += chunk
    return out


def _json_error(response: bytes, status: int) -> dict:
    head, _, body = response.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0].split()[1] == str(status), response
    assert "content-type: application/json" in (line.lower() for line in lines)
    assert "connection: close" in (line.lower() for line in lines)
    return json.loads(body)


@pytest.mark.parametrize("length_headers", [
    b"Content-Length: -1\r\n",
    b"Content-Length: abc\r\n",
    b"Content-Length: 1_0\r\n",
    b"Content-Length: 1\r\nContent-Length: 2\r\n",
], ids=["negative", "non_integer", "underscored", "conflicting"])
def test_http_bad_content_length_is_400_and_closes(length_headers):
    # The bytes after the headers would parse as a second request; a
    # server that guessed the body length would answer it too.
    with running(_counter(), initial=Int(1)) as (p, client):
        response = _exchange(
            p.config.port,
            b"POST /add/1 HTTP/1.1\r\nHost: test\r\n" + length_headers + b"\r\n"
            b"GET /peek HTTP/1.1\r\nHost: test\r\n\r\n")
        assert "error" in _json_error(response, 400)
        assert response.count(b"HTTP/1.1 ") == 1
        assert p.cell.snapshot() == Int(1)


@pytest.mark.parametrize("request_bytes,status", [
    (b"GARBAGE\r\n\r\n", 400),
    (b"GET /peek HTTP/2.0\r\n\r\n", 505),
    (b"GET /peek HTTP/1.1\r\nX-Big: " + b"a" * 70000 + b"\r\n\r\n", 431),
], ids=["bad_request_line", "bad_version", "oversized_header"])
def test_http_stdlib_framing_errors_answer_json(request_bytes, status):
    with running(_counter()) as (p, client):
        response = _exchange(p.config.port, request_bytes)
        assert b"<!DOCTYPE" not in response
        assert "error" in _json_error(response, status)


@pytest.mark.parametrize("length_header", [b"", b"Content-Length: 1\r\n"],
                         ids=["chunked", "chunked_with_length"])
def test_http_transfer_encoding_is_501_and_closes(length_header):
    # Read as raw bytes, the chunk lines would parse as a second request.
    with running(_counter(), initial=Int(1)) as (p, client):
        response = _exchange(
            p.config.port,
            b"POST /add/1 HTTP/1.1\r\nHost: test\r\n" + length_header
            + b"Transfer-Encoding: chunked\r\n\r\n1\r\n5\r\n0\r\n\r\n")
        assert "error" in _json_error(response, 501)
        assert response.count(b"HTTP/1.1 ") == 1
        assert p.cell.snapshot() == Int(1)
