import json
import random
import socket
import sys
from email.utils import formatdate
from http.client import HTTPResponse
from types import SimpleNamespace

import pytest

from conftest import counter, running
from lenserv import engine
from lenserv.containers import const_of, coproduct, keyed, pinned, tensor, unit_positions
from lenserv.deplens import DepLens
from lenserv.engine import (
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
    Inl,
    Inr,
    Int,
    IntS,
    List,
    ListS,
    LitS,
    Map,
    Nat,
    NatS,
    Pair,
    ProdS,
    SumS,
    Text,
    TextS,
    Unit,
    UnitS,
    encode_json,
)


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
        prepare(counter(), initial=Text("nope"))


def test_prepare_defaults_the_initial_state():
    p = prepare(counter())
    assert p.cell.snapshot() == Int(0)
    p2 = prepare(counter(), initial=Int(42))
    assert p2.cell.snapshot() == Int(42)


def test_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(port=0)
    with pytest.raises(ValueError):
        EngineConfig(port=70000)


# ------------------------------------------------------------ request handling


def test_get_and_post_happy_path():
    p = prepare(counter(), initial=Int(10))
    r = handle_get(p, "/peek")
    assert (r.status, r.body) == (200, "10")
    r = handle_post(p, "/add/3", "4")
    assert (r.status, r.body) == (200, "null")
    assert p.cell.snapshot() == Int(22)
    assert handle_get(p, "/peek").body == "22"


def test_unknown_route_is_404():
    p = prepare(counter())
    r = handle_get(p, "/nope")
    assert r.status == 404
    assert "error" in json.loads(r.body)
    assert handle_post(p, "/peek/extra", "1").status == 404


@pytest.mark.parametrize("path, status, body", [
    ("/t/%EF%BF%BD", 200, '"\ufffd"'),
    ("/t/%C3%BF", 200, '"\u00ff"'),
    ("/t/%FF", 404, None),     # an escape that is not UTF-8
    ("/t/\xff", 404, None),    # a raw 0xFF byte, as the engine reads it (Latin-1)
    ("/t/\xc3\xa9", 404, None),  # a raw UTF-8 "\u00e9", read the same way
])
def test_only_well_formed_paths_capture_text(path, status, body):
    p = prepare("t" / get_lens(TextS(), const_of(UnitS()), TextS(), lambda st, u: u))
    r = handle_get(p, path)
    assert r.status == status
    if body is not None:
        assert json.loads(r.body) == json.loads(body)


def test_handler_domain_error_is_400():
    def moody(st, u):
        raise HandlerError("not today")

    srv = get_lens(UnitS(), const_of(UnitS()), IntS(), moody)
    p = prepare(srv)
    r = handle_get(p, "/")
    assert r.status == 400
    assert json.loads(r.body) == {"error": "not today"}


def test_bad_body_is_400_and_leaves_state_alone():
    p = prepare(counter(), initial=Int(5))
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
    # ... nor does an Int whose payload is not an int
    lying = get_lens(UnitS(), const_of(UnitS()), IntS(), lambda st, u: Int("seven"))
    assert handle_get(prepare(lying), "/").status == 500

    # backward: handler writes a state of the wrong shape
    corrupting = post_lens(IntS(), const_of(IntS()), IntS(),
                           lambda st, n, body: Text("junk"))
    p = prepare(corrupting, initial=Int(1))
    assert handle_post(p, "/2", "3").status == 500
    assert p.cell.snapshot() == Int(1)  # the bad diff never landed

    # backward: a Bool state written with an int payload
    corrupting = post_lens(UnitS(), const_of(BoolS()), UnitS(), lambda st, u, body: Bool(1))
    p = prepare(corrupting)
    assert handle_post(p, "/", "null").status == 500
    assert p.cell.snapshot() == Bool(False)

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


def test_a_response_that_cannot_be_encoded_is_500_and_commits_nothing():
    big = Int(10 ** sys.get_int_max_str_digits())  # one digit too many to print
    widen = DepLens(const_of(IntS()), unit_positions(IntS()),
                    view=lambda x: x, update=lambda x, p: big)
    srv = widen << post_lens(IntS(), const_of(IntS()), IntS(), lambda st, u, b: b)
    p = prepare(srv, initial=Int(0))
    r = handle_post(p, "/5", "7")
    assert r.status == 500
    assert json.loads(r.body)["error"].startswith("response encoding failed: ")
    assert p.cell.snapshot() == Int(0)

    loud = get_lens(UnitS(), const_of(UnitS()), IntS(), lambda st, u: big)
    r = handle_get(prepare(loud), "/")
    assert r.status == 500
    assert json.loads(r.body)["error"].startswith("response encoding failed: ")


def lone_surrogates():
    """GET /t answers, POST /w writes, and GET /h refuses with, a text
    holding a lone surrogate, which UTF-8 cannot carry."""
    lone = Text("\ud800")

    def refuse(st, u):
        raise HandlerError(lone.s)

    return (("t" / get_lens(UnitS(), const_of(UnitS()), TextS(), lambda st, u: lone))
            + ("w" / post_lens(UnitS(), const_of(TextS()), UnitS(), lambda st, u, b: lone))
            + ("h" / get_lens(UnitS(), const_of(UnitS()), TextS(), refuse)))


def test_a_handler_made_lone_surrogate_is_500_and_commits_nothing():
    p = prepare(lone_surrogates())
    before = p.cell.snapshot()
    assert handle_get(p, "/t").status == 500
    assert handle_post(p, "/w", "null").status == 500
    assert p.cell.snapshot() == before
    r = handle_get(p, "/h")
    assert (r.status, json.loads(r.body)) == (400, {"error": "\ud800"})
    assert r.body.isascii()


def test_a_handler_made_lone_surrogate_gets_a_json_answer_over_a_socket():
    with running(lone_surrogates()) as (p, client):
        before = p.cell.snapshot()
        assert client.get("/t")[0] == 500
        assert client.post("/w", "null")[0] == 500
        status, body = client.get("/h")
        assert (status, json.loads(body)) == (400, {"error": "\ud800"})
        assert p.cell.snapshot() == before


@pytest.mark.parametrize("depth", [1, 4, 16])
def test_a_post_calls_its_handler_once_at_any_depth(depth):
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
    assert calls[0] == 1


def test_each_layer_of_a_lens_chain_runs_forward_once_per_request():
    b = Boundary(IntS(), IntS())
    runs = [0] * 16

    def counting(i):
        def view(x):
            runs[i] += 1
            return x
        return DepLens(b, b, view, lambda x, v: v)

    srv = state_server(const_of(IntS()))
    for i in range(16):
        srv = srv >> counting(i)
    p = prepare(srv, initial=Int(7))
    assert handle_get(p, "/").body == "7"
    assert runs == [1] * 16
    assert handle_post(p, "/", "9").status == 200
    assert runs == [2] * 16
    assert p.cell.snapshot() == Int(9)


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


_TODO = keyed(NatS(), ListS(TextS()))
_TODO_START = Map(((Nat(1), List((Text("x"),))),))


def test_keyed_state_commits_one_entry_per_post():
    p = prepare("s" / state_server(_TODO), initial=_TODO_START)
    assert handle_post(p, "/s", '{"R":[7,["a"]]}').status == 200
    assert handle_get(p, "/s").body == '[[1,["x"]],[7,["a"]]]'
    before = p.cell.snapshot()
    assert handle_post(p, "/s", '{"L":null}').status == 200
    assert p.cell.snapshot() is before
    for body in ('[[1,["y"]]]', '{"R":[-1,[]]}'):   # a whole Map; a negative key
        assert handle_post(p, "/s", body).status == 400
        assert p.cell.snapshot() is before


def test_keyed_post_lens_with_a_bad_entry_is_500_and_commits_nothing():
    bad = "add" / post_lens(NatS(), _TODO, TextS(),
                            lambda st, user, item: Inr(Pair(user, List((Int(1),)))))
    reader = "all" / get_lens(NatS(), _TODO, ListS(TextS()),
                              lambda st, user: List(()))
    p = prepare(bad & reader, initial=_TODO_START)
    resp = handle_post(p, "/add/1", '"y"')
    assert resp.status == 500
    assert "does not conform" in json.loads(resp.body)["error"]
    assert p.cell.snapshot() is _TODO_START
    # a POST to the read-only endpoint commits the diff that changes nothing
    assert handle_post(p, "/all/1", "null").status == 200
    assert p.cell.snapshot() is _TODO_START


def test_get_responses_drop_route_tags():
    p = prepare(counter(), initial=Int(9))
    # /peek goes through a choice, but the payload is plain
    assert handle_get(p, "/peek").body == "9"
    # under a typed capture too, which keeps its echoed value
    p = prepare(IntS() / counter(), initial=Int(9))
    assert handle_get(p, "/5/peek").body == "[5,9]"


_EITHER = SumS(IntS(), TextS())
_SUM_STATE = "s" / state_server(const_of(_EITHER))
_URI_SUM = SumS(ProdS(LitS("a"), UnitS()), ProdS(LitS("b"), UnitS()))
_XY = SumS(ProdS(LitS("x"), IntS()), ProdS(LitS("y"), IntS()))
# /x/<n> and /y/<n> both go to the left branch for odd n, the right for
# even n: the path names no choice of ``&``, so no tag is dropped.
_BY_PARITY = DepLens(pinned(_XY, UnitS()),
                     coproduct(unit_positions(IntS()), unit_positions(IntS())),
                     view=lambda v: (Inl if v.value.second.i % 2 else Inr)(v.value.second),
                     update=lambda v, p: p)
_ONE_TWO = _BY_PARITY << (get_lens(IntS(), const_of(UnitS()), IntS(), lambda st, n: Int(1))
                          & get_lens(IntS(), const_of(UnitS()), IntS(), lambda st, n: Int(2)))


@pytest.mark.parametrize("server, initial, path, body", [
    (_SUM_STATE, Inr(Text("hi")), "/s", '{"R":"hi"}'),
    (_SUM_STATE + ("n" / state_server(const_of(IntS()))),
     Pair(Inr(Text("hi")), Int(0)), "/s", '{"R":"hi"}'),
    (("n" / get_lens(UnitS(), const_of(_EITHER), IntS(), lambda st, u: Int(0)))
     & ("e" / get_lens(UnitS(), const_of(_EITHER), _EITHER, lambda st, u: st)),
     Inr(Text("hi")), "/e", '{"R":"hi"}'),
    # the request's sum is the handler's own uri type, not a choice
    ("k" / get_lens(_URI_SUM, const_of(IntS()), SumS(_URI_SUM, IntS()),
                    lambda st, x: Inl(x)),
     Int(0), "/k/a", '{"L":{"L":["a",null]}}'),
    (_ONE_TWO, Unit(), "/x/5", '{"L":1}'),
    (_ONE_TWO, Unit(), "/x/4", '{"R":2}'),
    (_ONE_TWO, Unit(), "/y/5", '{"L":1}'),
    (_ONE_TWO, Unit(), "/y/4", '{"R":2}'),
], ids=["alone", "under_ext_choice", "get_lens_under_clone_choice",
        "handler_uri_sum", "adapter_x_odd", "adapter_x_even", "adapter_y_odd",
        "adapter_y_even"])
def test_get_keeps_the_tags_of_a_sum_payload(server, initial, path, body):
    # Only the tags of the choices the path went through are dropped.
    p = prepare(server, initial=initial)
    assert handle_get(p, path).body == body


def test_post_to_a_read_only_route_answers_unit():
    p = prepare(counter(), initial=Int(3))
    r = handle_post(p, "/peek", "null")
    assert (r.status, r.body) == (200, "null")
    assert p.cell.snapshot() == Int(3)


def test_get_never_changes_state():
    p = prepare(counter(), initial=Int(12))
    before = encode_json(p.cell.snapshot())
    for path in ("/peek", "/add/3", "/nope", "/peek/"):
        handle_get(p, path)
    assert encode_json(p.cell.snapshot()) == before


def test_mixed_requests_derive_no_new_schema_after_warm_up(monkeypatch):
    from lenserv import routing, values
    from lenserv.demos import build_combined

    p = prepare(build_combined())
    paths = ["/todo/all/{n}", "/todo/add/{n}", "/calculator/{op}/{n}/{i}", "/iot/boiler",
             "/iot/lights/1", "/iot/lights/2", "/nope/{n}"]
    bodies = [None, "null", "true", '"item"', "[1]", "{"]
    rng = random.Random(9)

    def send(path, body):
        path = path.format(n=rng.randint(0, 30), i=rng.randint(-5, 5),
                           op=rng.choice(["add", "sub", "mul", "div"]))
        resp = handle_get(p, path) if body is None else handle_post(p, path, body)
        assert resp.status in (200, 400, 404), (path, body, resp)

    def derivations():
        return values._derive.cache_info().misses, routing.parser_for.cache_info().misses

    for path in paths:
        for body in bodies:
            send(path, body)
    before = derivations()
    for _ in range(2000):
        send(rng.choice(paths), rng.choice(bodies))
    assert derivations() == before

    # Nor is any schema hashed: each request meets the schemas its
    # containers keep, and the derivations kept on them.
    hashed = []
    for cls in values.Schema.__subclasses__():
        def counted(s, hash=cls.__hash__):
            hashed.append(s)
            return hash(s)
        monkeypatch.setattr(cls, "__hash__", counted)
    for _ in range(2000):
        send(rng.choice(paths), rng.choice(bodies))
    assert hashed == []


# Each status the engine sends, the request that draws it, and its RFC
# 9110 reason phrase (431 is RFC 6585's).
STATUS_LINES = [
    (200, b"GET /peek HTTP/1.1\r\n\r\n", "OK"),
    (400, b"GARBAGE\r\n\r\n", "Bad Request"),
    (404, b"GET /missing HTTP/1.1\r\n\r\n", "Not Found"),
    (405, b"PUT /peek HTTP/1.1\r\n\r\n", "Method Not Allowed"),
    (408, b"POST /add/1 HTTP/1.1\r\nContent-Length: 5\r\n\r\n4", "Request Timeout"),
    (413, b"POST /add/1 HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n", "Content Too Large"),
    (414, b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", "URI Too Long"),
    (431, b"GET /peek HTTP/1.1\r\n" + b"X: 1\r\n" * 100 + b"\r\n",
     "Request Header Fields Too Large"),
    (500, b"GET /broken HTTP/1.1\r\n\r\n", "Internal Server Error"),
    (501, b"POST /add/1 HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", "Not Implemented"),
    (505, b"GET /peek HTTP/2.0\r\n\r\n", "HTTP Version Not Supported"),
]


def test_every_status_line_has_its_reason_phrase_and_a_date_that_follows_the_clock(
        monkeypatch):
    now = [1_700_000_000.75]  # Tue, 14 Nov 2023 22:13:20.75 GMT
    monkeypatch.setattr(engine, "time", SimpleNamespace(time=lambda: now[0]))
    monkeypatch.setattr(engine, "IDLE_TIMEOUT_S", 0.2)
    broken = "broken" / get_lens(UnitS(), const_of(IntS()), IntS(), lambda st, u: Text("x"))
    dates = set()
    with running(counter() & broken) as (p, _):
        for status, request, phrase in STATUS_LINES:
            with socket.create_connection(("127.0.0.1", p.config.port), timeout=5) as s:
                s.sendall(request)
                r = HTTPResponse(s)
                r.begin()
            assert (r.status, r.reason) == (status, phrase)
            assert r.getheader("Date") == formatdate(int(now[0]), usegmt=True)
            dates.add(r.getheader("Date"))
            now[0] += 0.25
    assert len(dates) == 4  # the clock ran from second 0.75 to 3.25: four Dates
