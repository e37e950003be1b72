import random
import re

import pytest

from generators import random_server, route_like, route_value
from lenserv.routing import (
    NotRoutable,
    alt_parser,
    describe_routes,
    parse_uri,
    parser_for,
    render_uri,
    seq_parser,
    split_path,
)
from lenserv.values import (
    Bool,
    BoolS,
    Inl,
    Inr,
    Int,
    IntS,
    ListS,
    LitS,
    MapS,
    Nat,
    NatS,
    Pair,
    ProdS,
    SumS,
    Text,
    TextS,
    Unit,
    UnitS,
    conforms,
)


USER_NAME = ProdS(LitS("user"), ProdS(IntS(), LitS("name")))


def test_parse_literal_and_capture_path():
    got = parse_uri(USER_NAME, "/user/3/name")
    assert got == Pair(Text("user"), Pair(Int(3), Text("name")))


def test_parse_rejects_wrong_shape():
    assert parse_uri(USER_NAME, "/user/book") is None
    assert parse_uri(USER_NAME, "/user/3") is None
    assert parse_uri(USER_NAME, "/user/3/name/extra") is None
    assert parse_uri(USER_NAME, "/user/x/name") is None
    assert parse_uri(USER_NAME, "user/3/name") is None  # no leading slash


def test_parse_sum_takes_the_matching_branch():
    s = SumS(LitS("add"), LitS("sub"))
    assert parse_uri(s, "/sub") == Inr(Text("sub"))
    assert parse_uri(s, "/add") == Inl(Text("add"))
    assert parse_uri(s, "/mul") is None


def test_alternatives_are_left_biased():
    # Text also matches "x", so the left branch wins.
    s = SumS(TextS(), LitS("x"))
    assert parse_uri(s, "/x") == Inl(Text("x"))
    # With the literal first, it wins instead.
    s2 = SumS(LitS("x"), TextS())
    assert parse_uri(s2, "/x") == Inl(Text("x"))
    assert parse_uri(s2, "/y") == Inr(Text("y"))


def test_segment_lexing():
    assert parse_uri(IntS(), "/-17") == Int(-17)
    assert parse_uri(IntS(), "/17") == Int(17)
    assert parse_uri(IntS(), "/1.5") is None
    assert parse_uri(NatS(), "/17") == Nat(17)
    assert parse_uri(NatS(), "/-17") is None
    assert parse_uri(BoolS(), "/true") == Bool(True)
    assert parse_uri(BoolS(), "/false") == Bool(False)
    assert parse_uri(BoolS(), "/True") is None
    assert parse_uri(TextS(), "/hello") == Text("hello")
    assert parse_uri(UnitS(), "/") == Unit()
    assert parse_uri(UnitS(), "/anything") is None


def test_trailing_slash_and_percent_decoding():
    assert parse_uri(USER_NAME, "/user/3/name/") == Pair(
        Text("user"), Pair(Int(3), Text("name"))
    )
    assert parse_uri(TextS(), "/a%20b") == Text("a b")
    assert parse_uri(TextS(), "/caf%C3%A9") == Text("café")
    # a percent-encoded slash is one segment, not a separator
    assert parse_uri(TextS(), "/a%2Fb") == Text("a/b")


def test_split_path_refuses_what_it_cannot_decode_exactly():
    # Decoding these would give the same text as some other path:
    # U+FFFD for a bad escape, Latin-1 text for raw bytes.
    assert split_path("/t/%FF") is None
    assert split_path("/t/a%C3") is None
    assert split_path("/t/\xff") is None
    assert split_path("/t/\xc3\xa9") is None
    assert split_path("/caf\u00e9") is None
    assert split_path("/t/%EF%BF%BD") == ["t", "\ufffd"]
    assert split_path("/t/%C3%BF") == ["t", "\u00ff"]
    assert split_path("/caf%C3%A9") == ["caf\u00e9"]
    assert split_path("/100%") == ["100%"]


def test_parsing_is_deterministic():
    s = SumS(ProdS(LitS("a"), IntS()), ProdS(LitS("a"), TextS()))
    for _ in range(5):
        assert parse_uri(s, "/a/3") == Inl(Pair(Text("a"), Int(3)))
        assert parse_uri(s, "/a/b") == Inr(Pair(Text("a"), Text("b")))


def test_seq_and_alt_parsers_directly():
    p = seq_parser(parser_for(LitS("a")), parser_for(IntS()))
    assert p.run(["a", "4"], 0) == (Pair(Text("a"), Int(4)), 2)
    assert p.run(["b", "4"], 0) is None

    q = alt_parser(parser_for(IntS()), parser_for(TextS()))
    assert q.run(["12"], 0) == (Inl(Int(12)), 1)
    assert q.run(["x"], 0) == (Inr(Text("x")), 1)
    assert q.run([], 0) is None


def test_equal_schemas_share_one_grammar():
    from lenserv.demos import build_combined

    a, b = build_combined().left.shape, build_combined().left.shape
    assert a == b and a is not b
    assert parser_for(a) is parser_for(b)


def test_unroutable_schemas():
    with pytest.raises(NotRoutable):
        parser_for(ListS(IntS()))
    with pytest.raises(NotRoutable):
        parser_for(ProdS(LitS("a"), MapS(NatS(), IntS())))


# --------------------------------------------------------------------- render


def test_render_examples():
    assert render_uri(USER_NAME, Pair(Text("user"), Pair(Int(3), Text("name")))) == "/user/3/name"
    assert render_uri(UnitS(), Unit()) == "/"
    assert render_uri(TextS(), Text("a b")) == "/a%20b"
    assert render_uri(TextS(), Text("a/b")) == "/a%2Fb"
    assert render_uri(BoolS(), Bool(True)) == "/true"


def test_render_rejects_nonconforming_values():
    with pytest.raises(ValueError):
        render_uri(IntS(), Text("x"))


def test_render_rejects_an_empty_text_capture():
    # "/t/" would parse back to nothing: an empty segment is no capture.
    with pytest.raises(ValueError):
        render_uri(ProdS(LitS("t"), TextS()), Pair(Text("t"), Text("")))


def test_render_parse_roundtrip_on_route_like_schemas():
    rng = random.Random(27)
    for _ in range(300):
        s = route_like(rng)
        v = route_value(s, rng)
        assert conforms(s, v)
        assert parse_uri(s, render_uri(s, v)) == v


# ----------------------------------------------------------------- describing


def test_describe_routes():
    calc = SumS(
        ProdS(LitS("add"), ProdS(IntS(), IntS())),
        SumS(
            ProdS(LitS("sub"), ProdS(IntS(), IntS())),
            ProdS(LitS("mul"), ProdS(IntS(), IntS())),
        ),
    )
    assert describe_routes(calc) == [
        "/add/Int:n1/Int:n2",
        "/sub/Int:n1/Int:n2",
        "/mul/Int:n1/Int:n2",
    ]
    assert describe_routes(UnitS()) == ["/"]
    assert describe_routes(ProdS(LitS("x"), NatS())) == ["/x/Nat:n1"]
    with pytest.raises(NotRoutable):
        describe_routes(ListS(IntS()))


def _count(s):
    # How many alternatives a grammar has, read off the schema alone.
    if isinstance(s, ProdS):
        return _count(s.left) * _count(s.right)
    if isinstance(s, SumS):
        return _count(s.left) + _count(s.right)
    return 1


def _index(s, v):
    # Which alternative the Inl/Inr tags of ``v`` select, in the order
    # of a product's alternatives spelled left to right.
    if isinstance(s, ProdS):
        return _index(s.left, v.first) * _count(s.right) + _index(s.right, v.second)
    if isinstance(s, SumS):
        if isinstance(v, Inl):
            return _index(s.left, v.value)
        return _count(s.left) + _index(s.right, v.value)
    return 0


CAPTURE = re.compile(r"(Int|Nat|Bool|Text):n([0-9]+)")
KINDS = {"Int": IntS(), "Nat": NatS(), "Bool": BoolS(), "Text": TextS()}


def test_the_route_listing_agrees_with_parse_and_render():
    # A rendered value matches the pattern its tags select: each literal
    # by itself, each capture as a segment of its kind.
    rng = random.Random(41)
    schemas = [route_like(rng) for _ in range(300)]
    schemas += [random_server(random.Random(seed)).server.left.shape for seed in range(64)]
    for s in schemas:
        routes = describe_routes(s)
        assert len(routes) == _count(s), s
        v = route_value(s, rng)
        path = render_uri(s, v)
        pattern = routes[_index(s, v)]
        segments = split_path(path)
        parts = pattern.split("/")[1:] if pattern != "/" else []
        assert len(segments) == len(parts), (path, pattern)
        captures = 0
        for seg, part in zip(segments, parts):
            cap = CAPTURE.fullmatch(part)
            if cap is None:
                assert seg == part, (path, pattern)
                continue
            captures += 1
            assert cap[2] == str(captures), pattern
            assert parser_for(KINDS[cap[1]]).parse([seg]) is not None, (path, pattern)
