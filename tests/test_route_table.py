"""The engine's route table.  ``prepare`` spreads ``&`` and the prefixes
of a server into one ordered table of routes.  Each leaf is rebuilt
under its captures and the literals below them, then under one
``reparam_server`` by the composite of every re-parametrisation above
it, so ``+``, the ``&`` of two re-parametrisations, spreads too; only
the leading literals are lookup steps.  A request is answered by the
first entry whose literals and grammar match a prefix of its path.
These tests hold that table to the answers of the same server rebuilt
without its ``form``, which the engine serves as one entry through the
whole request grammar, as ordered choice reads it."""

import functools
import inspect
import operator
import random
import sys

import pytest

from generators import random_server
from lenserv.containers import const_of
from lenserv.demos import build_calculator, build_combined, build_iot, build_todo
from lenserv.engine import PrepareError, handle_get, handle_post, prepare
from lenserv.routing import describe_routes, parse_uri
from lenserv.lens import fst_lens
from lenserv.servers import Server, get_lens, post_lens, reparam_server
from lenserv.values import (
    BoolS, Int, IntS, NatS, Pair, ProdS, TextS, UnitS, conforms, encode_json,
    generate_value,
)


def _chain(n: int) -> Server:
    """``r0 & r1 & … `` over one state, nested to the left as written."""
    c = const_of(IntS())
    return functools.reduce(operator.and_, [
        f"r{i}" / get_lens(UnitS(), c, IntS(), lambda st, u, i=i: Int(i)) for i in range(n)])


def _answers_under_a_tight_recursion_limit(server: Server, prefix: str = "",
                                            answer: str = "{}"):
    """GET ``prefix`` + ``/r0``, ``/r299`` and ``/r300`` of a 300-route
    chain; ``answer`` formats the first two's expected bodies."""
    p = prepare(server)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 150)
    try:
        answers = [handle_get(p, prefix + path) for path in ("/r0", "/r299", "/r300")]
    finally:
        sys.setrecursionlimit(limit)
    assert [(r.status, r.body) for r in answers[:2]] == [
        (200, answer.format(0)), (200, answer.format(299))]
    assert answers[2].status == 404


def test_a_deep_and_chain_answers_without_a_frame_per_level():
    _answers_under_a_tight_recursion_limit(_chain(300))


def test_a_deep_and_chain_under_reparam_answers_without_a_frame_per_level():
    _answers_under_a_tight_recursion_limit(
        reparam_server(_chain(300), fst_lens(ProdS(IntS(), BoolS()))))


def test_a_deep_and_chain_under_a_capture_answers_without_a_frame_per_level():
    # Spreading goes on below a capture: no entry reads the whole chain.
    _answers_under_a_tight_recursion_limit(NatS() / _chain(300), "/5", "[5,{}]")


def test_prepare_refuses_a_chain_too_deep_for_the_route_grammar():
    with pytest.raises(PrepareError, match="route nesting is too deep"):
        prepare(_chain(1000))


# ----------------------------------------------------------- equivalence


def _shadowed_servers():
    """Two servers in which ordered choice leaves a listed route
    unreachable: a text capture ahead of the literal ``x``, and a route
    of no segments ahead of ``/y``, which commits and then 404s."""
    c = const_of(IntS())
    b = get_lens(UnitS(), c, IntS(), lambda st, u: Int(2))
    text = get_lens(TextS(), c, TextS(), lambda st, x: x)
    unit = get_lens(UnitS(), c, IntS(), lambda st, u: Int(1))
    return [text & ("x" / b), unit & ("y" / b)]


def _distributed_servers():
    """Choices under the forms that are rebuilt over each branch: a
    re-parametrisation of ``&`` over a const product state, a capture
    above ``+``, and ``+`` whose right side is a ``&`` of literals."""
    c = const_of(IntS())
    add = get_lens(IntS(), c, IntS(), lambda st, n: Int(st.i + n.i))
    put = post_lens(UnitS(), c, IntS(), lambda st, u, body: body)
    a, b = "a" / add, "b" / put
    return [reparam_server(a & b, fst_lens(ProdS(IntS(), BoolS()))),
            NatS() / (a + b),
            (a + b) + (("c" / put) & ("d" / add))]


def _appended_servers():
    """A literal entry followed by one of no literal, which the table
    files under that literal too; two re-parametrisations, which fuse
    into one; a capture above a re-parametrisation; and a literal below
    a capture, which the entry's own grammar reads."""
    c = const_of(IntS())
    pair = ProdS(IntS(), BoolS())
    add = get_lens(IntS(), c, IntS(), lambda st, n: Int(st.i + n.i))
    put = post_lens(UnitS(), c, IntS(), lambda st, u, body: body)
    text = get_lens(TextS(), c, TextS(), lambda st, x: x)
    a, b = "a" / add, "b" / put
    return [("x" / get_lens(IntS(), c, IntS(), lambda st, n: n)) & text,
            reparam_server(reparam_server(a & b, fst_lens(pair)),
                           fst_lens(ProdS(pair, TextS()))),
            NatS() / reparam_server(a & b, fst_lens(pair)),
            "p" / (NatS() / (("q" / add) & b))]


SERVERS = ([("demo_" + f.__name__, f()) for f in (build_calculator, build_iot, build_todo,
                                                   build_combined)]
           + [(f"seed{seed}", random_server(random.Random(seed)).server) for seed in range(64)]
           + list(zip(("text_then_literal", "unit_then_literal"), _shadowed_servers()))
           + list(zip(("reparam_over_and", "capture_over_sum", "sum_over_sum_and_and"),
                      _distributed_servers()))
           + list(zip(("literal_then_text", "reparam_over_reparam", "capture_over_reparam",
                       "literal_under_capture"), _appended_servers())))

_CAPTURES = {
    "Int": lambda rng: str(rng.randint(-9, 9)),
    "Nat": lambda rng: str(rng.randint(0, 9)),
    "Bool": lambda rng: rng.choice(("true", "false")),
    "Text": lambda rng: f"t{rng.randrange(10)}",
}


def _paths(shape, rng) -> list:
    """Every listed route rendered with drawn captures, then each with
    a wrong literal, with one segment dropped and with one added."""
    paths = ["/"]
    for pattern in describe_routes(shape):
        parts = [p for p in pattern.split("/") if p]
        segments = [_CAPTURES[p.split(":")[0]](rng) if ":" in p else p for p in parts]
        paths.append("/" + "/".join(segments))
        for i, part in enumerate(parts):
            if ":" not in part:
                paths.append("/" + "/".join(segments[:i] + ["zz"] + segments[i + 1:]))
            paths.append("/" + "/".join(segments[:i] + segments[i + 1:]))
        paths.append("/" + "/".join(segments + ["zz"]))
    return paths


def _body(s: Server, path: str, state, rng) -> str:
    """A body drawn at the position the formless server's forward pass
    picks out for ``path``, or one that decodes nowhere."""
    x = parse_uri(s.left.shape, path)
    if x is None or rng.random() < 0.1:
        return "{"
    try:
        y = s.lens.view(Pair(x, state))
    except Exception:
        return "null"
    pos = s.right.position(y) if conforms(s.right.shape, y) else UnitS()
    return encode_json(generate_value(pos, rng))


@pytest.mark.parametrize("name,server", SERVERS, ids=[name for name, _ in SERVERS])
def test_the_table_answers_as_ordered_choice_does(name, server):
    rng = random.Random(name)
    formless = Server(server.left, server.param, server.right, server.lens)
    initial = generate_value(server.param.shape, rng)
    table, whole = prepare(server, initial=initial), prepare(formless, initial=initial)
    paths = _paths(server.left.shape, rng)
    for path in paths:
        a, b = handle_get(table, path), handle_get(whole, path)
        assert (a.status, a.body) == (b.status, b.body), path
    for path in paths:
        body = _body(formless, path, whole.cell.snapshot(), rng)
        a, b = handle_post(table, path, body), handle_post(whole, path, body)
        assert (a.status, a.body) == (b.status, b.body), (path, body)
        assert table.cell.snapshot() == whole.cell.snapshot(), (path, body)
