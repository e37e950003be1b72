"""The paper's HTTP laws, checked on seeded random servers.

The paper's claim is that the lens laws mimic properties expected from
HTTP.  Each numbered test states one such property and checks it on
the servers that ``generators.random_server`` draws from ``SEEDS``,
each driven in process through ``handle_get`` and ``handle_post`` by
``generators.random_exchange``.

The first ``GOLDEN`` of those servers are also frozen as a differential
model: their routes, every answer they gave and their final state are
stored in ``tests/data/exchanges.jsonl``, and
``test_answers_match_the_golden_file`` compares them byte for byte.
A change that is meant to alter those answers regenerates the file with

    PYTHONPATH=src python3 tests/test_http_laws.py
"""

import random
import re
from collections import Counter
from dataclasses import fields
from json import dumps
from pathlib import Path

import pytest

from generators import (
    COMBINATORS, LEAVES, misanswers, random_exchange, random_server,
    reads_back, route,
)
from lenserv.containers import product, tensor, unit_positions
from lenserv.deplens import DepLens, dep_identity
from lenserv.engine import handle_get, handle_post, prepare
from lenserv.routing import describe_routes, parse_uri
from lenserv.servers import reparam_server
from lenserv.values import Inl, IntS, NatS, Pair, Schema, Unit, UnitS, encode_json


SEEDS = range(64)
GOLDEN = 12
GOLDEN_FILE = Path(__file__).parent / "data" / "exchanges.jsonl"


def _run(seed):
    rng = random.Random(seed)
    node = random_server(rng)
    p, log = random_exchange(node.server, rng)
    return node, p, log


@pytest.fixture(scope="module")
def runs():
    return [_run(seed) for seed in SEEDS]


def _exchanges(runs, method):
    for node, _, log in runs:
        for e in log:
            if e.method == method:
                yield node, e


def _state_forms(c):
    """``(form, pinned shape or None)`` for a state container and each
    container inside it."""
    if c.form[0] == "pinned":
        yield ("const" if c.form[1] == c.shape else "unit-position"), c.shape
    else:
        yield c.form[0], None
        yield from _state_forms(c.form[1])
        yield from _state_forms(c.form[2])


def _schema_kinds(s):
    yield type(s).__name__
    for f in fields(s):
        part = getattr(s, f.name)
        if isinstance(part, Schema):
            yield from _schema_kinds(part)


def test_the_servers_cover_the_algebra(runs):
    kinds, forms, leaves, captures = set(), set(), set(), set()
    for node, _, _ in runs:
        kinds |= {n.kind for n in node.nodes()}
        for form, shape in _state_forms(node.server.param):
            forms.add(form)
            if shape is not None:
                leaves |= set(_schema_kinds(shape))
        for r in describe_routes(node.server.left.shape):
            captures |= set(re.findall(r"(\w+):n\d+", r))
    assert kinds == set(LEAVES + COMBINATORS)
    assert forms == {"const", "unit-position", "tensor", "coproduct", "product"}
    assert {"ListS", "MapS", "SumS"} <= leaves
    assert captures == {"Int", "Nat", "Bool", "Text"}
    assert {e.status for _, e in _exchanges(runs, "GET")} == {200, 404}
    assert {e.status for _, e in _exchanges(runs, "POST")} == {200, 400, 404, 500}


def test_1_a_get_never_changes_state(runs):
    # ... and answers 200 exactly when its path is in the grammar.
    for node, e in _exchanges(runs, "GET"):
        assert e.after is e.before, e
        routed = parse_uri(node.server.left.shape, e.path) is not None
        assert e.status == (200 if routed else 404), e


def test_2_a_post_is_read_back_by_a_get_of_the_same_path(runs):
    checked = 0
    for node, _, log in runs:
        for post, get in zip(log, log[1:]):
            if post.method == "POST" and post.status == 200 and reads_back(node, post.request):
                assert (get.method, get.path) == ("GET", post.path)
                assert (get.status, get.answer) == (200, post.body), post
                checked += 1
    assert checked >= 40


def test_3_a_post_answered_with_anything_but_200_changes_nothing(runs):
    for node, e in _exchanges(runs, "POST"):
        if e.status != 200:
            assert e.after is e.before, e
        # Only the misanswering adapter breaks the response contract.
        broken = e.request is not None and misanswers(node, e.request)
        assert e.status != (200 if broken else 500), e


def _other_slot(n, x):
    """The slot of a product state that a POST through node ``n`` with
    request ``x`` must leave alone: the other branch of a ``+``, or
    the part of a whole state that a projection does not focus."""
    if n.kind == "ext_choice":
        return 1 if isinstance(x, Inl) else 0
    if n.kind == "post_compose" and n.kids[0].kind == "state_server" \
            and n.info in ("fst_lens", "snd_lens"):
        return 1 if n.info == "fst_lens" else 0
    return None


def test_4_a_post_to_one_branch_leaves_every_other_slot(runs):
    checked = Counter()
    for node, e in _exchanges(runs, "POST"):
        if e.status != 200:
            continue
        for n, x, (old, new) in route(node, e.request, e.before, e.after):
            other = _other_slot(n, x)
            if other is not None:
                assert (new.first, new.second)[other] is (old.first, old.second)[other], e
                checked[n.kind] += 1
    assert checked["ext_choice"] >= 40 and checked["post_compose"] >= 10


def _duplicate(c):
    return DepLens(c, product(c, c), view=lambda s: Pair(s, s), update=lambda s, d: d.value)


def _seen(e):
    return e.method, e.path, e.body, e.status, e.answer, e.after


def test_5_clone_choice_is_reparam_of_ext_choice(runs):
    # Both are sent the same draws; any difference in a view changes
    # the bodies drawn after it, so the two logs part at the first one.
    checked = 0
    for seed, (node, _, _) in zip(SEEDS, runs):
        for n in node.nodes():
            if n.kind == "clone_choice":
                a, b = (kid.server for kid in n.kids)
                reference = reparam_server(a + b, _duplicate(a.param))
                got = random_exchange(n.server, random.Random(seed))[1]
                want = random_exchange(reference, random.Random(seed))[1]
                assert list(map(_seen, got)) == list(map(_seen, want)), seed
                checked += 1
    assert checked >= 10


def test_6_every_drawn_route_renders_to_a_path_that_parses_back(runs):
    for node, _, log in runs:
        for e in log:
            if e.request is not None:
                assert parse_uri(node.server.left.shape, e.path) == e.request, e


def test_7_a_route_answers_the_same_under_any_mount(runs):
    # ... literal or typed: a typed capture pairs its value on in front.
    # Counted are the GETs whose answer dropped a choice's tag below
    # the mount.
    checked = 0
    for node, e in _exchanges(runs, "GET"):
        if e.status != 200:
            continue
        s = node.server
        lit = handle_get(prepare("mnt" / s, initial=e.before), "/mnt" + e.path)
        cap = handle_get(prepare(IntS() / s, initial=e.before), "/7" + e.path)
        assert (lit.status, lit.body) == (200, e.answer), e
        assert (cap.status, cap.body) == (200, f"[7,{e.answer}]"), e
        if e.request is not None and encode_json(s.lens.view(Pair(e.request, e.before))) != e.answer:
            checked += 1
    assert checked >= 400


def _into(c):
    """A lens into state container ``c`` from ``c`` beside a unit."""
    return DepLens.from_run(tensor(c, unit_positions(UnitS())), c,
                            lambda v: (v.first, lambda d: Pair(d, Unit())))


def _answers_alike(seed, got, want) -> None:
    # As in test 5: the same draws on both sides, so the logs part at
    # the first answer that differs.
    got_log = random_exchange(got, random.Random(seed))[1]
    want_log = random_exchange(want, random.Random(seed))[1]
    assert list(map(_seen, got_log)) == list(map(_seen, want_log)), seed


def test_8_re_parametrising_by_the_identity_changes_nothing(runs):
    checked = 0
    for seed, (node, _, _) in zip(SEEDS, runs):
        s = node.server
        _answers_alike(seed, reparam_server(s, dep_identity(s.param)), s)
        checked += 1
    assert checked >= len(SEEDS)


def test_9_re_parametrising_twice_is_once_by_the_composite(runs):
    checked = 0
    for seed, (node, _, _) in zip(SEEDS, runs):
        s = node.server
        l1 = _into(s.param)
        l2 = _into(l1.src)
        _answers_alike(seed, reparam_server(reparam_server(s, l1), l2),
                       reparam_server(s, l2 >> l1))
        checked += 1
    assert checked >= len(SEEDS)


def test_10_a_prefix_commutes_with_a_re_parametrisation(runs):
    # ... literal or typed: a prefix touches only the request.
    checked = 0
    for seed, (node, _, _) in zip(SEEDS, runs):
        s = node.server
        l = _into(s.param)
        for prefix in ("p", NatS()):
            _answers_alike(seed, prefix / reparam_server(s, l), reparam_server(prefix / s, l))
            checked += 1
    assert checked >= 2 * len(SEEDS)


def test_11_a_re_parametrisation_distributes_over_clone_choice(runs):
    # Checked at the first clone_choice node of each seeded server, then
    # replayed both ways at every clone_choice node.
    checked = 0
    for seed, (node, _, _) in zip(SEEDS, runs):
        n = next((n for n in node.nodes() if n.kind == "clone_choice"), None)
        if n is None:
            continue
        a, b = (kid.server for kid in n.kids)
        l = _into(a.param)
        _answers_alike(seed, reparam_server(a & b, l), reparam_server(a, l) & reparam_server(b, l))
        checked += 1
    assert checked >= 15
    replayed = 0
    for seed, a, b in _choices(runs):
        l = _into(a.param)
        outside, inside = reparam_server(a & b, l), reparam_server(a, l) & reparam_server(b, l)
        _replay(seed, outside, inside)
        _replay(seed, inside, outside)
        replayed += 2
    assert replayed >= 64


def _replay(seed, got, want) -> None:
    """Send the requests of ``got``'s exchange for ``seed`` to ``want``,
    from the same starting state: each must get the same status and
    answer, and leave the same state.  Request schemas differ between
    the two, so a second ``random_exchange`` would draw other paths."""
    log = random_exchange(got, random.Random(seed))[1]
    p = prepare(want, initial=log[0].before)
    for e in log:
        r = handle_get(p, e.path) if e.body is None else handle_post(p, e.path, e.body)
        assert (r.status, r.body, p.cell.snapshot()) == (e.status, e.answer, e.after), (seed, e)


def _choices(runs):
    """``(seed, a, b)`` for each clone_choice node ``a & b`` of each
    seeded server."""
    for seed, (node, _, _) in zip(SEEDS, runs):
        for n in node.nodes():
            if n.kind == "clone_choice":
                yield seed, *(kid.server for kid in n.kids)


def test_12_clone_choice_is_associative(runs):
    # The route table reads a chain of & as one ordered choice.
    checked = 0
    for seed, a, b in _choices(runs):
        left, right = (a & b) & a, a & (b & a)
        _replay(seed, left, right)
        _replay(seed, right, left)
        checked += 2
    assert checked >= 64


def test_13_a_prefix_distributes_over_clone_choice(runs):
    # ... literal or typed: the route table spreads a prefix over the
    # entries below it.
    checked = Counter()
    for seed, a, b in _choices(runs):
        for prefix in ("p", NatS()):
            outside, inside = prefix / (a & b), (prefix / a) & (prefix / b)
            _replay(seed, outside, inside)
            _replay(seed, inside, outside)
            checked[prefix] += 2
    assert checked["p"] >= 64 and checked[NatS()] >= 64


def test_14_composing_with_the_identity_changes_nothing(runs):
    # These hold on the wire because a GET answer drops the route tags
    # its own path named, with or without an identity lens around it.
    checked = Counter()
    for seed, (node, _, _) in zip(SEEDS, runs):
        s = node.server
        for law, twin in (("s >> id", s >> dep_identity(s.right)),
                          ("id << s", dep_identity(s.left) << s)):
            _replay(seed, twin, s)
            _replay(seed, s, twin)
            checked[law] += 2
    assert checked["s >> id"] >= 128 and checked["id << s"] >= 128


def _golden(runs) -> bytes:
    lines = []
    for seed, (node, p, log) in zip(SEEDS, runs):
        lines.append(dumps({"seed": seed, "routes": describe_routes(node.server.left.shape)}))
        lines += [dumps([e.method, e.path, e.body, e.status, e.answer]) for e in log]
        lines.append(dumps({"state": encode_json(p.cell.snapshot())}))
    return ("\n".join(lines) + "\n").encode("ascii")


def test_answers_match_the_golden_file(runs):
    assert _golden(runs[:GOLDEN]) == GOLDEN_FILE.read_bytes()


if __name__ == "__main__":
    GOLDEN_FILE.write_bytes(_golden([_run(seed) for seed in SEEDS[:GOLDEN]]))
