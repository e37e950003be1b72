"""Seeded random generators shared by the tests.

Every generator draws from the ``random.Random`` it is given and from
nothing else, so a seed names the same draw on every run.

* ``random_schema``: a schema of the whole value universe
* ``route_like`` / ``route_value``: path grammars shaped like real
  route tables, and values of them that render to a path and parse back
* ``random_state_container``: state containers of every form
* ``random_server``: a well-typed server built from the whole algebra,
  as a ``Node`` tree that records how it was built
* ``random_exchange``: random requests and bodies sent to a server
  through ``handle_get`` and ``handle_post``
"""

import itertools
from dataclasses import dataclass

from lenserv.containers import (
    Container, const_of, coproduct, product, tensor, unit_positions, agree,
)
from lenserv.deplens import DepLens
from lenserv.engine import handle_get, handle_post, prepare
from lenserv.lens import fst_lens, identity, snd_lens
from lenserv.routing import render_uri
from lenserv.servers import (
    HandlerError, Server, get_lens, lens_server, post_lens, reparam_server,
    state_server,
)
from lenserv.values import (
    Bool, BoolS, Inl, Inr, Int, IntS, List, ListS, LitS, MapS, Nat, NatS,
    Pair, ProdS, SumS, Text, TextS, Unit, UnitS, Value, conforms, encode_json,
    generate_value,
)


def random_schema(rng, depth=0):
    if depth >= 3 or rng.random() < 0.35:
        return rng.choice([UnitS(), BoolS(), IntS(), NatS(), TextS(), LitS("k")])
    kind = rng.randrange(4)
    if kind == 0:
        return ProdS(random_schema(rng, depth + 1), random_schema(rng, depth + 1))
    if kind == 1:
        return SumS(random_schema(rng, depth + 1), random_schema(rng, depth + 1))
    if kind == 2:
        return ListS(random_schema(rng, depth + 1))
    return MapS(rng.choice([IntS(), NatS(), TextS()]), random_schema(rng, depth + 1))


# ------------------------------------------------------------------ routes


def route_like(rng, depth=0):
    """Random schemas shaped like real route tables: every sum
    alternative starts with a distinct literal, and texts are non-empty,
    so rendering is injective and the round trip is exact."""
    if depth >= 3 or rng.random() < 0.4:
        return rng.choice([IntS(), NatS(), BoolS(), UnitS(), LitS(f"s{rng.randrange(100)}")])
    if rng.random() < 0.5:
        return ProdS(LitS(f"p{rng.randrange(100)}"), route_like(rng, depth + 1))
    a = ProdS(LitS(f"a{rng.randrange(100)}"), route_like(rng, depth + 1))
    b = ProdS(LitS(f"b{rng.randrange(100)}"), route_like(rng, depth + 1))
    return SumS(a, b)


def route_value(s, rng):
    """A value of a route schema with every text capture non-empty."""
    if isinstance(s, UnitS):
        return Unit()
    if isinstance(s, LitS):
        return Text(s.lit)
    if isinstance(s, BoolS):
        return Bool(rng.random() < 0.5)
    if isinstance(s, IntS):
        return Int(rng.randint(-999, 999))
    if isinstance(s, NatS):
        return Nat(rng.randint(0, 999))
    if isinstance(s, TextS):
        return Text(f"t{rng.randrange(1000)}")
    if isinstance(s, ProdS):
        return Pair(route_value(s.left, rng), route_value(s.right, rng))
    if isinstance(s, SumS):
        side = s.left if rng.random() < 0.5 else s.right
        v = route_value(side, rng)
        return Inl(v) if side is s.left else Inr(v)
    raise AssertionError(s)


# ------------------------------------------------------------------- state


TODO = MapS(NatS(), ListS(TextS()))
STATE_LEAVES = (IntS(), BoolS(), NatS(), TextS(), ProdS(IntS(), TextS()),
                ListS(NatS()), TODO)


def random_state_container(rng, depth=0, leaves=STATE_LEAVES):
    """A random state container of every form, with unit positions and
    collection schemas among its pinned leaves."""
    if depth >= 3 or rng.random() < 0.35:
        s = rng.choice(leaves)
        return const_of(s) if rng.random() < 0.75 else unit_positions(s)
    kind = rng.choice([product, coproduct, tensor])
    return kind(random_state_container(rng, depth + 1, leaves),
                random_state_container(rng, depth + 1, leaves))


# ----------------------------------------------------------------- servers


LEAVES = ("get_lens", "post_lens", "state_server", "lens_server")
COMBINATORS = ("path_prefix", "capture_prefix", "clone_choice", "ext_choice",
               "seq_server", "post_compose", "pre_compose", "reparam_server")
SERVER_STATE_LEAVES = STATE_LEAVES + (SumS(IntS(), TextS()),)
_CAPTURES = (IntS(), NatS(), BoolS(), TextS())


@dataclass(frozen=True)
class Node:
    """A generated server and how it was built: ``kind`` is the leaf
    or combinator (one of ``LEAVES`` or ``COMBINATORS``), ``kids`` the
    nodes it composed, and ``info`` the rest of its arguments: a
    literal, a capture schema, or the name of a lens or handler."""

    kind: str
    server: Server
    kids: tuple = ()
    info: object = None

    def nodes(self):
        yield self
        for kid in self.kids:
            yield from kid.nodes()


def _is_const(c: Container) -> bool:
    return c.form == ("pinned", c.shape)


def random_server(rng, depth=4) -> Node:
    """A server that ``prepare`` accepts, built from every leaf and all
    eight README combinators; each branch of a choice is mounted under
    its own literal, so every route has exactly one path.

    Handlers are total, except that a guarded ``post_lens`` refuses a
    body whose flag is false with a ``HandlerError``.  One request
    adapter, ``misanswering``, answers every POST with a value outside
    its response position, so the engine's 500 path is exercised too."""
    return _Builder(rng).server(None, depth)


class _Builder:
    def __init__(self, rng):
        self.rng = rng
        self._count = itertools.count(1)

    def lit(self, stem):
        return f"{stem}{next(self._count)}"

    def server(self, state, depth):
        """A node whose server has state ``state``, or any state when
        ``state`` is None."""
        kinds = LEAVES if depth == 0 or self.rng.random() < 0.2 else COMBINATORS
        return getattr(self, self.rng.choice([k for k in kinds if _fits(k, state)]))(state, depth - 1)

    def const(self):
        return const_of(self.rng.choice(SERVER_STATE_LEAVES))

    # -- leaves ---------------------------------------------------------

    def state_server(self, state, depth):
        if state is None:
            state = (self.const() if self.rng.random() < 0.5
                     else random_state_container(self.rng, leaves=SERVER_STATE_LEAVES))
        return Node("state_server", state_server(state))

    def get_lens(self, state, depth):
        c, uri = state or self.const(), route_like(self.rng)
        s = c.shape
        name, resp, handler = self.rng.choice([
            ("state", s, lambda st, x: st),
            ("pair", ProdS(uri, s), lambda st, x: Pair(x, st)),
            ("sum", SumS(uri, s), lambda st, x: Inl(x) if len(encode_json(st)) % 2 else Inr(st)),
        ])
        return Node("get_lens", get_lens(uri, c, resp, handler), info=name)

    def post_lens(self, state, depth):
        c, uri = state or self.const(), route_like(self.rng)
        if self.rng.random() < 0.5:
            return Node("post_lens", post_lens(uri, c, c.shape, lambda st, x, body: body),
                        info="replace")
        return Node("post_lens", post_lens(uri, c, ProdS(BoolS(), c.shape), _guarded),
                    info="guarded")

    def lens_server(self, state, depth):
        r = route_like(self.rng)
        if self.rng.random() < 0.5:
            return Node("lens_server", lens_server(identity(unit_positions(r))), info="echo")
        return Node("lens_server", lens_server(fst_lens(ProdS(r, route_like(self.rng)))),
                    info="fst_lens")

    # -- combinators ----------------------------------------------------

    def _mounted(self, stem, state, depth):
        kid = self.server(state, depth)
        lit = self.lit(stem)
        return Node("path_prefix", lit / kid.server, (kid,), lit)

    def path_prefix(self, state, depth):
        return self._mounted("seg", state, depth)

    def capture_prefix(self, state, depth):
        kid = self.server(state, depth)
        cap = self.rng.choice(_CAPTURES)
        return Node("capture_prefix", cap / kid.server, (kid,), cap)

    def clone_choice(self, state, depth):
        c = state or random_state_container(self.rng, leaves=SERVER_STATE_LEAVES)
        a, b = self._mounted("left", c, depth), self._mounted("right", c, depth)
        return Node("clone_choice", a.server & b.server, (a, b))

    def ext_choice(self, state, depth):
        if state is None and self.rng.random() < 0.5:
            c = self.const()    # twin states: a diff sent to the wrong slot type-checks
            state = product(c, c)
        sa, sb = state.form[1:] if state else (None, None)
        a, b = self._mounted("left", sa, depth), self._mounted("right", sb, depth)
        return Node("ext_choice", a.server + b.server, (a, b))

    def seq_server(self, state, depth):
        a = self.server(None, depth)
        y = a.server.right
        if agree(y, unit_positions(y.shape)) and self.rng.random() < 0.5:
            t = self.const()
            b = get_lens(y.shape, t, ProdS(y.shape, t.shape), lambda st, r: Pair(r, st))
            return Node("seq_server", a.server >> b, (a,), "get_lens")
        return Node("seq_server", a.server >> lens_server(identity(y)), (a,), "identity")

    def post_compose(self, state, depth):
        if state is None and self.rng.random() < 0.5:
            # the whole state focused through a projection, as the iot
            # demo builds its endpoints
            kid = self.state_server(const_of(ProdS(self.const().shape, self.const().shape)), depth)
        else:
            kid = self.server(state, depth)
        y = kid.server.right
        if isinstance(y.shape, ProdS) and agree(y, const_of(y.shape)):
            name = self.rng.choice(("fst_lens", "snd_lens"))
            lens = (fst_lens if name == "fst_lens" else snd_lens)(y.shape)
        elif agree(y, unit_positions(y.shape)) and self.rng.random() < 0.5:
            name = "twice"
            lens = DepLens(y, unit_positions(ListS(y.shape)),
                           view=lambda r: List((r, r)), update=lambda r, p: Unit())
        else:
            name, lens = "identity", identity(y)
        return Node("post_compose", kid.server >> lens, (kid,), name)

    def pre_compose(self, state, depth):
        """Read one more literal segment after the kid's own path."""
        kid = self.server(state, depth)
        x = kid.server.left
        name = "misanswering" if self.rng.random() < 0.25 else "suffix"
        adapter = DepLens(
            Container(ProdS(x.shape, LitS(self.lit("end"))), lambda v: x.position(v.first)),
            x, view=lambda v: v.first,
            update=(lambda v, p: List(())) if name == "misanswering" else (lambda v, p: p))
        return Node("pre_compose", adapter << kid.server, (kid,), name)

    def reparam_server(self, state, depth):
        name = self.rng.choice(("fst_lens", "snd_lens", "identity"))
        if name != "identity" and state is None:
            state = const_of(ProdS(self.const().shape, self.const().shape))
        if name == "identity" or not (_is_const(state) and isinstance(state.shape, ProdS)):
            kid = self.server(state, depth)
            lens, name = identity(kid.server.param), "identity"
        else:
            lens = (fst_lens if name == "fst_lens" else snd_lens)(state.shape)
            kid = self.server(lens.dst, depth)
        return Node("reparam_server", reparam_server(kid.server, lens), (kid,), name)


def _fits(kind, state) -> bool:
    """Whether ``kind`` can build a server over the state ``state``."""
    if state is None or kind in ("state_server", "path_prefix", "capture_prefix",
                                 "clone_choice", "post_compose", "pre_compose",
                                 "reparam_server"):
        return True
    if kind in ("get_lens", "post_lens"):
        return _is_const(state)
    return kind == "ext_choice" and state.form is not None and state.form[0] == "product"


def _guarded(st, x, body):
    if not body.first.b:
        raise HandlerError("refused: the flag is false")
    return body.second


# ------------------------------------------------------------ walking a route


def route(node: Node, x: Value, *states):
    """``(node, x, states)`` for each node that request ``x`` passes
    through, root first, leaf last: ``x`` as that node sees it, and
    each of ``states`` (state values of the root server) narrowed to
    the part that node's server owns."""
    while True:
        yield node, x, states
        kind, i = node.kind, 0
        if kind in ("path_prefix", "capture_prefix"):
            x = x.second
        elif kind == "pre_compose":
            x = x.first
        elif kind in ("clone_choice", "ext_choice"):
            i = 0 if isinstance(x, Inl) else 1
            x = x.value
            if kind == "ext_choice":
                states = tuple((s.first, s.second)[i] for s in states)
        elif kind == "seq_server":
            states = tuple(s.first for s in states)
        elif kind == "reparam_server" and node.info != "identity":
            states = tuple(s.first if node.info == "fst_lens" else s.second for s in states)
        elif kind not in ("post_compose", "reparam_server"):
            return
        node = node.kids[i]


def reads_back(node: Node, x: Value) -> bool:
    """Whether ``x`` reaches a ``state_server`` of const state, or its
    ``fst_lens`` / ``snd_lens`` focus, through combinators that pass its
    value and its route tags through unchanged: then a GET of ``x``
    answers exactly the text a 200 POST to it sent."""
    for n, _, _ in route(node, x):
        if n.kind in ("capture_prefix", "pre_compose") or (n.kind, n.info) in (
                ("seq_server", "get_lens"), ("post_compose", "twice")):
            return False
    return n.kind == "state_server" and _is_const(n.server.param)


def misanswers(node: Node, x: Value) -> bool:
    """Whether ``x`` passes through the ``misanswering`` adapter."""
    return any(n.info == "misanswering" for n, _, _ in route(node, x))


# ------------------------------------------------------------- exchanges


@dataclass(frozen=True)
class Exchange:
    """One request and what it did: ``request`` is the drawn request
    value (None for a path drawn outside the grammar), ``body`` None
    for a GET, and ``before``/``after`` the state around the call."""

    method: str
    path: str
    request: Value | None
    body: str | None
    status: int
    answer: str
    before: Value
    after: Value


# Bodies that no schema decodes; every other body is canonical JSON.
_BAD_BODIES = ("", "{", "1.5", "nope", '{"L":1,"R":2}')


def random_exchange(server: Server, rng, steps=32):
    """Prepare ``server`` from a random state and send it ``steps``
    random requests: GETs and POSTs to paths rendered from drawn
    requests, one in ten with a segment appended so that it falls
    outside the grammar.  A POST body is drawn from the response
    position at the request, or is one of ``_BAD_BODIES``.  Each POST
    answered 200 is followed by a GET of the same path.  Returns the
    prepared server and the list of ``Exchange``s."""
    p = prepare(server, initial=generate_value(server.param.shape, rng))
    shape = server.left.shape
    log = []

    def send(path, x, body):
        before = p.cell.snapshot()
        r = handle_get(p, path) if body is None else handle_post(p, path, body)
        log.append(Exchange("GET" if body is None else "POST", path, x, body,
                            r.status, r.body, before, p.cell.snapshot()))
        return r.status

    for _ in range(steps):
        x = route_value(shape, rng)
        path = render_uri(shape, x)
        if rng.random() < 0.1:
            x, path = None, path.rstrip("/") + "/zz"
        if rng.random() < 0.5:
            send(path, x, None)
            continue
        if x is None or rng.random() < 0.15:
            body = rng.choice(_BAD_BODIES)
        else:
            y = server.lens.view(Pair(x, p.cell.snapshot()))
            pos = server.right.position(y) if conforms(server.right.shape, y) else UnitS()
            body = encode_json(generate_value(pos, rng))
        if send(path, x, body) == 200:
            send(path, x, None)
    return p, log
