"""Servers as parametrised dependent lenses, and the algebra that
composes them.

A ``Server`` has three container boundaries: ``left`` is the request
interface (shape values are parsed request paths, positions are what a
POST to that path answers with), ``param`` is the state interface, and
``right`` is the response interface (shape values are GET responses,
positions are POST request bodies).  The server itself is one dependent
lens from ``tensor(left, param)`` to ``right``: reads go forward,
writes come backward as a response position and leave as a state diff.
Each combinator below builds its boundaries from ``containers``' combinators alone.

Composition is the whole point.  The combinators below compose routing,
handlers, and state in one move, and each has an operator spelling:

    "seg" / s      mount s under a literal path segment (on the request)
    NatS() / s     mount s under a typed capture (on request and response)
    a & b          merge two servers over one shared state
    a + b          juxtapose two servers with separate states
    a >> b         chain servers; a's responses feed b's requests
    s >> l         focus responses through a lens
    l << s         adapt requests through a lens

Any lens fits ``s >> l`` and ``l << s``: a plain lens such as
``fst_lens`` is a ``DepLens`` between pinned containers.

A server is a dependent lens, so composing servers is composing lenses.
Only the endpoints (``get_lens``, ``post_lens``, ``state_server``,
``lens_server``), ``clone_choice`` and the two prefixes write their own
``run``, each calling the one server it routes to; ``a + b`` is ``a & b``
after projecting the product state onto each side.  Every other
combinator is ``dep_compose`` / ``dep_parallel`` over identities and
small adapters, so the backward threading lives in ``deplens`` alone.
``&``, the two prefixes and ``reparam_server`` also record their parts
in ``form``, so the engine can spread them into one table of routes;
``+`` is spread as the ``&`` it is built from.

``get_lens`` and ``post_lens`` take const or keyed state; a
``post_lens`` handler returns the whole new value or one map entry.

Handlers written for ``get_lens`` / ``post_lens`` signal domain
failures (division by zero, missing key) by raising ``HandlerError``;
the HTTP engine turns that into a 400 response.
"""

from dataclasses import dataclass, field

from .containers import (
    Container, _disagreement, const_of, coproduct, is_keyed, mount, pinned, product,
    tensor, unit_positions,
)
from .deplens import BoundaryMismatch, DepLens, dep_identity
from .values import (
    BoolS, Inl, Inr, IntS, NatS, Pair, Schema, TextS, LitS, Unit, UnitS,
)


__all__ = [
    "Server", "HandlerError",
    "lens_server", "reparam_server", "seq_server", "pre_compose",
    "post_compose", "ext_choice", "clone_choice",
    "state_server", "get_lens", "post_lens", "path_prefix",
    "capture_prefix",
]


class HandlerError(Exception):
    """Domain failure raised by an endpoint handler; maps to HTTP 400."""


@dataclass(frozen=True)
class Server:
    left: Container
    param: Container
    right: Container
    lens: DepLens
    # How a choice, a prefix or a re-parametrisation was built, for the
    # engine's route table: ("choice", a, b), ("lit", text, s),
    # ("cap", schema, s) or ("reparam", lens, s).
    form: tuple | None = field(default=None, repr=False)

    # -- operator DSL -----------------------------------------------

    def __rtruediv__(self, other):
        if isinstance(other, str):
            return path_prefix(other, self)
        if isinstance(other, Schema):
            return capture_prefix(other, self)
        return NotImplemented

    def __and__(self, other):
        if isinstance(other, Server):
            return clone_choice(self, other)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, Server):
            return ext_choice(self, other)
        return NotImplemented

    def __rshift__(self, other):
        if isinstance(other, Server):
            return seq_server(self, other)
        if isinstance(other, DepLens):
            return post_compose(self, other)
        return NotImplemented

    def __rlshift__(self, other):
        if isinstance(other, DepLens):
            return pre_compose(other, self)
        return NotImplemented


def _server(left, param, right, run, form=None) -> Server:
    return Server(left, param, right, DepLens.from_run(tensor(left, param), right, run), form)


def lens_server(l: DepLens) -> Server:
    """Embed a lens as a server with trivial (unit) state."""

    def run(v):
        y, back = l.run(v.first)
        return y, lambda r: Pair(back(r), v.second)

    return _server(l.src, const_of(UnitS()), l.dst, run)


def reparam_server(s: Server, l: DepLens) -> Server:
    """Change the state interface of ``s`` by running ``l`` in front of
    it: reads of the old state go forward through ``l``, state diffs
    come back through its backward map."""
    return Server(s.left, l.src, s.right,
                  (dep_identity(s.left) * l) >> s.lens, ("reparam", l, s))


def seq_server(a: Server, b: Server) -> Server:
    """Chain two servers: ``a``'s responses become ``b``'s requests.
    The composite keeps both states, side by side."""
    param = tensor(a.param, b.param)
    # (x, (sa, sb)) -> ((x, sa), sb), and positions back the other way
    reassoc = DepLens.from_run(
        tensor(a.left, param), tensor(tensor(a.left, a.param), b.param),
        lambda v: (Pair(Pair(v.first, v.second.first), v.second.second),
                   lambda p: Pair(p.first.first, Pair(p.first.second, p.second))))
    return Server(a.left, param, b.right,
                  reassoc >> (a.lens * dep_identity(b.param)) >> b.lens)


def pre_compose(l: DepLens, s: Server) -> Server:
    """Adapt the request interface of ``s`` through ``l``; the
    response position flows back out through ``l``'s backward map."""
    return Server(l.src, s.param, s.right,
                  (l * dep_identity(s.param)) >> s.lens)


def post_compose(s: Server, l: DepLens) -> Server:
    """Focus the response interface of ``s`` through ``l``: GETs see
    the focused part, POST bodies are widened back into a full response
    position before ``s`` handles them."""
    return Server(s.left, s.param, l.dst, s.lens >> l)


def ext_choice(a: Server, b: Server) -> Server:
    """External choice: route to one server or the other by the request
    tag.  States stay separate; a request for one side can only ever
    produce a diff for that side's state: ``&`` over the product state."""
    both = product(a.param, b.param)
    first = DepLens.from_run(both, a.param, lambda st: (st.first, Inl))
    second = DepLens.from_run(both, b.param, lambda st: (st.second, Inr))
    return clone_choice(reparam_server(a, first), reparam_server(b, second))


def clone_choice(a: Server, b: Server) -> Server:
    """External choice between two servers that share one state.  Both
    sides read the same state; whichever side handles the request also
    writes it, so its diff is the diff; differing state interfaces raise
    ``BoundaryMismatch``."""
    found = _disagreement(a.param, b.param)
    if found:
        raise BoundaryMismatch("cannot compose: %r does not meet %r" % found)

    def run(v):
        tag = v.first
        side, inject = (a, Inl) if isinstance(tag, Inl) else (b, Inr)
        y, back = side.lens.run(Pair(tag.value, v.second))
        return inject(y), back

    return _server(coproduct(a.left, b.left), a.param, coproduct(a.right, b.right), run,
                   ("choice", a, b))


def state_server(c: Container) -> Server:
    """The whole state as an endpoint: GET returns it, POST replaces
    it (the body schema is the state's own position schema)."""
    return _server(const_of(UnitS()), c, c, lambda v: (v.second, lambda r: Pair(Unit(), r)))


def _no_change(state: Container, who: str):
    """``st -> the diff that leaves st as it is``: the state itself for
    a const container, ``Inl(Unit())`` for a keyed one.  Any other
    state container raises ``ValueError``."""
    if state.form == ("pinned", state.shape):
        return lambda st: st
    if is_keyed(state):
        return lambda st: Inl(Unit())
    raise ValueError(
        f"{who} needs a const or keyed state container, got {state!r}")


def get_lens(uri: Schema, state: Container, resp: Schema, handler) -> Server:
    """A read-only endpoint.  ``handler(state_value, uri_value)``
    computes the response; the state is never changed (a POST to this
    endpoint carries a trivial body and commits the diff that changes
    nothing).  ``state`` is const or keyed.
    """
    unchanged = _no_change(state, "get_lens")

    def run(v):
        return handler(v.second, v.first), lambda r: Pair(Unit(), unchanged(v.second))

    return _server(unit_positions(uri), state, unit_positions(resp), run)


def post_lens(uri: Schema, state: Container, body: Schema, handler) -> Server:
    """A write-only endpoint.  ``handler(state_value, uri_value,
    body_value)`` computes the state diff: the replacement value for a
    const state, ``Inr(Pair(key, value))`` (store one entry) or
    ``Inl(Unit())`` (change nothing) for a keyed one.  GET responds
    with unit."""
    _no_change(state, "post_lens")

    def run(v):
        return Unit(), lambda r: Pair(Unit(), handler(v.second, v.first, r))

    return _server(unit_positions(uri), state, pinned(UnitS(), body), run)


def path_prefix(segment: str, s: Server) -> Server:
    """Mount ``s`` under a fixed path segment."""
    left = mount(LitS(segment), s.left)  # LitS validates the segment text
    return _server(left, s.param, s.right, lambda v: s.lens.run(Pair(v.first.second, v.second)),
                   ("lit", segment, s))


def capture_prefix(cap: Schema, s: Server) -> Server:
    """Mount ``s`` under a typed capture segment.  The captured value
    is paired onto both the request and the response, so downstream
    composition can still see it; positions pass through untouched."""
    if not isinstance(cap, (IntS, NatS, TextS, BoolS)):
        raise ValueError(f"captures must be Int/Nat/Text/Bool segments, got {cap!r}")

    def run(v):
        y, back = s.lens.run(Pair(v.first.second, v.second))
        return Pair(v.first.first, y), back

    return _server(mount(cap, s.left), s.param, mount(cap, s.right), run, ("cap", cap, s))
