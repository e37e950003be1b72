"""Containers: a shape schema together with a schema of positions for
every shape value.

A container ``(shape, position)`` is the interface of one side of a
server: shape values travel forward (requests, reads), and for each
shape value the position schema says what may travel backward at that
point (bodies, state diffs).  Five ways of combining them cover the
whole server algebra:

* ``product``    - both shapes; a position from one side or the other
* ``coproduct``  - one shape or the other; positions follow the tag
* ``tensor``     - both shapes; both positions
* ``pinned``     - positions ignore the shape value entirely
* ``mount``      - one more path segment in front; positions pass through

State is pinned: a diff replaces the value (``const_of``), changes
nothing (``unit_positions``) or stores one map entry (``keyed``).

Containers built from these combinators carry a structural description
(``form``), which later layers use to compare containers and derive
state update actions.  A container whose positions ignore the shape
value keeps that one position schema (``fixed``), read once off its
form; a combinator's container answers it from ``position``.
Hand-rolled containers have ``form=None``, and agree only with
themselves.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .values import Inl, Inr, MapS, ProdS, Schema, SumS, UnitS, Value


__all__ = [
    "Container", "const_of", "unit_positions", "keyed", "pinned", "product",
    "coproduct", "tensor", "mount", "agree",
]


@dataclass(frozen=True)
class Container:
    shape: Schema
    position: Callable[[Value], Schema]
    form: tuple | None = None

    @cached_property
    def fixed(self) -> Schema | None:
        """The one position schema at every shape value, or None."""
        tag = self.form[0] if self.form else None
        if tag == "pinned":
            return self.form[1]
        if tag == "mount":
            return self.form[2].fixed
        if tag is None:
            return None
        a, b = self.form[1].fixed, self.form[2].fixed
        if a is None or b is None:
            return None
        if tag == "coproduct":
            return a if a == b else None
        return (ProdS if tag == "tensor" else SumS)(a, b)

    def __repr__(self):
        if self.form is None:
            return f"Container({self.shape!r}, <positions>)"
        tag = self.form[0]
        if tag == "pinned":
            return f"Container({self.shape!r}, pinned {self.form[1]!r})"
        return f"{tag}({self.form[1]!r}, {self.form[2]!r})"


def _built(shape: Schema, pos: Callable[[Value], Schema], form: tuple) -> Container:
    """The container of ``form``, answering its ``fixed`` schema if it has one."""
    c = Container(shape, pos, form)
    if (fixed := c.fixed) is not None:
        object.__setattr__(c, "position", lambda v: fixed)
    return c


def pinned(shape: Schema, pos: Schema) -> Container:
    """Shape ``shape`` whose position schema is ``pos`` at every value."""
    return Container(shape, lambda v: pos, form=("pinned", pos))


def const_of(s: Schema) -> Container:
    """Shape ``s`` with position ``s`` everywhere: reads and writes are
    the same kind of thing.  This is what plain state looks like."""
    return pinned(s, s)


def unit_positions(s: Schema) -> Container:
    """Shape ``s`` with the trivial position everywhere: nothing flows
    backward at any point."""
    return pinned(s, UnitS())


def keyed(key: Schema, val: Schema) -> Container:
    """A map from ``key`` to ``val`` whose diffs name one entry:
    ``Inl(Unit())`` changes nothing and ``Inr(Pair(k, v))`` stores ``v``
    at ``k``.  A diff costs one entry however large the map grows."""
    return pinned(MapS(key, val), SumS(UnitS(), ProdS(key, val)))


def is_keyed(c: Container) -> bool:
    """Whether ``c`` is ``keyed(k, v)`` for some ``k`` and ``v``."""
    return isinstance(c.shape, MapS) and c.form == keyed(c.shape.key, c.shape.val).form


def product(a: Container, b: Container) -> Container:
    """Both shapes; a position addresses one component or the other."""
    def pos(v: Value) -> Schema:
        return SumS(a.position(v.first), b.position(v.second))
    return _built(ProdS(a.shape, b.shape), pos, ("product", a, b))


def coproduct(a: Container, b: Container) -> Container:
    """Either shape, and the positions of whichever side is present.
    Note the position schema itself is untagged: at ``Inl x`` it is
    exactly ``a.position(x)``."""
    def pos(v: Value) -> Schema:
        if isinstance(v, Inl):
            return a.position(v.value)
        if isinstance(v, Inr):
            return b.position(v.value)
        raise TypeError(f"coproduct shape value must be tagged, got {v!r}")
    return _built(SumS(a.shape, b.shape), pos, ("coproduct", a, b))


def tensor(a: Container, b: Container) -> Container:
    """Both shapes and both positions, componentwise."""
    def pos(v: Value) -> Schema:
        return ProdS(a.position(v.first), b.position(v.second))
    return _built(ProdS(a.shape, b.shape), pos, ("tensor", a, b))


def mount(seg: Schema, c: Container) -> Container:
    """``c`` under one more path segment ``seg``; positions are ``c``'s."""
    return _built(ProdS(seg, c.shape), lambda v: c.position(v.second), ("mount", seg, c))


def _disagreement(a: Container, b: Container) -> tuple | None:
    """The first pair of containers at which ``a`` and ``b`` differ, or
    None.  Forms with one tag compare part by part: schemas with ``==``
    (and a pinned pair's shapes, left out of its form), containers by
    descending.  Other pairs agree when their shapes and their ``fixed``
    schemas are equal, and not None: ``tensor(const_of(A), const_of(B))``
    is ``const_of(ProdS(A, B))``.
    No position function is called, so a formless container agrees
    only with itself."""
    if a is b:
        return None
    if a.form and b.form and a.form[0] == b.form[0]:
        if a.form[0] == "pinned" and a.shape != b.shape:
            return a, b
        for x, y in zip(a.form[1:], b.form[1:]):
            if not isinstance(x, Container):
                if x != y:
                    return a, b
            elif found := _disagreement(x, y):
                return found
        return None
    if a.fixed is None or a.shape != b.shape or a.fixed != b.fixed:
        return a, b
    return None


def agree(a: Container, b: Container) -> bool:
    """Decide container equality for composition preconditions, from
    the forms alone: ``a`` and ``b`` have no disagreement."""
    return _disagreement(a, b) is None
