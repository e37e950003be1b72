"""Lenses: morphisms between containers.

A lens is one forward run: ``run(v)`` returns the image of a source
shape value together with a backward map from positions *at that image*
to positions at ``v``.  A plain lens is the special case between
``pinned`` containers, whose positions ignore the shape value; it is
not a separate type.  Lenses compose sequentially (``>>``, backward maps
thread back through every stage) and in parallel (``*``, componentwise
on pairs), each part running forward once.
"""

from dataclasses import dataclass
from typing import Callable

from .containers import Container, _disagreement, tensor
from .values import Pair, Value


__all__ = ["DepLens", "BoundaryMismatch", "dep_identity", "dep_compose", "dep_parallel"]


class BoundaryMismatch(Exception):
    """Composition was attempted between lenses whose boundaries differ."""


@dataclass(frozen=True, init=False)
class DepLens:
    """``DepLens(src, dst, view, update)`` builds a lens from its two
    directions; ``DepLens.from_run(src, dst, run)`` from one run.

    >>> from lenserv import Bool, BoolS, Int, IntS, ProdS, fst_lens
    >>> y, back = fst_lens(ProdS(IntS(), BoolS())).run(Pair(Int(3), Bool(True)))
    >>> y, back(Int(5))
    (Int(3), Pair(Int(5), Bool(True)))
    """

    src: Container
    dst: Container
    run: Callable[[Value], tuple]

    def __init__(self, src: Container, dst: Container, view, update):
        object.__setattr__(self, "__dict__", dict(
            src=src, dst=dst, run=lambda v: (view(v), lambda p: update(v, p))))

    @classmethod
    def from_run(cls, src: Container, dst: Container, run) -> "DepLens":
        lens = object.__new__(cls)
        object.__setattr__(lens, "__dict__", dict(src=src, dst=dst, run=run))
        return lens

    def view(self, v: Value) -> Value:
        return self.run(v)[0]

    def update(self, v: Value, p: Value) -> Value:
        return self.run(v)[1](p)

    def __rshift__(self, other):
        if isinstance(other, DepLens):
            return dep_compose(self, other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, DepLens):
            return dep_parallel(self, other)
        return NotImplemented


def _same(p):
    return p


def dep_identity(c: Container) -> DepLens:
    return DepLens.from_run(c, c, lambda v: (v, _same))


def dep_compose(a: DepLens, b: DepLens) -> DepLens:
    """Run ``a`` then ``b``; backward maps thread back right to left.

    >>> from lenserv.lens import fst_lens
    >>> from lenserv.values import Bool, BoolS, Int, IntS, ProdS, Text, TextS
    >>> inner = fst_lens(ProdS(IntS(), BoolS()))
    >>> outer = fst_lens(ProdS(ProdS(IntS(), BoolS()), TextS()))
    >>> both = outer >> inner
    >>> both.view(Pair(Pair(Int(3), Bool(True)), Text("q")))
    Int(3)
    """
    found = _disagreement(a.dst, b.src)
    if found:
        raise BoundaryMismatch("cannot compose: %r does not meet %r" % found)

    def run(v):
        y, back_a = a.run(v)
        z, back_b = b.run(y)
        return z, lambda p: back_a(back_b(p))

    return DepLens.from_run(a.src, b.dst, run)


def dep_parallel(a: DepLens, b: DepLens) -> DepLens:
    def run(v):
        y1, back1 = a.run(v.first)
        y2, back2 = b.run(v.second)
        return Pair(y1, y2), lambda p: Pair(back1(p.first), back2(p.second))

    return DepLens.from_run(tensor(a.src, b.src), tensor(a.dst, b.dst), run)
