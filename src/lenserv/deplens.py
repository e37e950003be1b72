"""Lenses: morphisms between containers.

The backward direction is position-indexed: ``update`` receives a
source shape value and a position taken *at the forward image of that
value*, and must return a position at the value itself.  A plain lens
is the special case between ``pinned`` containers, whose positions
ignore the shape value; it is not a separate type.  Lenses compose
sequentially (``>>``, updates thread back through every stage) and in
parallel (``*``, componentwise on pairs).
"""

from dataclasses import dataclass
from typing import Callable

from .containers import Container, agree, tensor
from .values import Pair, Value


__all__ = ["DepLens", "BoundaryMismatch", "dep_identity", "dep_compose", "dep_parallel"]


class BoundaryMismatch(Exception):
    """Composition was attempted between lenses whose boundaries differ."""


@dataclass(frozen=True)
class DepLens:
    src: Container
    dst: Container
    view: Callable[[Value], Value]
    update: Callable[[Value, Value], Value]

    def __rshift__(self, other):
        if isinstance(other, DepLens):
            return dep_compose(self, other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, DepLens):
            return dep_parallel(self, other)
        return NotImplemented


def dep_identity(c: Container) -> DepLens:
    return DepLens(c, c, lambda v: v, lambda v, p: p)


def dep_compose(a: DepLens, b: DepLens) -> DepLens:
    """Run ``a`` then ``b``; updates thread back right to left.

    >>> from lenserv.lens import fst_lens
    >>> from lenserv.values import Bool, BoolS, Int, IntS, ProdS, Text, TextS
    >>> inner = fst_lens(ProdS(IntS(), BoolS()))
    >>> outer = fst_lens(ProdS(ProdS(IntS(), BoolS()), TextS()))
    >>> both = outer >> inner
    >>> both.view(Pair(Pair(Int(3), Bool(True)), Text("q")))
    Int(3)
    """
    if not agree(a.dst, b.src):
        raise BoundaryMismatch(f"cannot compose: {a.dst!r} does not meet {b.src!r}")
    return DepLens(
        a.src, b.dst,
        view=lambda v: b.view(a.view(v)),
        update=lambda v, p: a.update(v, b.update(a.view(v), p)),
    )


def dep_parallel(a: DepLens, b: DepLens) -> DepLens:
    return DepLens(
        tensor(a.src, b.src), tensor(a.dst, b.dst),
        view=lambda v: Pair(a.view(v.first), b.view(v.second)),
        update=lambda v, p: Pair(a.update(v.first, p.first), b.update(v.second, p.second)),
    )
