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
        x, y = _first_disagreement(a.dst, b.src)
        raise BoundaryMismatch(f"cannot compose: {x!r} does not meet {y!r}")
    return DepLens(
        a.src, b.dst,
        view=lambda v: b.view(a.view(v)),
        update=lambda v, p: a.update(v, b.update(a.view(v), p)),
    )


def _first_disagreement(a: Container, b: Container) -> tuple:
    """The first component pair at which ``a`` and ``b`` disagree,
    descending while both are built by the same combinator."""
    if a.form and b.form and a.form[0] == b.form[0] != "pinned":
        for x, y in zip(a.form[1:], b.form[1:]):
            if not agree(x, y):
                return _first_disagreement(x, y)
    return a, b


def dep_parallel(a: DepLens, b: DepLens) -> DepLens:
    return DepLens(
        tensor(a.src, b.src), tensor(a.dst, b.dst),
        view=lambda v: Pair(a.view(v.first), b.view(v.second)),
        update=lambda v, p: Pair(a.update(v.first, p.first), b.update(v.second, p.second)),
    )
