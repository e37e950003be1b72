"""Plain lenses: dependent lenses between pinned containers.

A boundary is a forward-facing and a backward-facing schema, the
container ``pinned(fwd, bwd)``, so a plain lens is a ``DepLens`` whose
positions ignore the shape value.  ``Boundary``, ``identity``,
``compose`` and ``parallel`` are the container and lens operations
under their plain-lens names.  For monomorphic lenses the classic
well-behavedness laws are testable; ``check_laws`` samples them and
reports counterexamples.
"""

import random
from dataclasses import dataclass
from typing import Callable

from .containers import const_of, pinned
from .deplens import DepLens, dep_compose, dep_identity, dep_parallel
from .values import (
    Pair, ProdS, Schema, Value, conforms, enumerate_values, generate_value,
)


__all__ = [
    "Boundary", "compose", "parallel", "identity", "fst_lens", "snd_lens",
    "LawReport", "check_laws",
]


Boundary = pinned
identity = dep_identity
compose = dep_compose
parallel = dep_parallel


def fst_lens(pair_schema: ProdS) -> DepLens:
    """Focus the first component of a pair schema."""
    return DepLens.from_run(const_of(pair_schema), const_of(pair_schema.left),
                            lambda x: (x.first, lambda v: Pair(v, x.second)))


def snd_lens(pair_schema: ProdS) -> DepLens:
    """Focus the second component of a pair schema."""
    return DepLens.from_run(const_of(pair_schema), const_of(pair_schema.right),
                            lambda x: (x.second, lambda v: Pair(x.first, v)))


# ---------------------------------------------------------------------------
# Law checking


@dataclass(frozen=True)
class LawReport:
    """Outcome of a law check.  Each field is None when the law held on
    every sample, otherwise the first counterexample found."""

    put_get: tuple | None
    put_put: tuple | None
    get_put: tuple | None
    samples: int

    @property
    def ok(self) -> bool:
        return self.put_get is None and self.put_put is None and self.get_put is None

    def __str__(self):
        if self.ok:
            return f"all laws held on {self.samples} samples"
        bad = [name for name in ("put_get", "put_put", "get_put")
               if getattr(self, name) is not None]
        return f"violated: {', '.join(bad)} (on {self.samples} samples)"


def check_laws(
    l: DepLens,
    n: int = 1000,
    gen: Callable[[Schema, random.Random], Value] = generate_value,
    rng: random.Random | None = None,
    exhaustive: bool = False,
) -> LawReport:
    """Test the three well-behavedness laws on sampled inputs.

    Only monomorphic lenses (the position schema is the shape at every
    point) have testable laws; a lens that is not monomorphic at some
    sampled point raises ValueError before any law runs.  With
    ``exhaustive=True`` and finite schemas, every (state, value) pair
    is tried instead of sampling.
    """
    src, dst = l.src.shape, l.dst.shape
    if exhaustive:
        xs = enumerate_values(src)
        vs = enumerate_values(dst)
        if xs is None or vs is None:
            raise ValueError("exhaustive law check requires finite schemas")
        cases = [(x, v) for x in xs for v in vs]
    else:
        rng = rng or random.Random(0)
        cases = [(gen(src, rng), gen(dst, rng)) for _ in range(n)]

    for x, v in cases:
        if not conforms(src, x) or not conforms(dst, v):
            raise ValueError("generator produced a non-conforming sample")
        if l.src.position(x) != src or l.dst.position(v) != dst:
            raise ValueError(
                f"laws are only defined for monomorphic lenses; got src={l.src!r} dst={l.dst!r}")

    put_get = put_put = get_put = None
    for x, v in cases:
        put = l.update(x, v)
        if put_get is None and l.view(put) != v:
            put_get = (x, v)
        if put_put is None and l.update(put, v) != put:
            put_put = (x, v)
        if get_put is None and l.update(x, l.view(x)) != x:
            get_put = (x,)
    return LawReport(put_get, put_put, get_put, len(cases))
