import random

import pytest

from conftest import ADDRESS, USER, address_lens, street_number_lens
from lenserv.containers import coproduct, const_of, tensor
from lenserv.deplens import BoundaryMismatch, DepLens, dep_compose, dep_identity, dep_parallel
from lenserv.lens import fst_lens
from lenserv.values import (
    Bool,
    BoolS,
    Inl,
    Inr,
    Int,
    IntS,
    Pair,
    ProdS,
    conforms,
    generate_value,
)


def test_dep_compose_rejects_disagreeing_containers():
    a = dep_identity(const_of(IntS()))
    b = dep_identity(const_of(BoolS()))
    with pytest.raises(BoundaryMismatch):
        dep_compose(a, b)


def test_dep_compose_names_the_first_pair_that_disagrees():
    deep = tensor(const_of(IntS()), tensor(const_of(BoolS()), const_of(IntS())))
    other = tensor(const_of(IntS()), tensor(const_of(IntS()), const_of(BoolS())))
    with pytest.raises(BoundaryMismatch) as err:
        dep_compose(dep_identity(deep), dep_identity(other))
    assert str(err.value) == ("cannot compose: Container(BoolS, pinned BoolS) "
                              "does not meet Container(IntS, pinned IntS)")
    # forms built by different combinators are named whole
    flat = const_of(ProdS(IntS(), ProdS(IntS(), BoolS())))
    with pytest.raises(BoundaryMismatch, match=r"tensor\(.*\) does not meet Container\(ProdS"):
        dep_compose(dep_identity(deep), dep_identity(flat))


def test_dep_compose_is_associative():
    outer = fst_lens(ProdS(USER, BoolS()))
    mid = address_lens
    inner = street_number_lens
    one = dep_compose(dep_compose(outer, mid), inner)
    two = dep_compose(outer, dep_compose(mid, inner))
    rng = random.Random(18)
    for _ in range(300):
        v = generate_value(ProdS(USER, BoolS()), rng)
        n = generate_value(IntS(), rng)
        assert one.view(v) == two.view(v)
        assert one.update(v, n) == two.update(v, n)


def test_dep_parallel_is_componentwise():
    a = address_lens
    b = dep_identity(const_of(IntS()))
    both = a * b
    assert both.src.shape == ProdS(USER, IntS())
    rng = random.Random(19)
    for _ in range(300):
        v = generate_value(both.src.shape, rng)
        p = Pair(generate_value(ADDRESS, rng), generate_value(IntS(), rng))
        assert both.view(v) == Pair(a.view(v.first), b.view(v.second))
        assert both.update(v, p) == Pair(
            a.update(v.first, p.first), b.update(v.second, p.second)
        )


def test_value_dependent_backward_typing():
    """A dependent lens between genuinely value-dependent containers:
    positions at the image must map back to positions at the source."""
    src = coproduct(const_of(IntS()), const_of(BoolS()))
    dst = coproduct(const_of(BoolS()), const_of(IntS()))

    swap = DepLens(
        src,
        dst,
        view=lambda v: Inr(v.value) if isinstance(v, Inl) else Inl(v.value),
        update=lambda v, p: p,
    )
    rng = random.Random(20)
    for _ in range(500):
        v = generate_value(src.shape, rng)
        image = swap.view(v)
        assert conforms(dst.shape, image)
        p = generate_value(dst.position(image), rng)
        back = swap.update(v, p)
        assert conforms(src.position(v), back)


def test_identity_and_tensor_shapes():
    c = tensor(const_of(IntS()), const_of(BoolS()))
    i = dep_identity(c)
    v = Pair(Int(2), Bool(True))
    assert i.view(v) == v
    assert i.update(v, Pair(Int(7), Bool(False))) == Pair(Int(7), Bool(False))
