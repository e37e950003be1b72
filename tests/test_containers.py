import pytest

from lenserv.containers import (
    Container,
    agree,
    const_of,
    coproduct,
    mount,
    pinned,
    product,
    tensor,
    unit_positions,
)
from lenserv.values import (
    Bool,
    BoolS,
    Inl,
    Inr,
    Int,
    IntS,
    LitS,
    Pair,
    ProdS,
    SumS,
    TextS,
    UnitS,
)


def test_const_positions_ignore_the_shape_value():
    c = const_of(IntS())
    assert c.shape == IntS()
    assert c.position(Int(0)) == IntS()
    assert c.position(Int(-99)) == IntS()


def test_unit_positions():
    c = unit_positions(TextS())
    assert c.shape == TextS()
    assert c.position(Bool(True)) == UnitS()  # any value, same answer


def test_pinned():
    c = pinned(IntS(), TextS())
    assert c.shape == IntS()
    assert c.position(Int(5)) == TextS()


def test_product_positions_are_a_sum():
    c = product(const_of(IntS()), const_of(BoolS()))
    assert c.shape == ProdS(IntS(), BoolS())
    assert c.position(Pair(Int(1), Bool(False))) == SumS(IntS(), BoolS())
    assert c.position(Pair(Int(1), Bool(False))) is c.position(Pair(Int(2), Bool(True)))


def test_coproduct_positions_follow_the_tag():
    c = coproduct(const_of(IntS()), const_of(BoolS()))
    assert c.shape == SumS(IntS(), BoolS())
    assert c.position(Inl(Int(3))) == IntS()
    assert c.position(Inr(Bool(True))) == BoolS()
    with pytest.raises(TypeError):
        c.position(Int(3))


def test_tensor_positions_are_a_product():
    c = tensor(const_of(IntS()), const_of(BoolS()))
    assert c.shape == ProdS(IntS(), BoolS())
    assert c.position(Pair(Int(1), Bool(False))) == ProdS(IntS(), BoolS())
    assert c.position(Pair(Int(1), Bool(False))) is c.position(Pair(Int(2), Bool(True)))


def test_positions_are_total_in_value_dependent_containers():
    # the position family of a coproduct of tensors is still total
    inner = tensor(const_of(IntS()), unit_positions(BoolS()))
    c = coproduct(inner, const_of(TextS()))
    got = c.position(Inl(Pair(Int(2), Bool(True))))
    assert got == ProdS(IntS(), UnitS())


# --------------------------------------------------------------------- agree


A, B, P, Q = IntS(), BoolS(), TextS(), UnitS()

# Containers built by different combinators, each beside its pinned
# twin: the same shape and the one position schema it has everywhere.
TWINS = [
    (tensor(const_of(A), const_of(B)), const_of(ProdS(A, B))),
    (product(const_of(A), const_of(B)), pinned(ProdS(A, B), SumS(A, B))),
    (coproduct(pinned(A, P), pinned(B, P)), pinned(SumS(A, B), P)),
    (mount(LitS("x"), const_of(A)), pinned(ProdS(LitS("x"), A), A)),
]

# The same pairs with one position changed.
SKEWED = [
    (tensor(const_of(A), pinned(B, P)), const_of(ProdS(A, B))),
    (product(const_of(A), const_of(B)), pinned(ProdS(A, B), SumS(A, P))),
    (coproduct(pinned(A, P), pinned(B, Q)), pinned(SumS(A, B), P)),
    (mount(LitS("x"), const_of(A)), pinned(ProdS(LitS("x"), A), B)),
]


def test_agree_on_identical_and_equal_containers():
    a = const_of(IntS())
    assert agree(a, a)
    assert agree(const_of(IntS()), const_of(IntS()))
    assert agree(
        tensor(const_of(IntS()), const_of(BoolS())),
        tensor(const_of(IntS()), const_of(BoolS())),
    )
    for x, y in TWINS:
        assert agree(x, y) and agree(y, x), (x, y)


def test_agree_rejects_different_shapes_and_positions():
    assert not agree(const_of(IntS()), const_of(BoolS()))
    assert not agree(pinned(IntS(), IntS()), pinned(IntS(), BoolS()))
    assert not agree(
        product(const_of(IntS()), const_of(BoolS())),
        tensor(const_of(IntS()), const_of(BoolS())),
    )
    for x, y in SKEWED:
        assert not agree(x, y) and not agree(y, x), (x, y)
    # Positions IntS everywhere but at Inr(Inr(Inr(Inr(Unit())))).
    deep = pinned(UnitS(), BoolS())
    for _ in range(4):
        deep = coproduct(pinned(UnitS(), IntS()), deep)
    assert not agree(deep, pinned(deep.shape, IntS()))


def test_a_formless_container_agrees_only_with_itself():
    def never(v):
        raise AssertionError("agree called a position function")

    handmade = Container(IntS(), never)
    assert agree(handmade, handmade)
    assert not agree(handmade, const_of(IntS()))
    assert not agree(const_of(IntS()), handmade)

    rare = Container(IntS(), lambda v: BoolS() if v.i == 5000 else IntS())
    assert not agree(rare, const_of(IntS()))
