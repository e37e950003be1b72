import random

import pytest

from conftest import ADDRESS, USER, address_lens, append_lens, street_number_lens
from lenserv.containers import const_of, coproduct, pinned
from lenserv.deplens import BoundaryMismatch, DepLens
from lenserv.lens import (
    Boundary,
    check_laws,
    compose,
    fst_lens,
    identity,
    parallel,
    snd_lens,
)
from lenserv.values import (
    Bool,
    BoolS,
    Int,
    IntS,
    List,
    ListS,
    Pair,
    ProdS,
    Text,
    TextS,
    generate_value,
)


def test_projection_lenses():
    s = ProdS(IntS(), TextS())
    p = Pair(Int(4), Text("x"))
    assert fst_lens(s).view(p) == Int(4)
    assert fst_lens(s).update(p, Int(9)) == Pair(Int(9), Text("x"))
    assert snd_lens(s).view(p) == Text("x")
    assert snd_lens(s).update(p, Text("y")) == Pair(Int(4), Text("y"))


def test_compose_rejects_mismatched_boundaries():
    with pytest.raises(BoundaryMismatch):
        compose(fst_lens(ProdS(IntS(), TextS())), fst_lens(ProdS(BoolS(), TextS())))


def _rewrite_street_number(user, n):
    """Oracle: rebuild the user record by hand with a new street number."""
    name = user.first
    addr = user.second.first
    birthdate = user.second.second
    city = addr.first
    street = addr.second.first
    return Pair(name, Pair(Pair(city, Pair(street, n)), birthdate))


def test_composed_record_access_matches_manual_rewrite():
    through = compose(address_lens, street_number_lens)
    rng = random.Random(5)
    for _ in range(100):
        user = generate_value(USER, rng)
        n = generate_value(IntS(), rng)
        assert through.view(user) == user.second.first.second.second
        assert through.update(user, n) == _rewrite_street_number(user, n)


def test_parallel_is_componentwise():
    a = fst_lens(ProdS(IntS(), TextS()))
    b = snd_lens(ProdS(BoolS(), IntS()))
    both = a * b
    rng = random.Random(6)
    for _ in range(200):
        x = generate_value(both.src.shape, rng)
        v = generate_value(both.dst.shape, rng)
        assert both.view(x) == Pair(a.view(x.first), b.view(x.second))
        assert both.update(x, v) == Pair(
            a.update(x.first, v.first), b.update(x.second, v.second)
        )


def test_identity_is_a_unit_for_composition():
    l = address_lens
    left = compose(identity(l.src), l)
    right = compose(l, identity(l.dst))
    rng = random.Random(8)
    for _ in range(200):
        user = generate_value(USER, rng)
        addr = generate_value(ADDRESS, rng)
        assert left.view(user) == l.view(user) == right.view(user)
        assert left.update(user, addr) == l.update(user, addr)
        assert right.update(user, addr) == l.update(user, addr)


def test_composition_is_associative():
    outer = snd_lens(USER)
    mid = fst_lens(ProdS(ADDRESS, TextS()))
    inner = snd_lens(ADDRESS)
    one = compose(compose(outer, mid), inner)
    two = compose(outer, compose(mid, inner))
    rng = random.Random(9)
    for _ in range(300):
        user = generate_value(USER, rng)
        v = generate_value(inner.dst.shape, rng)
        assert one.view(user) == two.view(user)
        assert one.update(user, v) == two.update(user, v)


# ------------------------------------------------------------------ the laws


def test_laws_hold_for_shipped_lenses():
    for l in (
        identity(Boundary(USER, USER)),
        fst_lens(USER),
        snd_lens(USER),
        address_lens,
        street_number_lens,
        compose(address_lens, street_number_lens),
    ):
        report = check_laws(l, n=1000, rng=random.Random(12))
        assert report.ok, str(report)
        assert report.samples == 1000


def test_append_lens_violates_put_put():
    # Brute-force oracle first: enumerate every short Bool list and check
    # by direct evaluation which (x, v) pairs break put-put.
    short_lists = [
        List(items)
        for items in [
            (),
            (Bool(False),),
            (Bool(True),),
            (Bool(False), Bool(False)),
            (Bool(False), Bool(True)),
            (Bool(True), Bool(False)),
            (Bool(True), Bool(True)),
        ]
    ]
    violating = set()
    for x in short_lists:
        for v in (Bool(False), Bool(True)):
            once = append_lens.update(x, v)
            if append_lens.update(once, v) != once:
                violating.add((x, v))
    assert violating, "appending twice must differ from appending once"

    def gen(schema, rng):
        if isinstance(schema, ListS):
            return rng.choice(short_lists)
        return Bool(rng.random() < 0.5)

    report = check_laws(append_lens, n=60, gen=gen, rng=random.Random(4))
    assert report.put_put is not None
    assert report.put_put in violating


def test_law_check_rejects_polymorphic_lenses():
    skewed = DepLens(
        pinned(IntS(), TextS()),
        pinned(IntS(), TextS()),
        view=lambda x: x,
        update=lambda x, v: v,
    )
    with pytest.raises(ValueError):
        check_laws(skewed)


def test_law_check_accepts_parallel_lenses():
    both = fst_lens(ProdS(IntS(), TextS())) * snd_lens(ProdS(BoolS(), IntS()))
    report = check_laws(both, n=500, rng=random.Random(14))
    assert report.ok, str(report)
    assert report.samples == 500

    with pytest.raises(ValueError):
        check_laws(identity(Boundary(IntS(), TextS())))


def test_law_check_rejects_a_lens_polymorphic_at_some_point():
    # Monomorphic at every Inl shape, not at Inr ones; no law may run.
    c = coproduct(const_of(IntS()), pinned(BoolS(), TextS()))

    def update(x, v):
        raise AssertionError("a law ran on a polymorphic lens")

    with pytest.raises(ValueError):
        check_laws(DepLens(c, c, view=lambda x: x, update=update), rng=random.Random(15))


def test_exhaustive_law_check():
    s = ProdS(BoolS(), BoolS())
    report = check_laws(fst_lens(s), exhaustive=True)
    assert report.ok
    assert report.samples == 4 * 2  # every state paired with every part

    with pytest.raises(ValueError):
        check_laws(fst_lens(ProdS(IntS(), BoolS())), exhaustive=True)


def test_reported_counterexamples_are_honest():
    # A view/update pair that silently drops large writes: get-put holds,
    # put-get does not, and the reported pair must actually witness that.
    cap = DepLens(
        const_of(IntS()),
        const_of(IntS()),
        view=lambda x: x,
        update=lambda x, v: v if abs(v.i) <= 10 else x,
    )
    report = check_laws(cap, n=500, rng=random.Random(13))
    assert report.put_get is not None
    x, v = report.put_get
    assert cap.view(cap.update(x, v)) != v
