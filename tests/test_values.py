import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_schema
from lenserv.values import (
    Bool,
    BoolS,
    DecodeError,
    Inl,
    Inr,
    Int,
    IntS,
    List,
    ListS,
    LitS,
    Map,
    MapS,
    Nat,
    NatS,
    Pair,
    ProdS,
    SumS,
    Text,
    TextS,
    Unit,
    UnitS,
    conforms,
    decode_json,
    default_value,
    encode_json,
    enumerate_values,
    generate_value,
    map_insert,
    map_lookup,
)


def schemas(max_leaves=8):
    scalars = st.sampled_from(
        [UnitS(), BoolS(), IntS(), NatS(), TextS(), LitS("k")]
    )
    keys = st.sampled_from([IntS(), NatS(), TextS(), BoolS()])
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda ab: ProdS(ab[0], ab[1])),
            st.tuples(inner, inner).map(lambda ab: SumS(ab[0], ab[1])),
            inner.map(ListS),
            st.tuples(keys, inner).map(lambda kv: MapS(kv[0], kv[1])),
        ),
        max_leaves=max_leaves,
    )


# ---------------------------------------------------------------- wellformed


def test_nat_rejects_negative():
    with pytest.raises(ValueError):
        Nat(-1)


def test_map_rejects_duplicate_keys():
    with pytest.raises(ValueError):
        Map(((Int(1), Text("a")), (Int(1), Text("b"))))


def test_lit_schema_validation():
    with pytest.raises(ValueError):
        LitS("")
    with pytest.raises(ValueError):
        LitS("a/b")


def test_map_schema_requires_scalar_key():
    with pytest.raises(ValueError):
        MapS(ProdS(IntS(), IntS()), TextS())


# ------------------------------------------------------------------ conforms


def test_conforms_examples():
    assert conforms(UnitS(), Unit())
    assert conforms(NatS(), Nat(0))
    assert not conforms(NatS(), Int(3))
    assert not conforms(IntS(), Bool(True))
    assert conforms(LitS("add"), Text("add"))
    assert not conforms(LitS("add"), Text("sub"))
    assert conforms(ProdS(IntS(), BoolS()), Pair(Int(1), Bool(False)))
    assert conforms(SumS(IntS(), TextS()), Inl(Int(5)))
    assert conforms(SumS(IntS(), TextS()), Inr(Text("x")))
    assert not conforms(SumS(IntS(), TextS()), Inl(Text("x")))
    assert conforms(ListS(IntS()), List((Int(1), Int(2))))
    assert not conforms(ListS(IntS()), List((Int(1), Bool(True))))
    m = Map(((Nat(7), List((Text("a"),))),))
    assert conforms(MapS(NatS(), ListS(TextS())), m)


# --------------------------------------------------------------------- codec


def test_encode_examples():
    assert encode_json(Unit()) == "null"
    assert encode_json(Bool(True)) == "true"
    assert encode_json(Int(-4)) == "-4"
    assert encode_json(Text("hi")) == '"hi"'
    assert encode_json(Pair(Int(1), Text("a"))) == '[1,"a"]'
    assert encode_json(Inl(Int(5))) == '{"L":5}'
    assert encode_json(Inr(Text("x"))) == '{"R":"x"}'
    assert encode_json(List((Int(1), Int(2)))) == "[1,2]"
    m = Map(((Nat(1), Text("a")), (Nat(2), Text("b"))))
    assert encode_json(m) == '[[1,"a"],[2,"b"]]'


def test_encode_is_insertion_ordered_for_maps():
    m = map_insert(map_insert(Map(()), Nat(9), Text("x")), Nat(1), Text("y"))
    assert encode_json(m) == '[[9,"x"],[1,"y"]]'
    # replacing a key keeps its original slot
    m2 = map_insert(m, Nat(9), Text("z"))
    assert encode_json(m2) == '[[9,"z"],[1,"y"]]'


def test_decode_examples():
    assert decode_json(SumS(IntS(), TextS()), '{"L":5}') == Inl(Int(5))
    assert decode_json(ProdS(IntS(), IntS()), "[2,-3]") == Pair(Int(2), Int(-3))
    assert decode_json(UnitS(), "null") == Unit()
    assert decode_json(ListS(BoolS()), "[true,false]") == List(
        (Bool(True), Bool(False))
    )


@pytest.mark.parametrize(
    "schema, text",
    [
        (IntS(), "true"),  # bools are not ints
        (IntS(), "1.0"),  # no floats
        (IntS(), "NaN"),
        (IntS(), "Infinity"),
        (NatS(), "-1"),
        (BoolS(), "1"),
        (UnitS(), "0"),
        (TextS(), "5"),
        (ProdS(IntS(), IntS()), "[1]"),
        (ProdS(IntS(), IntS()), "[1,2,3]"),
        (SumS(IntS(), IntS()), '{"X":1}'),
        (SumS(IntS(), IntS()), '{"L":1,"R":2}'),
        (ListS(IntS()), '{"L":1}'),
        (MapS(NatS(), IntS()), "[[1,2],[1,3]]"),  # duplicate key
        (IntS(), "not json"),
        (LitS("add"), '"sub"'),
    ],
)
def test_decode_rejections(schema, text):
    with pytest.raises(DecodeError):
        decode_json(schema, text)


@settings(max_examples=200)
@given(schemas(), st.integers(0, 2**32))
def test_codec_roundtrip(schema, seed):
    v = generate_value(schema, random.Random(seed))
    assert conforms(schema, v)
    assert decode_json(schema, encode_json(v)) == v


# ------------------------------------------------------------------ defaults


def test_default_values():
    assert default_value(UnitS()) == Unit()
    assert default_value(BoolS()) == Bool(False)
    assert default_value(IntS()) == Int(0)
    assert default_value(NatS()) == Nat(0)
    assert default_value(TextS()) == Text("")
    assert default_value(LitS("add")) == Text("add")
    assert default_value(ProdS(IntS(), BoolS())) == Pair(Int(0), Bool(False))
    assert default_value(SumS(TextS(), IntS())) == Inl(Text(""))
    assert default_value(ListS(IntS())) == List(())
    assert default_value(MapS(NatS(), IntS())) == Map(())


@settings(max_examples=100)
@given(schemas())
def test_default_conforms(schema):
    assert conforms(schema, default_value(schema))


# ----------------------------------------------------------------- enumerate


def test_enumerate_finite():
    vals = enumerate_values(ProdS(BoolS(), SumS(UnitS(), BoolS())))
    assert vals is not None
    assert len(vals) == 2 * 3
    assert len(set(vals)) == len(vals)


def test_enumerate_infinite_is_none():
    assert enumerate_values(IntS()) is None
    assert enumerate_values(ListS(UnitS())) is None
    assert enumerate_values(ProdS(BoolS(), TextS())) is None


# ----------------------------------------------------------------------- map


def test_map_lookup_and_insert():
    m = Map(())
    assert map_lookup(m, Nat(3), List(())) == List(())
    m = map_insert(m, Nat(3), List((Text("a"),)))
    assert map_lookup(m, Nat(3), List(())) == List((Text("a"),))


def _stranger(rng):
    """A value that may or may not conform to anything in particular."""
    return generate_value(random_schema(rng), rng)


def _edit(s, v, rng, keep):
    """A new version of ``v`` that shares some of its subtrees with it
    (the very objects) and replaces others, conforming or not.  Maps
    made by ``map_insert`` keep their bases alive in ``keep``."""
    roll = rng.random()
    if roll < 0.3:
        return v
    if roll < 0.4:
        return generate_value(s, rng)
    if roll < 0.5:
        return _stranger(rng)
    if isinstance(v, Pair):
        return Pair(_edit(s.left, v.first, rng, keep), _edit(s.right, v.second, rng, keep))
    if isinstance(v, Inl):
        return Inl(_edit(s.left, v.value, rng, keep))
    if isinstance(v, Inr):
        return Inr(_edit(s.right, v.value, rng, keep))
    if isinstance(v, List):
        items = [_edit(s.elem, x, rng, keep) for x in v.items]
        if items and rng.random() < 0.3:
            del items[rng.randrange(len(items))]   # later slots shift
        if rng.random() < 0.3:
            items.append(_stranger(rng) if rng.random() < 0.5
                         else generate_value(s.elem, rng))
        return List(tuple(items))
    if isinstance(v, Map):
        if rng.random() < 0.6:
            return _insert_chain(s, v, rng, keep)
        entries = [(k, _edit(s.val, x, rng, keep)) for k, x in v.entries]
        if rng.random() < 0.2:
            rng.shuffle(entries)
        if rng.random() < 0.3:
            k = _stranger(rng) if rng.random() < 0.3 else generate_value(s.key, rng)
            if all(k != old for old, _ in entries):
                entries.append((k, generate_value(s.val, rng)))
        return Map(tuple(entries))
    return v


def _insert_chain(s, v, rng, keep):
    """One to three ``map_insert`` stores on ``v`` itself, on a sibling
    of ``v`` (another insert on it), or on a stale base (an edited copy
    of ``v``)."""
    roll = rng.random()
    if roll < 0.5:
        base = v
    elif roll < 0.75:
        base = map_insert(v, *_store(s, v, rng, keep))
    else:
        base = _edit(s, v, rng, keep)
        if not isinstance(base, Map):
            return base
    for _ in range(rng.randint(1, 3)):
        keep.append(base)
        base = map_insert(base, *_store(s, v, rng, keep))
    return base


def _store(s, v, rng, keep):
    """A key and a value to store: a key of ``v`` with an edit of its
    value, which for a list may be a new item in front of or behind
    the shared items, or a new key, conforming or not."""
    if v.entries and rng.random() < 0.6:
        k, x = rng.choice(v.entries)
        if isinstance(x, List) and isinstance(s.val, ListS) and rng.random() < 0.5:
            item = generate_value(s.val.elem, rng) if rng.random() < 0.5 else _stranger(rng)
            return k, List((item,) + x.items if rng.random() < 0.5 else x.items + (item,))
        return k, _edit(s.val, x, rng, keep)
    k = generate_value(s.key, rng) if rng.random() < 0.7 else _stranger(rng)
    return k, generate_value(s.val, rng) if rng.random() < 0.7 else _stranger(rng)


def test_conforms_with_a_known_value_agrees_with_the_full_check():
    rng = random.Random(20260)
    outcomes, inserted = set(), []
    for _ in range(3000):
        s = random_schema(rng)
        known = generate_value(s, rng)
        assert conforms(s, known)
        keep = []
        v = _edit(s, known, rng, keep)
        full = conforms(s, v)
        assert conforms(s, v, known) == full, (s, v, known)
        outcomes.add(full)
        if keep:
            inserted.append(full)
    assert outcomes == {True, False}
    assert len(inserted) >= 200 and set(inserted) == {True, False}


def test_conforms_with_a_known_value_checks_every_fresh_part():
    s = MapS(NatS(), ListS(TextS()))
    known = Map(tuple((Nat(u), List((Text("a"),))) for u in range(50)))
    bad_value = map_insert(known, Nat(25), List((Text("b"), Int(1))))
    bad_item = map_insert(known, Nat(25), List((Int(1),) + map_lookup(known, Nat(25)).items))
    bad_key = map_insert(known, Int(-1), List(()))
    for v in (bad_value, bad_item, bad_key):
        assert not conforms(s, v, known)
    assert conforms(s, map_insert(known, Nat(25), List(())), known)
    # a known value never vouches for something that is not a value
    assert not conforms(IntS(), None, None)
    assert not conforms(ListS(UnitS()), List((None,)), List(()))


def _todo_with_one_bad_entry(users, bad_at):
    todo = MapS(NatS(), ListS(TextS()))
    entries = [(Nat(u), List((Text("a"),))) for u in range(users)]
    good = Map(entries)
    entries[bad_at] = (Nat(bad_at), List((Int(1),)))
    return todo, good, Map(entries)


def test_an_inserted_map_is_checked_by_its_one_entry_against_its_own_base():
    # A known value that breaks its contract elsewhere shows which path
    # ran: the one-entry check trusts it, the full scan does not.
    todo, good, bad = _todo_with_one_bad_entry(50, 10)
    v = map_insert(bad, Nat(30), List(()))
    assert conforms(todo, v, bad)
    assert not conforms(todo, v)
    assert not conforms(todo, map_insert(bad, Nat(30), List((Int(2),))), bad)
    assert not conforms(todo, map_insert(bad, Int(-1), List(())), bad)
    assert conforms(todo, map_insert(good, Nat(10), List((Text("b"),))), good)


def test_an_inserted_map_from_another_base_is_scanned_in_full():
    todo, good, bad = _todo_with_one_bad_entry(50, 10)
    assert good == map_insert(bad, Nat(10), List((Text("a"),)))
    v = map_insert(bad, Nat(30), List(()))
    assert not conforms(todo, v, good)
    chain = map_insert(map_insert(good, Nat(10), List((Int(1),))), Nat(31), List(()))
    assert not conforms(todo, chain, good)
    # once its base is collected a Map vouches for nothing, even when
    # checked with no known value at all
    del bad
    assert v._base() is None
    assert not conforms(todo, v)
    assert not conforms(todo, v, good)


def test_pickle_and_deepcopy_drop_the_insert_provenance():
    todo, good, bad = _todo_with_one_bad_entry(50, 10)
    v = map_insert(bad, Nat(30), List(()))
    for twin in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
        assert twin == v
        assert twin._base is None and twin._key is None
        assert not conforms(todo, twin, bad)
    assert conforms(todo, v, bad)


# ------------------------------------------------------------- map model


def test_map_matches_an_association_list_model():
    rng = random.Random(41)
    for _ in range(200):
        m, model = Map(()), []
        for _ in range(rng.randint(0, 30)):
            key = Nat(rng.randrange(12))
            if rng.random() < 0.6:
                value = Text(str(rng.randrange(100)))
                m = map_insert(m, key, value)
                slot = next((i for i, (k, _) in enumerate(model) if k == key), None)
                if slot is None:
                    model.append((key, value))
                else:
                    model[slot] = (key, value)   # replacement keeps the slot
            expected = next((x for k, x in model if k == key), None)
            assert map_lookup(m, key) == expected
            assert m.entries == tuple(model)
        assert m == Map(tuple(model))
        text = encode_json(m)
        assert text == "[%s]" % ",".join(
            '[%d,"%s"]' % (k.n, x.s) for k, x in model)
        assert decode_json(MapS(NatS(), TextS()), text) == m
        if len(model) > 1:
            assert m != Map(tuple(reversed(model)))   # order is significant
            k, x = rng.choice(model)
            with pytest.raises(ValueError):
                Map(tuple(model) + ((k, x),))
            with pytest.raises(DecodeError):
                decode_json(MapS(NatS(), TextS()),
                            text[:-1] + ',[%d,"%s"]]' % (k.n, x.s))


def test_map_is_immutable_and_hashable():
    m = Map(((Nat(1), Text("a")),))
    with pytest.raises(AttributeError):
        m.entries = ()
    assert hash(m) == hash(Map([[Nat(1), Text("a")]]))
    assert repr(m) == "Map([(Nat(1), Text('a'))])"


REPRS = [
    (Unit(), "Unit()"),
    (Bool(True), "Bool(True)"),
    (Int(-3), "Int(-3)"),
    (Nat(4), "Nat(4)"),
    (Text("it's"), "Text(\"it's\")"),
    (Pair(Int(1), Unit()), "Pair(Int(1), Unit())"),
    (Inl(Bool(False)), "Inl(Bool(False))"),
    (Inr(Text("x")), "Inr(Text('x'))"),
    (List((Nat(1), Nat(2))), "List([Nat(1), Nat(2)])"),
    (Map(((Nat(1), List(())),)), "Map([(Nat(1), List([]))])"),
    (UnitS(), "UnitS"),
    (BoolS(), "BoolS"),
    (IntS(), "IntS"),
    (NatS(), "NatS"),
    (TextS(), "TextS"),
    (LitS("add"), "LitS('add')"),
    (ProdS(IntS(), TextS()), "ProdS(IntS, TextS)"),
    (SumS(UnitS(), LitS("x")), "SumS(UnitS, LitS('x'))"),
    (ListS(NatS()), "ListS(NatS)"),
    (MapS(NatS(), ListS(TextS())), "MapS(NatS, ListS(TextS))"),
]


@pytest.mark.parametrize("thing, text", REPRS, ids=[type(x).__name__ for x, _ in REPRS])
def test_repr_of_each_kind(thing, text):
    assert repr(thing) == text


def test_map_survives_pickle_and_deepcopy_and_stays_frozen():
    built = Map(((Nat(1), Text("a")), (Nat(2), Text("b"))))
    grown = map_insert(map_insert(built, Nat(3), Text("c")), Nat(1), Text("z"))
    for m in (built, grown):
        for twin in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert twin == m
            assert twin.entries == m.entries
            assert map_lookup(twin, Nat(1)) == map_lookup(m, Nat(1))
            assert encode_json(twin) == encode_json(m)
        with pytest.raises(FrozenInstanceError):
            m.entries = ()
        with pytest.raises(FrozenInstanceError):
            m._index = {}
    assert grown.entries == ((Nat(1), Text("z")), (Nat(2), Text("b")), (Nat(3), Text("c")))


def _lookup_comparisons(monkeypatch, size):
    m = Map(tuple((Nat(u), Text(str(u))) for u in range(size)))
    calls = [0]
    real = Nat.__eq__

    def counting(self, other):
        calls[0] += 1
        return real(self, other)

    key = Nat(size - 1)   # the last slot: a linear scan's worst case
    with monkeypatch.context() as patch:
        patch.setattr(Nat, "__eq__", counting)
        found = map_lookup(m, key)
    assert found == Text(str(size - 1))
    return calls[0]


def test_map_lookup_does_not_scan_the_entries(monkeypatch):
    assert _lookup_comparisons(monkeypatch, 5000) <= _lookup_comparisons(monkeypatch, 100)
