import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # A scalar member's payload is of the class decoding gives.
    assert not conforms(BoolS(), Bool(1))
    assert not conforms(IntS(), Int(True))
    assert not conforms(NatS(), Nat(True))
    assert not conforms(IntS(), Int(1.5))
    assert conforms(LitS("add"), Text("add"))
    assert not conforms(TextS(), Text("\ud800"))  # UTF-8 cannot carry it
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
    # One case per value class, as the encoder's table renders it.
    assert encode_json(Bool(False)) == "false"
    assert encode_json(Nat(0)) == "0"
    assert encode_json(Text("é日\U0001F600")) == '"é日\U0001F600"'
    assert encode_json(Text('q"\\\n\x00')) == '"q\\"\\\\\\n\\u0000"'
    assert encode_json(Pair(Unit(), Pair(Bool(True), Unit()))) == "[null,[true,null]]"
    assert encode_json(Inl(Inr(Inl(Unit())))) == '{"L":{"R":{"L":null}}}'
    assert encode_json(Inr(Pair(Inl(Nat(3)), Inr(List(()))))) == '{"R":[{"L":3},{"R":[]}]}'
    assert encode_json(List((List(()), List((Text("ü"),))))) == '[[],["ü"]]'
    assert encode_json(Map(())) == "[]"
    unsorted = Map(((Text("z"), Int(1)), (Text("a"), Map(((Int(-1), Unit()),))),
                    (Text("m"), Int(3))))
    assert encode_json(unsorted) == '[["z",1],["a",[[-1,null]]],["m",3]]'
    with pytest.raises(TypeError, match="unknown value"):
        encode_json(Pair(Int(1), object()))


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
    # an escaped surrogate pair is one character; non-ASCII text is fine
    assert decode_json(TextS(), '"\\ud83d\\ude00 \u00e9"') == Text("\U0001f600 \u00e9")


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
        (TextS(), '"\\ud800"'),  # a lone surrogate is not UTF-8-encodable
        (MapS(TextS(), IntS()), '[["a\\udfff",1]]'),
        (IntS(), "\ufeff1"),  # a byte order mark is not JSON
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


# ----------------------------------------------------------------------- map


def test_map_lookup_and_insert():
    m = Map(())
    assert map_lookup(m, Nat(3), List(())) == List(())
    m = map_insert(m, Nat(3), List((Text("a"),)))
    assert map_lookup(m, Nat(3), List(())) == List((Text("a"),))


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


@settings(max_examples=100)
@given(schemas())
def test_a_derived_schema_pickles_and_copies_as_its_fields(schema):
    fresh = pickle.dumps(schema)
    assert conforms(schema, default_value(schema))  # derives it, if not yet
    assert pickle.dumps(schema) == fresh
    for twin in (pickle.loads(fresh), copy.deepcopy(schema), copy.copy(schema)):
        assert twin == schema and hash(twin) == hash(schema) and repr(twin) == repr(schema)
