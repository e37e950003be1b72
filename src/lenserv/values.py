"""First-order data universe shared by every layer of the library.

Values are immutable trees: unit, booleans, integers, naturals, text,
pairs, tagged sums, lists, and ordered maps.  Schemas describe sets of
values, and ``conforms`` decides membership by walking the whole
value; a state commit checks only its diff, so keyed state stays
cheap.  The same universe is used for request paths, request and
response bodies, and server state, so a single canonical JSON codec
(``encode_json`` / ``decode_json``) covers all wire traffic.

Everything here compares structurally, which is what makes lens laws
decidable by testing: two values are equal exactly when their trees are.
"""

import json
import random
from dataclasses import dataclass, fields


__all__ = [
    "Value", "Unit", "Bool", "Int", "Nat", "Text", "Pair", "Inl", "Inr",
    "List", "Map",
    "Schema", "UnitS", "BoolS", "IntS", "NatS", "TextS", "LitS",
    "ProdS", "SumS", "ListS", "MapS",
    "conforms", "is_scalar_schema",
    "DecodeError", "encode_json", "decode_json",
    "default_value", "generate_value", "enumerate_values",
    "map_lookup", "map_insert",
]


# ---------------------------------------------------------------------------
# Values


class Value:
    """Base class for all first-order values."""

    __slots__ = ()

    def __repr__(self):
        args = ", ".join(repr(getattr(self, f.name)) for f in fields(self))
        return f"{type(self).__name__}({args})"


@dataclass(frozen=True, repr=False)
class Unit(Value):
    pass


@dataclass(frozen=True, repr=False)
class Bool(Value):
    b: bool


@dataclass(frozen=True, repr=False)
class Int(Value):
    i: int


@dataclass(frozen=True, repr=False)
class Nat(Value):
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"Nat payload must be >= 0, got {self.n}")


@dataclass(frozen=True, repr=False)
class Text(Value):
    s: str


@dataclass(frozen=True, repr=False)
class Pair(Value):
    first: Value
    second: Value


@dataclass(frozen=True, repr=False)
class Inl(Value):
    value: Value


@dataclass(frozen=True, repr=False)
class Inr(Value):
    value: Value


@dataclass(frozen=True, repr=False)
class List(Value):
    items: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))

    def __repr__(self):
        return f"List({list(self.items)!r})"


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Map(Value):
    """Ordered map with pairwise-distinct keys.

    Entry order is insertion order and is significant for equality and
    for encoding (the codec is bit-exact), though not for key lookup.
    The entries live in one insertion-ordered ``dict``, so a lookup is
    a hash probe and ``map_insert`` a C-level copy plus one store.
    """

    _index: dict

    def __init__(self, entries=()):
        entries = tuple(entries)
        index = dict(entries)
        if len(index) != len(entries):
            seen = set()
            for k, _ in entries:
                if k in seen:
                    raise ValueError(f"duplicate Map key {k!r}")
                seen.add(k)
        object.__setattr__(self, "_index", index)

    @property
    def entries(self) -> tuple:
        return tuple(self._index.items())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self._index, other._index
        return len(a) == len(b) and list(a.items()) == list(b.items())

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Map({list(self._index.items())!r})"


def map_lookup(m: Map, key: Value, default: Value | None = None) -> Value | None:
    return m._index.get(key, default)


def map_insert(m: Map, key: Value, value: Value) -> Map:
    """Insert or replace ``key``; replacement keeps the entry's slot."""
    index = m._index.copy()
    index[key] = value
    out = object.__new__(Map)   # keys stay distinct; skip the constructor's check
    object.__setattr__(out, "_index", index)
    return out


# ---------------------------------------------------------------------------
# Schemas


class Schema:
    """Base class for schemas.  Instances compare structurally, and a
    schema with no fields prints as its bare name."""

    __slots__ = ()

    def __repr__(self):
        args = ", ".join(repr(getattr(self, f.name)) for f in fields(self))
        return f"{type(self).__name__}({args})" if args else type(self).__name__


@dataclass(frozen=True, repr=False)
class UnitS(Schema):
    pass


@dataclass(frozen=True, repr=False)
class BoolS(Schema):
    pass


@dataclass(frozen=True, repr=False)
class IntS(Schema):
    pass


@dataclass(frozen=True, repr=False)
class NatS(Schema):
    pass


@dataclass(frozen=True, repr=False)
class TextS(Schema):
    pass


@dataclass(frozen=True, repr=False)
class LitS(Schema):
    """Singleton schema: exactly the text ``lit``.

    Used for fixed path segments, so the payload may not be empty or
    contain a slash.
    """

    lit: str

    def __post_init__(self):
        if not self.lit or "/" in self.lit:
            raise ValueError(f"literal segment must be non-empty and slash-free: {self.lit!r}")


@dataclass(frozen=True, repr=False)
class ProdS(Schema):
    left: Schema
    right: Schema


@dataclass(frozen=True, repr=False)
class SumS(Schema):
    left: Schema
    right: Schema


@dataclass(frozen=True, repr=False)
class ListS(Schema):
    elem: Schema


@dataclass(frozen=True, repr=False)
class MapS(Schema):
    key: Schema
    val: Schema

    def __post_init__(self):
        if not is_scalar_schema(self.key):
            raise ValueError(f"Map keys must be scalar, got {self.key!r}")


_SCALARS = (UnitS, BoolS, IntS, NatS, TextS, LitS)


def is_scalar_schema(s: Schema) -> bool:
    return isinstance(s, _SCALARS)


# ---------------------------------------------------------------------------
# Conformance


def conforms(s: Schema, v: Value) -> bool:
    """Decide whether ``v`` belongs to the set described by ``s``.

    >>> conforms(ProdS(IntS(), TextS()), Pair(Int(1), Text("x")))
    True
    >>> conforms(NatS(), Int(3))
    False
    """
    if isinstance(s, UnitS):
        return isinstance(v, Unit)
    if isinstance(s, BoolS):
        return isinstance(v, Bool)
    if isinstance(s, IntS):
        return isinstance(v, Int)
    if isinstance(s, NatS):
        return isinstance(v, Nat)
    if isinstance(s, TextS):
        return isinstance(v, Text)
    if isinstance(s, LitS):
        return isinstance(v, Text) and v.s == s.lit
    if isinstance(s, ProdS):
        return (isinstance(v, Pair)
                and conforms(s.left, v.first)
                and conforms(s.right, v.second))
    if isinstance(s, SumS):
        if isinstance(v, Inl):
            return conforms(s.left, v.value)
        if isinstance(v, Inr):
            return conforms(s.right, v.value)
        return False
    if isinstance(s, ListS):
        return isinstance(v, List) and all(conforms(s.elem, x) for x in v.items)
    if isinstance(s, MapS):
        return isinstance(v, Map) and all(
            conforms(s.key, k) and conforms(s.val, x) for k, x in v._index.items())
    raise TypeError(f"unknown schema {s!r}")


# ---------------------------------------------------------------------------
# Canonical JSON codec


class DecodeError(Exception):
    """Raised when text is not valid JSON or does not match the schema."""


def _to_obj(v: Value):
    if isinstance(v, Unit):
        return None
    if isinstance(v, Bool):
        return v.b
    if isinstance(v, Int):
        return v.i
    if isinstance(v, Nat):
        return v.n
    if isinstance(v, Text):
        return v.s
    if isinstance(v, Pair):
        return [_to_obj(v.first), _to_obj(v.second)]
    if isinstance(v, Inl):
        return {"L": _to_obj(v.value)}
    if isinstance(v, Inr):
        return {"R": _to_obj(v.value)}
    if isinstance(v, List):
        return [_to_obj(x) for x in v.items]
    if isinstance(v, Map):
        return [[_to_obj(k), _to_obj(x)] for k, x in v._index.items()]
    raise TypeError(f"unknown value {v!r}")


def encode_json(v: Value) -> str:
    """Deterministic JSON rendering; equal values give identical text.

    >>> encode_json(Pair(Int(2), Inl(Text("hi"))))
    '[2,{"L":"hi"}]'
    """
    return json.dumps(_to_obj(v), separators=(",", ":"), ensure_ascii=False)


def _reject_const(token):
    raise DecodeError(f"non-finite number {token!r} not allowed")


def _from_obj(s: Schema, o) -> Value:
    if isinstance(s, UnitS):
        if o is None:
            return Unit()
    elif isinstance(s, BoolS):
        if isinstance(o, bool):
            return Bool(o)
    elif isinstance(s, IntS):
        if isinstance(o, int) and not isinstance(o, bool):
            return Int(o)
    elif isinstance(s, NatS):
        if isinstance(o, int) and not isinstance(o, bool) and o >= 0:
            return Nat(o)
    elif isinstance(s, TextS):
        if isinstance(o, str):
            return Text(o)
    elif isinstance(s, LitS):
        if o == s.lit:
            return Text(o)
    elif isinstance(s, ProdS):
        if isinstance(o, list) and len(o) == 2:
            return Pair(_from_obj(s.left, o[0]), _from_obj(s.right, o[1]))
    elif isinstance(s, SumS):
        if isinstance(o, dict) and len(o) == 1:
            if "L" in o:
                return Inl(_from_obj(s.left, o["L"]))
            if "R" in o:
                return Inr(_from_obj(s.right, o["R"]))
    elif isinstance(s, ListS):
        if isinstance(o, list):
            return List(tuple(_from_obj(s.elem, x) for x in o))
    elif isinstance(s, MapS):
        if isinstance(o, list):
            entries = []
            for e in o:
                if not (isinstance(e, list) and len(e) == 2):
                    raise DecodeError(f"map entry must be a two-element array, got {e!r}")
                entries.append((_from_obj(s.key, e[0]), _from_obj(s.val, e[1])))
            try:
                return Map(entries)
            except ValueError as exc:
                raise DecodeError(str(exc)) from None
    else:
        raise TypeError(f"unknown schema {s!r}")
    raise DecodeError(f"value {o!r} does not conform to {s!r}")


def decode_json(s: Schema, text: str) -> Value:
    """Schema-directed decoding; the left inverse of ``encode_json``."""
    try:
        obj = json.loads(text, parse_constant=_reject_const)
    except DecodeError:
        raise
    except (ValueError, TypeError) as exc:
        raise DecodeError(f"malformed JSON: {exc}") from None
    if isinstance(obj, float):
        raise DecodeError("floating point numbers are not in the value universe")
    return _from_obj(s, obj)


# ---------------------------------------------------------------------------
# Defaults, generation, enumeration


def default_value(s: Schema) -> Value:
    """The designated initial value of each schema."""
    if isinstance(s, UnitS):
        return Unit()
    if isinstance(s, BoolS):
        return Bool(False)
    if isinstance(s, IntS):
        return Int(0)
    if isinstance(s, NatS):
        return Nat(0)
    if isinstance(s, TextS):
        return Text("")
    if isinstance(s, LitS):
        return Text(s.lit)
    if isinstance(s, ProdS):
        return Pair(default_value(s.left), default_value(s.right))
    if isinstance(s, SumS):
        return Inl(default_value(s.left))
    if isinstance(s, ListS):
        return List(())
    if isinstance(s, MapS):
        return Map(())
    raise TypeError(f"unknown schema {s!r}")


_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 _-"


def generate_value(s: Schema, rng: random.Random) -> Value:
    """Draw a conforming value.  Ints are bounded to +/-1000, Nats to
    0..1000, texts to short strings; containers stay small so sampled
    law checks run fast."""
    if isinstance(s, UnitS):
        return Unit()
    if isinstance(s, BoolS):
        return Bool(rng.random() < 0.5)
    if isinstance(s, IntS):
        return Int(rng.randint(-1000, 1000))
    if isinstance(s, NatS):
        return Nat(rng.randint(0, 1000))
    if isinstance(s, TextS):
        n = rng.randint(0, 8)
        return Text("".join(rng.choice(_ALPHABET) for _ in range(n)))
    if isinstance(s, LitS):
        return Text(s.lit)
    if isinstance(s, ProdS):
        return Pair(generate_value(s.left, rng), generate_value(s.right, rng))
    if isinstance(s, SumS):
        if rng.random() < 0.5:
            return Inl(generate_value(s.left, rng))
        return Inr(generate_value(s.right, rng))
    if isinstance(s, ListS):
        return List(tuple(generate_value(s.elem, rng) for _ in range(rng.randint(0, 4))))
    if isinstance(s, MapS):
        entries = []
        keys = set()
        for _ in range(rng.randint(0, 4)):
            k = generate_value(s.key, rng)
            if k in keys:
                continue
            keys.add(k)
            entries.append((k, generate_value(s.val, rng)))
        return Map(tuple(entries))
    raise TypeError(f"unknown schema {s!r}")


def enumerate_values(s: Schema, limit: int = 512) -> list | None:
    """All values of a finite schema, or None when the schema is
    infinite or the enumeration would exceed ``limit``."""
    if isinstance(s, UnitS):
        return [Unit()]
    if isinstance(s, BoolS):
        return [Bool(False), Bool(True)]
    if isinstance(s, LitS):
        return [Text(s.lit)]
    if isinstance(s, ProdS):
        ls = enumerate_values(s.left, limit)
        rs = enumerate_values(s.right, limit)
        if ls is None or rs is None or len(ls) * len(rs) > limit:
            return None
        return [Pair(a, b) for a in ls for b in rs]
    if isinstance(s, SumS):
        ls = enumerate_values(s.left, limit)
        rs = enumerate_values(s.right, limit)
        if ls is None or rs is None or len(ls) + len(rs) > limit:
            return None
        return [Inl(a) for a in ls] + [Inr(b) for b in rs]
    return None
