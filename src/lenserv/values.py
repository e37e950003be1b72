"""First-order data universe shared by every layer of the library.

Values are immutable trees: unit, booleans, integers, naturals, text,
pairs, tagged sums, lists, and ordered maps.  Schemas describe sets of
values.  What a schema means is derived once, one case per schema kind:
membership (``conforms`` walks the whole value, so a state commit
checks only its diff), decoding, the default, generation and
enumeration.  The same universe is used for request paths, request and
response bodies, and server state, so a single canonical JSON codec
(``encode_json`` / ``decode_json``) covers all wire traffic.

Everything here compares structurally, which is what makes lens laws
decidable by testing: two values are equal exactly when their trees are.
"""

import functools
import json
import random
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple


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

    def __getstate__(self):
        """Only the fields, without the derivation ``_kind`` keeps here."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
# What each schema means, derived once


class _Kind(NamedTuple):
    """What a schema means, side by side: membership, the decoder from
    parsed JSON, the default, the generator, and all values (or None)."""

    member: Callable[[Value], bool]
    decode: Callable[[object], Value]
    default: Value
    generate: Callable[[random.Random], Value]
    values: tuple | None


# Equal schemas share one derivation.  Bounded, because a hand-rolled
# container's position function may build a new schema for every state.
per_schema = functools.lru_cache(maxsize=1024)

ENUMERATION_LIMIT = 512

_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 _-"

# The scalars with a payload: the value class, which parsed JSON objects
# it decodes, the default payload, how to draw a payload, the values.
_SCALAR_KINDS = {
    BoolS: (Bool, lambda o: o.__class__ is bool, False, lambda rng: rng.random() < 0.5,
            (Bool(False), Bool(True))),
    IntS: (Int, lambda o: o.__class__ is int, 0, lambda rng: rng.randint(-1000, 1000), None),
    NatS: (Nat, lambda o: o.__class__ is int and o >= 0, 0, lambda rng: rng.randint(0, 1000),
           None),
    TextS: (Text, lambda o: o.__class__ is str and (o.isascii() or _utf8(o)), "",
            lambda rng: "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 8))), None),
}


def _utf8(o: str) -> bool:
    """Whether ``o`` encodes as UTF-8, as every answer and snapshot must."""
    try:
        o.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _mismatch(s: Schema, o):
    raise DecodeError(f"value {o!r} does not conform to {s!r}")


def _kind(s: Schema) -> _Kind:
    """What ``s`` means: derived once for all equal schemas, then kept on
    ``s``, so that a schema checked per request is not hashed per request."""
    kind = s.__dict__.get("_kind")
    if kind is None:
        kind = s.__dict__["_kind"] = _derive(s)
    return kind


@per_schema
def _derive(s: Schema) -> _Kind:
    """Derive what ``s`` means from its kind and its parts' kinds."""
    t = s.__class__
    if t in _SCALAR_KINDS:
        cls, ok, payload, draw, values = _SCALAR_KINDS[t]
        # A member text must encode as UTF-8, as a decoded one does.
        member = ((lambda v: v.__class__ is Text and ok(v.s)) if t is TextS
                  else lambda v: v.__class__ is cls)
        return _Kind(member, lambda o: cls(o) if ok(o) else _mismatch(s, o),
                     cls(payload), lambda rng: cls(draw(rng)), values)
    if t is UnitS or t is LitS:
        v0 = Unit() if t is UnitS else Text(s.lit)
        o0 = _to_obj(v0)
        return _Kind(lambda v: v == v0, lambda o: v0 if o == o0 else _mismatch(s, o),
                     v0, lambda rng: v0, (v0,))
    if t is ProdS:
        a, b = _kind(s.left), _kind(s.right)
        finite = a.values and b.values and len(a.values) * len(b.values) <= ENUMERATION_LIMIT
        return _Kind(
            lambda v: v.__class__ is Pair and a.member(v.first) and b.member(v.second),
            lambda o: (Pair(a.decode(o[0]), b.decode(o[1])) if o.__class__ is list and len(o) == 2
                       else _mismatch(s, o)),
            Pair(a.default, b.default),
            lambda rng: Pair(a.generate(rng), b.generate(rng)),
            tuple(Pair(x, y) for x in a.values for y in b.values) if finite else None)
    if t is SumS:
        a, b = _kind(s.left), _kind(s.right)

        def decode(o):
            if o.__class__ is dict and len(o) == 1:
                if "L" in o:
                    return Inl(a.decode(o["L"]))
                if "R" in o:
                    return Inr(b.decode(o["R"]))
            _mismatch(s, o)
        finite = a.values and b.values and len(a.values) + len(b.values) <= ENUMERATION_LIMIT
        return _Kind(
            lambda v: (a.member(v.value) if v.__class__ is Inl
                       else v.__class__ is Inr and b.member(v.value)),
            decode, Inl(a.default),
            lambda rng: Inl(a.generate(rng)) if rng.random() < 0.5 else Inr(b.generate(rng)),
            (*map(Inl, a.values), *map(Inr, b.values)) if finite else None)
    if t is ListS:
        e = _kind(s.elem)
        return _Kind(
            lambda v: v.__class__ is List and all(map(e.member, v.items)),
            lambda o: List(map(e.decode, o)) if o.__class__ is list else _mismatch(s, o),
            List(()), lambda rng: List(e.generate(rng) for _ in range(rng.randint(0, 4))), None)
    if t is MapS:
        k, x = _kind(s.key), _kind(s.val)

        def decode(o):
            if o.__class__ is not list:
                _mismatch(s, o)
            entries = []
            for e in o:
                if not (e.__class__ is list and len(e) == 2):
                    raise DecodeError(f"map entry must be a two-element array, got {e!r}")
                entries.append((k.decode(e[0]), x.decode(e[1])))
            try:
                return Map(entries)
            except ValueError as exc:
                raise DecodeError(str(exc)) from None

        def generate(rng):
            entries = {}
            for _ in range(rng.randint(0, 4)):
                key = k.generate(rng)
                if key not in entries:
                    entries[key] = x.generate(rng)
            return Map(entries.items())
        return _Kind(
            lambda v: (v.__class__ is Map and all(map(k.member, v._index))
                       and all(map(x.member, v._index.values()))),
            decode, Map(()), generate, None)
    raise TypeError(f"unknown schema {s!r}")


def conforms(s: Schema, v: Value) -> bool:
    """Decide whether ``v`` belongs to the set described by ``s``.

    >>> conforms(ProdS(IntS(), TextS()), Pair(Int(1), Text("x")))
    True
    >>> conforms(NatS(), Int(3))
    False
    """
    return _kind(s).member(v)


def default_value(s: Schema) -> Value:
    """The designated initial value of each schema."""
    return _kind(s).default


def generate_value(s: Schema, rng: random.Random) -> Value:
    """Draw a conforming value.  Ints are bounded to +/-1000, Nats to
    0..1000, texts to short strings; containers stay small so sampled
    law checks run fast."""
    return _kind(s).generate(rng)


def enumerate_values(s: Schema) -> list | None:
    """All values of a finite schema, or None when the schema is
    infinite or the enumeration would exceed ``ENUMERATION_LIMIT``."""
    values = _kind(s).values
    return None if values is None else list(values)


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


_encode = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode


def encode_json(v: Value) -> str:
    """Deterministic JSON rendering; equal values give identical text.

    >>> encode_json(Pair(Int(2), Inl(Text("hi"))))
    '[2,{"L":"hi"}]'
    """
    return _encode(_to_obj(v))


def _reject_const(token):
    raise DecodeError(f"non-finite number {token!r} not allowed")


_decode = json.JSONDecoder(parse_constant=_reject_const).decode


def decode_json(s: Schema, text: str) -> Value:
    """Schema-directed decoding; the left inverse of ``encode_json``."""
    try:
        obj = _decode(text)
    except DecodeError:
        raise
    except (ValueError, TypeError, RecursionError) as exc:
        raise DecodeError(f"malformed JSON: {exc}") from None
    if isinstance(obj, float):
        raise DecodeError("floating point numbers are not in the value universe")
    return _kind(s).decode(obj)
