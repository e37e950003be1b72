"""Request paths as parsers derived from schemas.

A schema built from unit, literals, scalar captures, products, and sums
reads as a path grammar: products sequence segments, sums are ordered
alternatives, literals match themselves, and Int/Nat/Text/Bool each
match one typed segment.  ``parse_uri`` turns a path into the schema's
value; ``render_uri`` goes the other way.

Matching is deterministic: an alternative commits to the first branch
that matches locally, and the whole parse succeeds only when every
segment is consumed.  Segments are percent-decoded before matching, and
one trailing slash is ignored.
"""

import re
from dataclasses import dataclass
from typing import Callable
from urllib.parse import quote, unquote

from .values import (
    Bool, BoolS, Inl, Inr, Int, IntS, ListS, LitS, MapS, Nat, NatS, Pair,
    ProdS, Schema, SumS, Text, TextS, Unit, UnitS, Value, conforms,
)


__all__ = [
    "UriParser", "NotRoutable", "parser_for", "parse_uri",
    "seq_parser", "alt_parser", "render_uri", "describe_routes",
]


class NotRoutable(Exception):
    """The schema contains a part with no path grammar (lists, maps)."""


@dataclass(frozen=True)
class UriParser:
    """A schema and a matcher: ``run(segments, cursor)`` returns the
    parsed value with the new cursor, or None."""

    schema: Schema
    run: Callable[[list, int], tuple | None]


def _segment_parser(s: Schema, match: Callable[[str], Value | None]) -> UriParser:
    def run(segments, i):
        if i >= len(segments):
            return None
        v = match(segments[i])
        return None if v is None else (v, i + 1)
    return UriParser(s, run)


_INT_RE = re.compile(r"-?[0-9]+\Z")
_NAT_RE = re.compile(r"[0-9]+\Z")


def _match_int(seg: str):
    return Int(int(seg)) if _INT_RE.match(seg) else None


def _match_nat(seg: str):
    return Nat(int(seg)) if _NAT_RE.match(seg) else None


def _match_bool(seg: str):
    if seg == "true":
        return Bool(True)
    if seg == "false":
        return Bool(False)
    return None


def _match_text(seg: str):
    return Text(seg) if seg else None


def seq_parser(a: UriParser, b: UriParser) -> UriParser:
    """Run ``a`` then ``b``; pair the results."""
    def run(segments, i):
        ra = a.run(segments, i)
        if ra is None:
            return None
        rb = b.run(segments, ra[1])
        if rb is None:
            return None
        return Pair(ra[0], rb[0]), rb[1]
    return UriParser(ProdS(a.schema, b.schema), run)


def alt_parser(a: UriParser, b: UriParser) -> UriParser:
    """Ordered choice: try ``a`` and commit if it matches, else ``b``.
    Results carry the branch tag."""
    def run(segments, i):
        ra = a.run(segments, i)
        if ra is not None:
            return Inl(ra[0]), ra[1]
        rb = b.run(segments, i)
        if rb is not None:
            return Inr(rb[0]), rb[1]
        return None
    return UriParser(SumS(a.schema, b.schema), run)


def parser_for(s: Schema) -> UriParser:
    """Derive the path parser of a schema, or raise NotRoutable."""
    if isinstance(s, UnitS):
        return UriParser(s, lambda segments, i: (Unit(), i))
    if isinstance(s, LitS):
        lit = s.lit
        return _segment_parser(s, lambda seg: Text(seg) if seg == lit else None)
    if isinstance(s, IntS):
        return _segment_parser(s, _match_int)
    if isinstance(s, NatS):
        return _segment_parser(s, _match_nat)
    if isinstance(s, BoolS):
        return _segment_parser(s, _match_bool)
    if isinstance(s, TextS):
        return _segment_parser(s, _match_text)
    if isinstance(s, ProdS):
        return seq_parser(parser_for(s.left), parser_for(s.right))
    if isinstance(s, SumS):
        return alt_parser(parser_for(s.left), parser_for(s.right))
    if isinstance(s, (ListS, MapS)):
        raise NotRoutable(f"{s!r} has no path grammar")
    raise TypeError(f"unknown schema {s!r}")


def split_path(path: str) -> list | None:
    """Split a request path into decoded segments, or None when the
    path is not even path-shaped (no leading slash)."""
    if not path.startswith("/"):
        return None
    if len(path) > 1 and path.endswith("/"):
        path = path[:-1]
    rest = path[1:]
    if not rest:
        return []
    return [unquote(seg) for seg in rest.split("/")]


def parse_uri(s: Schema, path: str) -> Value | None:
    """Parse a full request path against a schema.

    >>> parse_uri(ProdS(LitS("add"), ProdS(IntS(), IntS())), "/add/2/-3")
    Pair(Text('add'), Pair(Int(2), Int(-3)))
    >>> parse_uri(IntS(), "/1/2") is None
    True
    """
    parser = parser_for(s)
    segments = split_path(path)
    if segments is None:
        return None
    out = parser.run(segments, 0)
    if out is None or out[1] != len(segments):
        return None
    return out[0]


def render_uri(s: Schema, v: Value) -> str:
    """Print a conforming value as a path; inverse of ``parse_uri`` on
    grammars whose alternatives are distinguishable.  Raises ValueError
    for a value that no path parses back to: one that does not conform,
    or one with an empty text capture."""
    if not conforms(s, v):
        raise ValueError(f"{v!r} does not conform to {s!r}")
    segments = _render(s, v)
    if not segments:
        return "/"
    return "/" + "/".join(quote(seg, safe="") for seg in segments)


def _render(s: Schema, v: Value) -> list:
    if isinstance(s, UnitS):
        return []
    if isinstance(s, (LitS, TextS)):
        if not v.s:
            raise ValueError(f"an empty {s!r} capture has no path segment")
        return [v.s]
    if isinstance(s, IntS):
        return [str(v.i)]
    if isinstance(s, NatS):
        return [str(v.n)]
    if isinstance(s, BoolS):
        return ["true" if v.b else "false"]
    if isinstance(s, ProdS):
        return _render(s.left, v.first) + _render(s.right, v.second)
    if isinstance(s, SumS):
        if isinstance(v, Inl):
            return _render(s.left, v.value)
        return _render(s.right, v.value)
    raise NotRoutable(f"{s!r} has no path grammar")


def describe_routes(s: Schema) -> list:
    """One pattern string per alternative of the path grammar, with
    captures numbered left to right within each pattern."""
    routes = []
    for alt in _alternatives(s):
        n = 0
        parts = []
        for kind, text in alt:
            if kind == "cap":
                n += 1
                parts.append(f"{text}:n{n}")
            else:
                parts.append(text)
        routes.append("/" + "/".join(parts) if parts else "/")
    return routes


def _alternatives(s: Schema) -> list:
    if isinstance(s, UnitS):
        return [[]]
    if isinstance(s, LitS):
        return [[("lit", s.lit)]]
    if isinstance(s, IntS):
        return [[("cap", "Int")]]
    if isinstance(s, NatS):
        return [[("cap", "Nat")]]
    if isinstance(s, BoolS):
        return [[("cap", "Bool")]]
    if isinstance(s, TextS):
        return [[("cap", "Text")]]
    if isinstance(s, ProdS):
        return [a + b
                for a in _alternatives(s.left)
                for b in _alternatives(s.right)]
    if isinstance(s, SumS):
        return _alternatives(s.left) + _alternatives(s.right)
    raise NotRoutable(f"{s!r} has no path grammar")
