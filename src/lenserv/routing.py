"""Request paths as grammars derived from schemas.

A schema built from unit, literals, scalar captures, products, and sums
reads as a path grammar: products sequence segments, sums are ordered
alternatives, literals match themselves, and Int/Nat/Text/Bool each
match one typed segment.  ``parser_for`` derives the grammar once for
all equal schemas, and each schema kind defines three things side by
side: how it matches segments (``run``), how a value renders back to
segments (``render``), and its alternatives as ``describe_routes`` lists
them (``routes``).  ``parse_uri`` turns a path into the schema's value;
``render_uri`` goes the other way.

Matching is deterministic: an alternative commits to the first branch
that matches locally, and the whole parse succeeds only when every
segment is consumed.  Segments are percent-decoded before matching, and
one trailing slash is ignored.  A numeral longer than ``int()``
converts matches no capture.  A path with a character outside ASCII
or an escape that is not UTF-8 matches nothing: decoding it would
replace bytes with U+FFFD, or read raw bytes as Latin-1, and so capture
the same text as some well-formed path.
"""

import itertools
import re
from dataclasses import dataclass
from typing import Callable
from urllib.parse import quote, unquote

from .values import (
    Bool, BoolS, Inl, Inr, Int, IntS, ListS, LitS, MapS, Nat, NatS, Pair,
    ProdS, Schema, SumS, Text, TextS, Unit, UnitS, Value, conforms, per_schema,
)


__all__ = [
    "UriParser", "NotRoutable", "parser_for", "parse_uri",
    "seq_parser", "alt_parser", "render_uri", "describe_routes",
]


class NotRoutable(Exception):
    """The schema contains a part with no path grammar (lists, maps)."""


@dataclass(frozen=True)
class UriParser:
    """A schema's path grammar.  ``run(segments, cursor)`` returns the
    parsed value with the new cursor, or None; ``render(value)`` returns
    a conforming value's segments; ``routes`` holds one tuple per
    alternative of ``("lit", text)`` and ``("cap", kind)`` parts."""

    schema: Schema
    run: Callable[[list, int], tuple | None]
    render: Callable[[Value], list] | None = None
    routes: tuple = ()

    def parse(self, segments: list) -> Value | None:
        """The value of the whole of ``segments``, or None."""
        out = self.run(segments, 0)
        if out is None or out[1] != len(segments):
            return None
        return out[0]


def _segment(s: Schema, match: Callable[[str], Value | None],
             render: Callable[[Value], str], part: tuple) -> UriParser:
    def run(segments, i):
        if i >= len(segments):
            return None
        try:
            v = match(segments[i])
        except ValueError:  # a numeral longer than int() converts
            return None
        return None if v is None else (v, i + 1)

    def render_one(v):
        seg = render(v)
        if not seg:
            raise ValueError(f"an empty {s!r} capture has no path segment")
        return [seg]
    return UriParser(s, run, render_one, ((part,),))


_INT_RE = re.compile(r"-?[0-9]+\Z")
_NAT_RE = re.compile(r"[0-9]+\Z")


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
    return UriParser(ProdS(a.schema, b.schema), run,
                     lambda v: a.render(v.first) + b.render(v.second),
                     tuple(x + y for x in a.routes for y in b.routes))


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
    return UriParser(SumS(a.schema, b.schema), run,
                     lambda v: (a if isinstance(v, Inl) else b).render(v.value),
                     a.routes + b.routes)


@per_schema
def parser_for(s: Schema) -> UriParser:
    """Derive the path grammar of a schema, or raise NotRoutable."""
    if isinstance(s, UnitS):
        return UriParser(s, lambda segments, i: (Unit(), i), lambda v: [], ((),))
    if isinstance(s, LitS):
        lit = s.lit
        return _segment(s, lambda seg: Text(seg) if seg == lit else None,
                        lambda v: v.s, ("lit", lit))
    if isinstance(s, TextS):
        return _segment(s, lambda seg: Text(seg) if seg else None,
                        lambda v: v.s, ("cap", "Text"))
    if isinstance(s, IntS):
        return _segment(s, lambda seg: Int(int(seg)) if _INT_RE.match(seg) else None,
                        lambda v: str(v.i), ("cap", "Int"))
    if isinstance(s, NatS):
        return _segment(s, lambda seg: Nat(int(seg)) if _NAT_RE.match(seg) else None,
                        lambda v: str(v.n), ("cap", "Nat"))
    if isinstance(s, BoolS):
        return _segment(s, lambda seg: Bool(seg == "true") if seg in ("true", "false") else None,
                        lambda v: "true" if v.b else "false", ("cap", "Bool"))
    if isinstance(s, ProdS):
        return seq_parser(parser_for(s.left), parser_for(s.right))
    if isinstance(s, SumS):
        return alt_parser(parser_for(s.left), parser_for(s.right))
    if isinstance(s, (ListS, MapS)):
        raise NotRoutable(f"{s!r} has no path grammar")
    raise TypeError(f"unknown schema {s!r}")


def split_path(path: str) -> list | None:
    """Split a request path into decoded segments, or None when the
    path is not path-shaped: no leading slash, a character outside
    ASCII, or a percent-escape that is not UTF-8."""
    if not path.startswith("/") or not path.isascii():
        return None
    if len(path) > 1 and path.endswith("/"):
        path = path[:-1]
    rest = path[1:]
    if not rest:
        return []
    if "%" not in rest:
        return rest.split("/")
    try:
        return [unquote(seg, errors="strict") for seg in rest.split("/")]
    except UnicodeDecodeError:
        return None


def parse_uri(s: Schema, path: str) -> Value | None:
    """Parse a full request path against a schema.

    >>> parse_uri(ProdS(LitS("add"), ProdS(IntS(), IntS())), "/add/2/-3")
    Pair(Text('add'), Pair(Int(2), Int(-3)))
    >>> parse_uri(IntS(), "/1/2") is None
    True
    """
    parser = parser_for(s)
    segments = split_path(path)
    return None if segments is None else parser.parse(segments)


def render_uri(s: Schema, v: Value) -> str:
    """Print a conforming value as a path; inverse of ``parse_uri`` on
    grammars whose alternatives are distinguishable.  Raises ValueError
    for a value that no path parses back to: one that does not conform,
    or one with an empty text capture."""
    if not conforms(s, v):
        raise ValueError(f"{v!r} does not conform to {s!r}")
    return "/" + "/".join(quote(seg, safe="") for seg in parser_for(s).render(v))


def describe_routes(s: Schema) -> list:
    """One pattern string per alternative of the path grammar, with
    captures numbered left to right within each pattern."""
    routes = []
    for alt in parser_for(s).routes:
        n = itertools.count(1)
        routes.append("/" + "/".join(text if kind == "lit" else f"{text}:n{next(n)}"
                                     for kind, text in alt))
    return routes
