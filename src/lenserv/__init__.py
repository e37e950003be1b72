"""lenserv: composable HTTP servers built from bidirectional lenses.

Endpoints, resources, and whole servers are the same kind of thing: a
lens whose forward direction answers reads and whose backward direction
turns writes into state updates.  Composing the lenses composes the
servers, their routing, and their state.

>>> from lenserv import *
>>> counter = const_of(IntS())
>>> peek = get_lens(UnitS(), counter, IntS(), lambda st, _: st)
>>> poke = post_lens(UnitS(), counter, IntS(), lambda st, _, body: body)
>>> app = ("peek" / peek) & ("poke" / poke)
>>> prepared = prepare(app)
>>> handle_get(prepared, "/peek").body
'0'
>>> handle_post(prepared, "/poke", "42").status
200
>>> handle_get(prepared, "/peek").body
'42'
"""

from .values import (
    Value, Unit, Bool, Int, Nat, Text, Pair, Inl, Inr, List, Map,
    Schema, UnitS, BoolS, IntS, NatS, TextS, LitS, ProdS, SumS, ListS, MapS,
    conforms, is_scalar_schema, encode_json, decode_json, DecodeError,
    default_value, generate_value, map_lookup, map_insert,
)
from .lens import (
    Boundary, identity, fst_lens, snd_lens, LawReport, check_laws,
)
from .containers import (
    Container, const_of, unit_positions, keyed, pinned, product, coproduct,
    tensor, mount, agree,
)
from .deplens import DepLens, BoundaryMismatch, dep_identity, dep_compose, dep_parallel
from .servers import (
    Server, HandlerError, lens_server, reparam_server, seq_server,
    pre_compose, post_compose, ext_choice, clone_choice,
    state_server, get_lens, post_lens, path_prefix, capture_prefix,
)
from .routing import (
    UriParser, NotRoutable, parser_for, parse_uri, seq_parser, alt_parser,
    render_uri, describe_routes,
)
from .state import (
    ActionDerivationError, StateContractError, derive_action, initial_state,
    StateCell,
)
from .engine import (
    EngineConfig, MAX_BODY_BYTES, IDLE_TIMEOUT_S, HttpResponse, PrepareError,
    PreparedServer, prepare, handle_get, handle_post, serve, serve_background,
)
from .demos import build_calculator, build_iot, build_todo, build_combined, DEMOS

from . import containers, demos, deplens, engine, lens, routing, servers, state, values

__version__ = "0.1.0"

__all__ = (values.__all__ + lens.__all__ + containers.__all__
           + deplens.__all__ + servers.__all__ + routing.__all__
           + state.__all__ + engine.__all__ + demos.__all__)
