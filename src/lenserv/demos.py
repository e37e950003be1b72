"""Three small servers and their combination, built entirely by
composition.

* calculator: four stateless arithmetic endpoints sharing one trivial
  state
* iot: one boolean state tree (boiler, two lights) exposed through
  lens-focused endpoints; POST to a leaf rewrites just that leaf
* todo: per-user todo lists in keyed state; a POST's diff is one entry
* combined: all three mounted side by side; each keeps its own state

``DEMOS`` maps the names the command line accepts to builders.
"""

import sys

from .containers import const_of, keyed
from .lens import fst_lens, snd_lens
from .servers import HandlerError, Server, get_lens, post_lens, state_server
from .values import (
    BoolS, Inr, Int, IntS, List, ListS, NatS, Pair, ProdS, TextS, UnitS,
    map_lookup,
)


__all__ = [
    "build_calculator", "build_iot", "build_todo", "build_combined", "DEMOS",
]


def _div_toward_zero(a: int, b: int) -> int:
    if b == 0:
        raise HandlerError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def build_calculator() -> Server:
    """GET /add/2/3 and friends; no state worth keeping."""
    args = ProdS(IntS(), IntS())
    nothing = const_of(UnitS())

    def endpoint(name, f):
        def handler(st, xy):
            n = f(xy.first.i, xy.second.i)
            limit = sys.get_int_max_str_digits()  # a capture's bound too; 0 is none
            if limit and n.bit_length() > 3 * limit and abs(n) >= 10 ** limit:
                raise HandlerError(f"result has more than {limit} digits")
            return Int(n)
        return name / get_lens(args, nothing, IntS(), handler)

    return (endpoint("add", lambda a, b: a + b)
            & endpoint("sub", lambda a, b: a - b)
            & endpoint("mul", lambda a, b: a * b)
            & endpoint("div", _div_toward_zero))


def build_iot() -> Server:
    """One home: a boiler flag and two light flags.  Every endpoint is
    the whole-state server focused through a projection lens, so a POST
    to /lights/1 rewrites that light and provably nothing else."""
    lights = ProdS(BoolS(), BoolS())
    home = ProdS(BoolS(), lights)
    whole = state_server(const_of(home))

    boiler = "boiler" / (whole >> fst_lens(home))
    both_lights = whole >> snd_lens(home)
    light1 = "1" / (both_lights >> fst_lens(lights))
    light2 = "2" / (both_lights >> snd_lens(lights))
    return boiler & ("lights" / (light1 & light2))


def build_todo() -> Server:
    """Todos per user id: GET /all/<user> lists, POST /add/<user>
    prepends the body text to that user's list."""
    store = keyed(NatS(), ListS(TextS()))
    empty = List(())

    def todos_of(st, user):
        return map_lookup(st, user, empty)

    def add_todo(st, user, item):
        current = map_lookup(st, user, empty)
        return Inr(Pair(user, List((item,) + current.items)))

    get_todos = "all" / get_lens(NatS(), store, ListS(TextS()), todos_of)
    post_todo = "add" / post_lens(NatS(), store, TextS(), add_todo)
    return get_todos & post_todo


def build_combined() -> Server:
    """All three demos under one roof.  External choice keeps the three
    states separate: the combined state is a product, and a request to
    one sub-API can only ever produce a diff for that sub-API's slot."""
    return ("todo" / build_todo()) + (("calculator" / build_calculator())
                                      + ("iot" / build_iot()))


DEMOS = {
    "calculator": build_calculator,
    "iot": build_iot,
    "todo": build_todo,
    "combined": build_combined,
}
