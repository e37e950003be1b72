"""In-process sweeps over ``>> lens`` nesting depth and todo state size,
built only from the library's public constructors and combinators.

Each sweep times one layer call directly and checks that its result
equals what ``handle_post`` returns on a twin ``PreparedServer`` built
the same way.
"""

import random
import statistics
from time import perf_counter_ns

from lenserv import (
    Boundary, DepLens, Int, IntS, List, Map, Nat, Pair, Server, Text, Unit,
    UnitS, build_todo, const_of, encode_json, handle_post, identity, parse_uri,
    prepare, tensor,
)


DEPTHS = (1, 4, 16)
DEPTH_CALLS = 300
USER_COUNTS = {100: 60, 1000: 20, 5000: 8}   # users -> timed apply_diff calls


class SweepMismatch(Exception):
    """A directly timed call disagreed with ``handle_post`` on a twin."""


def _median_us(fn, calls: int) -> float:
    times = []
    for _ in range(calls):
        t0 = perf_counter_ns()
        fn()
        times.append(perf_counter_ns() - t0)
    return statistics.median(times) / 1000


def counting_chain(depth: int):
    """``"set" / (base >> id >> ... >> id)`` with ``depth`` identity
    lenses.  ``base`` is ``state_server(const_of(IntS()))`` spelled out
    so that its read is a user handler that counts its calls."""
    calls = [0]
    state, unit = const_of(IntS()), const_of(UnitS())

    def read(v):
        calls[0] += 1
        return v.second

    base = Server(unit, state, state,
                  DepLens(tensor(unit, state), state, read, lambda v, r: Pair(Unit(), r)))
    step = identity(Boundary(IntS(), IntS()))
    server = base
    for _ in range(depth):
        server = server >> step
    return "set" / server, calls


def depth_sweep() -> dict:
    out = {}
    x, state, body = Pair(Text("set"), Unit()), Int(0), Int(7)
    for depth in DEPTHS:
        server, _ = counting_chain(depth)
        result = server.lens.update(Pair(x, state), body)
        out[f"servers.update.depth{depth}_us"] = _median_us(
            lambda: server.lens.update(Pair(x, state), body), DEPTH_CALLS)

        twin_server, calls = counting_chain(depth)
        twin = prepare(twin_server)
        calls[0] = 0
        resp = handle_post(twin, "/set", encode_json(body))
        if (resp.status, resp.body) != (200, encode_json(result.first)) \
                or twin.cell.snapshot() != result.second:
            raise SweepMismatch(f"depth {depth}: {resp} vs {result}")
        out[f"servers.handler_calls.depth{depth}"] = calls[0]
    return out


def todo_state(users: int, rng: random.Random) -> Map:
    return Map(tuple(
        (Nat(u), List(tuple(Text(f"item {rng.randrange(1000)}") for _ in range(3))))
        for u in range(users)))


def state_sweep(seed: int) -> dict:
    out = {}
    rng = random.Random(f"state_sweep:{seed}")
    for users, calls in USER_COUNTS.items():
        initial = todo_state(users, rng)
        p = prepare(build_todo(), initial=initial)
        twin = prepare(build_todo(), initial=initial)
        path = f"/add/{rng.randrange(users)}"
        x = parse_uri(p.server.left.shape, path)
        body = Text("new item")
        result = p.server.lens.update(Pair(x, p.cell.snapshot()), body)
        # The todo state is const, so its diff is the whole new state and
        # applying it again leaves the state where the first call put it.
        out[f"state.apply_diff.users{users}_us"] = _median_us(
            lambda: p.cell.apply_diff(result.second), calls)

        resp = handle_post(twin, path, encode_json(body))
        if (resp.status, resp.body) != (200, encode_json(result.first)) \
                or twin.cell.snapshot() != p.cell.snapshot():
            raise SweepMismatch(f"{users} users: {resp} vs {result.first}")
    return out
