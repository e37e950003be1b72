"""Seeded request lists for each workload, and the reference model that
predicts every response and the final state.

A plan is built once per run from the seed.  Every round of the run
replays the same per-connection lists against a fresh server, so each
round does the same work whatever the build's speed.

Connections never share a mutable iot leaf or todo user, so each
connection's expected responses follow from its own list alone, and the
final state is the union of what each connection wrote.
"""

import json
import random
import string
from dataclasses import dataclass


SMALL_USERS = 40      # todo users in the read_mix / write_mix snapshot
NEW_USERS = 20        # users write_mix may add beyond the snapshot
BIG_USERS = 5000      # todo users in the big_state snapshot
BIG_ITEMS = 3         # items per user in the big_state snapshot
IOT_LEAVES = ("boiler", "lights/1", "lights/2")


def canonical(obj) -> str:
    """The server's canonical JSON text for a decoded value."""
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


@dataclass(frozen=True)
class Request:
    method: str
    path: str
    body: str | None
    status: int
    expect: str | None   # canonical body of a 200; errors must be {"error": str}

    def matches(self, status: int, body: str) -> bool:
        if status != self.status:
            return False
        if status == 200:
            return body == self.expect
        try:
            obj = json.loads(body)
        except ValueError:
            return False
        return isinstance(obj, dict) and list(obj) == ["error"] and isinstance(obj["error"], str)


def _ok(method, path, value, body=None) -> Request:
    return Request(method, path, body, 200, canonical(value))


class Model:
    """The demo state as plain Python: todo lists by user (insertion
    ordered, like the server's Map) and, for ``combined``, the three
    iot flags."""

    def __init__(self, todo: dict, iot: list | None):
        self.todo = todo
        self.iot = iot

    def copy(self) -> "Model":
        return Model({u: list(items) for u, items in self.todo.items()},
                     None if self.iot is None else list(self.iot))

    def encode(self):
        todo = [[u, items] for u, items in self.todo.items()]
        if self.iot is None:
            return todo
        boiler, light1, light2 = self.iot
        return [todo, [None, [boiler, [light1, light2]]]]

    def add(self, user: int, item: str) -> None:
        self.todo[user] = [item] + self.todo.get(user, [])


@dataclass(frozen=True)
class Plan:
    workload: str
    demo: str
    connections: tuple        # one tuple of Requests per keep-alive connection
    snapshot: str             # initial state file the server loads
    final: str                # canonical final state
    ordered: bool             # whether the todo Map's key order is determined

    def requests(self) -> int:
        return sum(len(c) for c in self.connections)

    def snapshot_matches(self, text: str) -> bool:
        """Whether the state file the server wrote on shutdown equals
        the model's final state.  With concurrent writers, new todo
        users are appended in arrival order, so keys are compared as a
        set there (the todo Map is the first slot of the combined state)."""
        if self.ordered:
            return text == self.final
        want = json.loads(self.final)
        try:
            got = json.loads(text)
            return sorted(got[0]) == sorted(want[0]) and got[1:] == want[1:]
        except (ValueError, TypeError, IndexError, KeyError):
            return False


def _item(rng: random.Random) -> str:
    word = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 9)))
    return f"{word} {rng.randint(0, 999)}"


def _small_state(rng: random.Random) -> Model:
    todo = {u: [_item(rng) for _ in range(rng.randint(0, 3))] for u in range(SMALL_USERS)}
    return Model(todo, [rng.random() < 0.5 for _ in IOT_LEAVES])


def _div_toward_zero(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _calculator(rng: random.Random) -> Request:
    op = rng.choice(("add", "sub", "mul", "div"))
    a = rng.randint(-10**6, 10**6)
    if op != "div":
        b = rng.randint(-10**6, 10**6)
    elif rng.random() < 0.1:
        return Request("GET", f"/calculator/div/{a}/0", None, 400, None)
    else:
        b = rng.choice((-1, 1)) * rng.randint(1, 1000)
    if op == "div":
        value = _div_toward_zero(a, b)
    else:
        value = {"add": a + b, "sub": a - b, "mul": a * b}[op]
    return _ok("GET", f"/calculator/{op}/{a}/{b}", value)


def _unmatched(rng: random.Random) -> Request:
    n = rng.randint(0, 99)
    path = rng.choice((
        f"/calculator/pow/{n}/2", f"/todo/all/-{n + 1}", f"/iot/lights/{n + 3}",
        f"/calculator/add/{n}", f"/missing/{n}", f"/todo/all/{n}/items",
    ))
    return Request("GET", path, None, 404, None)


def _mix(rng: random.Random, counts: dict) -> list:
    """Exactly ``counts[kind]`` of each kind, in seeded order, so every
    seed sends the same share of each request class."""
    kinds = [kind for kind, n in counts.items() for _ in range(n)]
    rng.shuffle(kinds)
    return kinds


def _read_mix(rng: random.Random, model: Model, per_connection: int) -> list:
    """GET only: 50% calculator, 20% iot leaves, 25% todo lists, 5%
    unmatched paths."""
    n = per_connection
    out = []
    for kind in _mix(rng, {"calc": n // 2, "iot": n // 5, "unmatched": n // 20,
                           "todo": n - n // 2 - n // 5 - n // 20}):
        if kind == "calc":
            out.append(_calculator(rng))
        elif kind == "iot":
            i = rng.randrange(len(IOT_LEAVES))
            out.append(_ok("GET", f"/iot/{IOT_LEAVES[i]}", model.iot[i]))
        elif kind == "todo":
            u = rng.randrange(SMALL_USERS + SMALL_USERS // 4)
            out.append(_ok("GET", f"/todo/all/{u}", model.todo.get(u, [])))
        else:
            out.append(_unmatched(rng))
    return out


def _write_mix(rng: random.Random, model: Model, conn: int, connections: int,
               per_connection: int) -> list:
    """Half POSTs (iot leaf writes and todo adds), half read-backs, all
    on the iot leaves and todo users this connection owns."""
    leaves = [i for i in range(len(IOT_LEAVES)) if i % connections == conn]
    users = [u for u in range(SMALL_USERS + NEW_USERS) if u % connections == conn]
    quarter = per_connection // 4
    out = []
    for method, target in _mix(rng, {("POST", "iot"): quarter, ("GET", "iot"): quarter,
                                     ("POST", "todo"): quarter, ("GET", "todo"): quarter}):
        if target == "iot":
            i = rng.choice(leaves)
            path = f"/iot/{IOT_LEAVES[i]}"
            if method == "POST":
                model.iot[i] = rng.random() < 0.5
                out.append(_ok("POST", path, None, canonical(model.iot[i])))
            else:
                out.append(_ok("GET", path, model.iot[i]))
        else:
            u = rng.choice(users)
            if method == "POST":
                item = _item(rng)
                model.add(u, item)
                out.append(_ok("POST", f"/todo/add/{u}", None, canonical(item)))
            else:
                out.append(_ok("GET", f"/todo/all/{u}", model.todo.get(u, [])))
    return out


def _big_state(rng: random.Random, model: Model, per_connection: int) -> list:
    """30% POST /add/<u>, 70% GET /all/<u>, users uniform."""
    posts = per_connection * 3 // 10
    out = []
    for method in _mix(rng, {"POST": posts, "GET": per_connection - posts}):
        u = rng.randrange(BIG_USERS)
        if method == "POST":
            item = _item(rng)
            model.add(u, item)
            out.append(_ok("POST", f"/add/{u}", None, canonical(item)))
        else:
            out.append(_ok("GET", f"/all/{u}", model.todo[u]))
    return out


# name -> (demo, keep-alive connections, requests per connection per round)
WORKLOADS = {
    "read_mix": ("combined", 2, 60),
    "write_mix": ("combined", 2, 48),
    "big_state": ("todo", 1, 60),
}


def make_plan(workload: str, seed: int) -> Plan:
    demo, connections, per_connection = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "big_state":
        todo = {u: [_item(rng) for _ in range(BIG_ITEMS)] for u in range(BIG_USERS)}
        initial = Model(todo, None)
    else:
        initial = _small_state(rng)
    model = initial.copy()
    lists = []
    for conn in range(connections):
        if workload == "read_mix":
            lists.append(_read_mix(rng, model, per_connection))
        elif workload == "write_mix":
            lists.append(_write_mix(rng, model, conn, connections, per_connection))
        else:
            lists.append(_big_state(rng, model, per_connection))
    return Plan(
        workload=workload, demo=demo,
        connections=tuple(tuple(c) for c in lists),
        snapshot=canonical(initial.encode()),
        final=canonical(model.encode()),
        ordered=workload != "write_mix",
    )
