"""End-to-end acceptance gate.

One numbered test per shipped guarantee, sample counts stated inline.
Every test finishes by printing its own PASS line, so a verbose run
reads as a checklist.
"""

import random
import threading
from collections import Counter

from conftest import ADDRESS, USER, address_lens, append_lens, running, street_number_lens
from generators import random_schema, route_like, route_value
from lenserv.containers import const_of, product
from lenserv.deplens import DepLens, dep_compose
from lenserv.engine import handle_get, prepare
from lenserv.demos import build_calculator, build_combined, build_iot, build_todo
from lenserv.lens import Boundary, check_laws, fst_lens, identity, snd_lens
from lenserv.routing import parse_uri, render_uri
from lenserv.servers import clone_choice, ext_choice, get_lens, post_lens, reparam_server
from lenserv.values import (
    Bool,
    BoolS,
    Inl,
    Int,
    IntS,
    List,
    ListS,
    LitS,
    NatS,
    Pair,
    ProdS,
    Text,
    TextS,
    conforms,
    decode_json,
    encode_json,
    generate_value,
)


def test_01_lens_laws_and_stability():
    lawful = [
        fst_lens(USER),
        snd_lens(USER),
        identity(Boundary(USER, USER)),
        address_lens,
        dep_compose(address_lens, street_number_lens),
    ]
    for l in lawful:
        report = check_laws(l, n=1000, rng=random.Random(41))
        assert report.ok and report.samples == 1000, str(report)

    # the appending pseudo-lens must be caught, with a real witness
    short_lists = [List(t) for t in [
        (), (Bool(False),), (Bool(True),),
        (Bool(False), Bool(True)), (Bool(True), Bool(False)),
    ]]

    def gen(schema, rng):
        if isinstance(schema, ListS):
            return rng.choice(short_lists)
        return Bool(rng.random() < 0.5)

    report = check_laws(append_lens, n=100, gen=gen, rng=random.Random(42))
    assert report.put_put is not None
    x, v = report.put_put
    once = append_lens.update(x, v)
    assert append_lens.update(once, v) != once

    # stability: composites of random lawful pairs stay lawful
    nested = ProdS(ProdS(IntS(), TextS()), ProdS(BoolS(), NatS()))
    pool = [
        (fst_lens(nested), fst_lens(ProdS(IntS(), TextS()))),
        (fst_lens(nested), snd_lens(ProdS(IntS(), TextS()))),
        (snd_lens(nested), fst_lens(ProdS(BoolS(), NatS()))),
        (snd_lens(nested), snd_lens(ProdS(BoolS(), NatS()))),
        (snd_lens(USER), fst_lens(ProdS(ADDRESS, TextS()))),
        (address_lens, street_number_lens),
        (address_lens, fst_lens(ADDRESS)),
        (identity(Boundary(USER, USER)), address_lens),
    ]
    rng = random.Random(43)
    for _ in range(20):
        a, b = rng.choice(pool)
        assert check_laws(dep_compose(a, b), n=1000, rng=rng).ok
    print("PASS 01: lens laws, append counterexample, stability")


def _counter_servers():
    c = const_of(IntS())
    a = get_lens(IntS(), c, IntS(), lambda st, n: Int(st.i + n.i))
    b = post_lens(IntS(), c, IntS(), lambda st, n, body: body)
    return a, b


def test_02_ext_choice_isolation():
    a, b = _counter_servers()
    srv = ext_choice(a, b)
    rng = random.Random(44)
    for _ in range(500):
        x = Inl(generate_value(IntS(), rng))
        p = generate_value(IntS(), rng)
        q = generate_value(IntS(), rng)
        q2 = generate_value(IntS(), rng)
        y = srv.lens.view(Pair(x, Pair(p, q)))
        r = generate_value(srv.right.position(y), rng)
        one = srv.lens.update(Pair(x, Pair(p, q)), r)
        two = srv.lens.update(Pair(x, Pair(p, q2)), r)
        assert one == two
    print("PASS 02: external choice backward is invariant in the unused state")


def test_03_clone_choice_is_reparam_of_ext_choice():
    a, b = _counter_servers()
    merged = clone_choice(a, b)

    shared = a.param
    dup = DepLens(
        shared,
        product(shared, shared),
        view=lambda p: Pair(p, p),
        update=lambda p, d: d.value,
    )
    reference = reparam_server(ext_choice(a, b), dup)

    rng = random.Random(45)
    for _ in range(1000):
        x = generate_value(merged.left.shape, rng)
        st = generate_value(merged.param.shape, rng)
        v = Pair(x, st)
        y, y_ref = merged.lens.view(v), reference.lens.view(v)
        assert y == y_ref
        r = generate_value(merged.right.position(y), rng)
        assert merged.lens.update(v, r) == reference.lens.update(v, r)
        # and both match the semantics written out by hand
        branch = a if isinstance(x, Inl) else b
        out = branch.lens.update(Pair(x.value, st), r)
        assert merged.lens.update(v, r) == Pair(out.first, out.second)
    print("PASS 03: clone choice = reparametrised external choice (1000 samples)")


def test_04_routing_examples():
    s = ProdS(LitS("user"), ProdS(IntS(), LitS("name")))
    assert parse_uri(s, "/user/3/name") == Pair(Text("user"), Pair(Int(3), Text("name")))
    assert parse_uri(s, "/user/book") is None
    print("PASS 04: /user/3/name parses, /user/book does not")


def test_05_calculator_over_http():
    with running(build_calculator()) as (p, client):
        assert client.get("/add/2/3") == (200, "5")
        assert client.get("/sub/2/3") == (200, "-1")
        assert client.get("/mul/4/5") == (200, "20")
        assert client.get("/div/7/2") == (200, "3")
        status, _ = client.get("/div/7/0")
        assert status == 400
        status, _ = client.get("/does/not/exist")
        assert status == 404
        status, _ = client.request("PUT", "/add/2/3", body="1")
        assert status == 405
    print("PASS 05: calculator end-to-end over HTTP")


def test_06_iot_over_http():
    with running(build_iot()) as (p, client):
        assert client.get("/boiler") == (200, "false")
        status, _ = client.post("/boiler", "true")
        assert status == 200
        assert client.get("/boiler") == (200, "true")
        status, _ = client.post("/lights/1", "true")
        assert status == 200
        assert client.get("/lights/1") == (200, "true")
        assert client.get("/lights/2") == (200, "false")
    print("PASS 06: IoT lens-focused state updates over HTTP")


def test_07_todo_over_http():
    with running(build_todo()) as (p, client):
        assert client.post("/add/7", '"Buy milk"')[0] == 200
        assert client.post("/add/7", '"Call"')[0] == 200
        assert client.get("/all/7") == (200, '["Call","Buy milk"]')
        assert client.get("/all/9") == (200, "[]")
    print("PASS 07: todo end-to-end over HTTP")


def test_08_combined_prefixes_and_state_isolation():
    with running(build_combined()) as (p, client):
        assert client.get("/calculator/add/2/3") == (200, "5")
        assert client.get("/todo/all/7") == (200, "[]")
        assert client.get("/iot/boiler") == (200, "false")

        rng = random.Random(46)
        for k in range(20):
            before = p.cell.snapshot()
            if rng.random() < 0.5:
                target = "todo"
                status, _ = client.post(f"/todo/add/{rng.randrange(5)}", f'"item{k}"')
            else:
                target = "iot"
                leaf = rng.choice(["/iot/boiler", "/iot/lights/1", "/iot/lights/2"])
                current = client.get(leaf)[1]
                flipped = "false" if current == "true" else "true"
                status, _ = client.post(leaf, flipped)
            assert status == 200
            after = p.cell.snapshot()
            changed = {
                "todo": before.first != after.first,
                "calc": before.second.first != after.second.first,
                "iot": before.second.second != after.second.second,
            }
            assert changed[target], f"POST #{k} did not move its own state"
            assert sum(changed.values()) == 1, f"POST #{k} leaked into {changed}"
    print("PASS 08: combined server isolates its three states")


def _random_get_paths(name, rng):
    if name == "calculator":
        op = rng.choice(["add", "sub", "mul", "div"])
        return f"/{op}/{rng.randint(-99, 99)}/{rng.randint(-99, 99)}"
    if name == "iot":
        return rng.choice(["/boiler", "/lights/1", "/lights/2", "/lights/3", "/nope"])
    if name == "todo":
        return rng.choice([f"/all/{rng.randrange(10)}", f"/add/{rng.randrange(10)}",
                           "/all/-1", "/missing"])
    return rng.choice([
        f"/calculator/mul/{rng.randint(-9, 9)}/{rng.randint(-9, 9)}",
        f"/todo/all/{rng.randrange(10)}",
        "/iot/boiler", "/iot/lights/2", "/garbage", "/todo", "/calculator/add/1",
    ])


def test_09_gets_are_pure():
    builders = {
        "calculator": build_calculator,
        "iot": build_iot,
        "todo": build_todo,
        "combined": build_combined,
    }
    rng = random.Random(47)
    for name, build in builders.items():
        with running(build()) as (p, client):
            # make the state non-trivial first where it can be
            if name == "iot":
                client.post("/boiler", "true")
            if name == "todo":
                client.post("/add/3", '"keep"')
            if name == "combined":
                client.post("/todo/add/3", '"keep"')
                client.post("/iot/lights/1", "true")
            before = encode_json(p.cell.snapshot())
            for _ in range(100):
                client.get(_random_get_paths(name, rng))
            assert encode_json(p.cell.snapshot()) == before, name
    print("PASS 09: 100 random GETs leave each demo's state bit-identical")


def test_10_codec_and_uri_roundtrips():
    rng = random.Random(48)
    for _ in range(1000):
        s = random_schema(rng)
        v = generate_value(s, rng)
        assert decode_json(s, encode_json(v)) == v

    for _ in range(300):
        s = route_like(rng)
        v = route_value(s, rng)
        assert conforms(s, v)
        assert parse_uri(s, render_uri(s, v)) == v
    print("PASS 10: 1000 codec round-trips and URI render/parse round-trips")


def test_11_concurrent_posts_linearize():
    clients, per_client = 8, 50
    sent = {i: [f"c{i}-{j}" for j in range(per_client)] for i in range(clients)}
    failures = []

    with running(build_todo()) as (p, _probe):
        from conftest import Client

        def run(i):
            c = Client(p.config.port)
            try:
                for item in sent[i]:
                    status, body = c.post("/add/7", f'"{item}"')
                    if status != 200:
                        failures.append((i, item, status, body))
            finally:
                c.close()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures[:3]

        status, body = _probe.get("/all/7")
        assert status == 200
        final = decode_json(ListS(TextS()), body)

    items = [t.s for t in final.items]
    assert len(items) == clients * per_client
    assert Counter(items) == Counter(x for xs in sent.values() for x in xs)
    # prepending means each client's items must appear in reverse send
    # order; that is exactly "some interleaving" of the eight streams
    for i in range(clients):
        mine = [x for x in items if x.startswith(f"c{i}-")]
        assert mine == list(reversed(sent[i])), f"client {i} reordered"
    print("PASS 11: 400 concurrent POSTs linearized into one interleaving")
