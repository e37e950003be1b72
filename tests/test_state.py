import random
import threading

import pytest

from generators import TODO
from lenserv.containers import (
    Container, const_of, coproduct, keyed, mount, pinned, product, tensor,
    unit_positions,
)
from lenserv.state import (
    ActionDerivationError,
    StateCell,
    StateContractError,
    derive_action,
    initial_state,
)
from lenserv.values import (
    Bool,
    BoolS,
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
    generate_value,
    map_insert,
    map_lookup,
)


# ------------------------------------------------------------------- actions


def test_act_const_replaces():
    a = derive_action(const_of(IntS()))
    assert a(Int(1), Int(9)) == Int(9)


def test_act_tensor_is_componentwise():
    a = derive_action(tensor(const_of(IntS()), const_of(BoolS())))
    got = a(Pair(Int(1), Bool(False)), Pair(Int(2), Bool(True)))
    assert got == Pair(Int(2), Bool(True))


def test_act_sum_keeps_the_tag():
    a = derive_action(coproduct(const_of(IntS()), const_of(BoolS())))
    assert a(Inl(Int(1)), Int(5)) == Inl(Int(5))
    assert a(Inr(Bool(False)), Bool(True)) == Inr(Bool(True))


def test_act_prod_touches_only_the_addressed_component():
    a = derive_action(product(const_of(IntS()), const_of(BoolS())))
    st = Pair(Int(3), Bool(False))
    assert a(st, Inl(Int(8))) == Pair(Int(8), Bool(False))
    assert a(st, Inr(Bool(True))) == Pair(Int(3), Bool(True))


def test_act_keyed_stores_one_entry_or_nothing():
    a = derive_action(keyed(NatS(), TextS()))
    st = Map(((Nat(1), Text("a")), (Nat(2), Text("b"))))
    assert a(st, Inl(Unit())) is st
    assert a(st, Inr(Pair(Nat(1), Text("z")))) == Map(((Nat(1), Text("z")), (Nat(2), Text("b"))))
    assert a(st, Inr(Pair(Nat(3), Text("c")))) == map_insert(st, Nat(3), Text("c"))
    assert st == Map(((Nat(1), Text("a")), (Nat(2), Text("b"))))


# ------------------------------------------------------------------- derive


def test_derive_action_on_const():
    a = derive_action(const_of(IntS()))
    assert a(Int(0), Int(4)) == Int(4)


def test_derive_action_on_unit_positions_is_identity():
    a = derive_action(unit_positions(IntS()))
    assert a(Int(6), Unit()) == Int(6)


def test_derive_action_walks_structure():
    c = product(const_of(IntS()), tensor(const_of(BoolS()), const_of(TextS())))
    a = derive_action(c)
    st = Pair(Int(1), Pair(Bool(False), Text("x")))
    assert a(st, Inl(Int(2))) == Pair(Int(2), Pair(Bool(False), Text("x")))
    assert a(st, Inr(Pair(Bool(True), Text("y")))) == Pair(
        Int(1), Pair(Bool(True), Text("y"))
    )

    c2 = coproduct(const_of(IntS()), const_of(BoolS()))
    a2 = derive_action(c2)
    assert a2(Inl(Int(0)), Int(3)) == Inl(Int(3))


def test_derive_action_failures():
    with pytest.raises(ActionDerivationError):
        derive_action(Container(IntS(), lambda v: IntS()))  # no form
    with pytest.raises(ActionDerivationError):
        derive_action(pinned(IntS(), TextS()))  # positions mean nothing
    with pytest.raises(ActionDerivationError):
        # an entry of another map
        derive_action(pinned(MapS(NatS(), TextS()), SumS(UnitS(), ProdS(NatS(), IntS()))))
    with pytest.raises(ActionDerivationError):
        derive_action(mount(LitS("a"), const_of(IntS())))  # a path, not state
    # the error message names the offending container
    try:
        derive_action(product(const_of(IntS()), pinned(IntS(), TextS())))
    except ActionDerivationError as e:
        assert "Text" in str(e)
    else:
        raise AssertionError("expected ActionDerivationError")


def test_initial_state():
    assert initial_state(const_of(IntS())) == Int(0)
    assert initial_state(const_of(MapS(NatS(), ListS(TextS())))) == Map(())
    c = product(const_of(BoolS()), const_of(IntS()))
    assert initial_state(c) == Pair(Bool(False), Int(0))


# ----------------------------------------------------------------- the cell


def _int_cell(start=0):
    c = const_of(IntS())
    return StateCell(c, Int(start))


def test_cell_snapshot_and_apply():
    cell = _int_cell(5)
    assert cell.snapshot() == Int(5)
    assert cell.apply_diff(Int(9)) == Int(9)
    assert cell.snapshot() == Int(9)


def test_cell_rejects_nonconforming_initial():
    c = const_of(IntS())
    with pytest.raises(StateContractError):
        StateCell(c, Text("nope"))


def test_cell_rejects_nonconforming_diff():
    cell = _int_cell()
    with pytest.raises(StateContractError):
        cell.apply_diff(Bool(True))
    assert cell.snapshot() == Int(0)  # nothing moved


def test_cell_diff_position_tracks_the_current_value():
    c = coproduct(const_of(IntS()), const_of(BoolS()))
    cell = StateCell(c, Inl(Int(1)))
    cell.apply_diff(Int(2))
    assert cell.snapshot() == Inl(Int(2))
    with pytest.raises(StateContractError):
        cell.apply_diff(Bool(True))  # wrong side for the current tag


def test_sequential_diffs_compose():
    home = ProdS(BoolS(), ProdS(BoolS(), BoolS()))
    c = const_of(home)
    cell = StateCell(c, initial_state(c))
    cell.apply_diff(Pair(Bool(True), Pair(Bool(False), Bool(False))))
    cell.apply_diff(Pair(Bool(True), Pair(Bool(True), Bool(False))))
    assert cell.snapshot() == Pair(Bool(True), Pair(Bool(True), Bool(False)))


def test_transactions_serialize_read_modify_write():
    cell = _int_cell()
    workers, per = 8, 200

    def bump():
        for _ in range(per):
            with cell.transaction():
                cur = cell.snapshot()
                cell.apply_diff(Int(cur.i + 1))

    threads = [threading.Thread(target=bump) for _ in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert cell.snapshot() == Int(workers * per)


def test_derived_actions_preserve_conformance_on_random_containers():
    # A commit checks only the diff: this is the induction that makes
    # the new state conform without a second check.
    rng = random.Random(33)
    scalars = [IntS(), BoolS(), NatS(), TextS()]
    forms = set()

    def build(depth=0):
        if depth >= 2 or rng.random() < 0.4:
            s = rng.choice(scalars + [ListS(TextS()), ProdS(IntS(), BoolS())])
            roll = rng.random()
            if roll < 0.3:
                forms.add("keyed")
                return keyed(rng.choice([NatS(), TextS(), IntS()]), s)
            return const_of(s) if roll < 0.85 else unit_positions(s)
        kind = rng.choice([product, coproduct, tensor])
        forms.add(kind.__name__)
        return kind(build(depth + 1), build(depth + 1))

    stored = 0
    for _ in range(300):
        c = build()
        action = derive_action(c)
        st = generate_value(c.shape, rng)
        for _ in range(4):
            diff = generate_value(c.position(st), rng)
            assert conforms(c.position(st), diff)
            new = action(st, diff)
            assert conforms(c.shape, new), (c, st, diff, new)
            stored += new != st
            st = new
    assert forms == {"keyed", "product", "coproduct", "tensor"}
    assert stored >= 200


# ------------------------------------------------- commits that share state


def _todo_map(users):
    return Map(tuple((Nat(u), List((Text("a"), Text("b"), Text("c"))))
                     for u in range(users)))


def _bad_edits(state):
    """New versions of a 5,000-entry todo Map that share every entry
    but one with ``state``, and that one entry does not conform."""
    middle = map_lookup(state, Nat(2500))
    return {
        "bad value": map_insert(state, Nat(2500), List((Int(7),))),
        "bad item behind shared items": map_insert(
            state, Nat(2500), List(middle.items + (Bool(True),))),
        "bad key appended": map_insert(state, Int(-1), List(())),
    }


@pytest.mark.parametrize("edit", ["bad value", "bad item behind shared items",
                                  "bad key appended"])
def test_const_cell_rejects_one_bad_entry_in_a_shared_map(edit):
    c = const_of(TODO)
    state = _todo_map(5000)
    cell = StateCell(c, state)
    with pytest.raises(StateContractError):
        cell.apply_diff(_bad_edits(state)[edit])
    assert cell.snapshot() is state


@pytest.mark.parametrize("edit", ["bad value", "bad item behind shared items",
                                  "bad key appended"])
def test_tensor_cell_rejects_one_bad_entry_in_a_shared_map(edit):
    c = tensor(const_of(IntS()), const_of(TODO))
    state = Pair(Int(1), _todo_map(5000))
    cell = StateCell(c, state)
    with pytest.raises(StateContractError):
        cell.apply_diff(Pair(Int(2), _bad_edits(state.second)[edit]))
    assert cell.snapshot() is state
    good = map_insert(state.second, Nat(2500), List(()))
    assert cell.apply_diff(Pair(Int(2), good)) == Pair(Int(2), good)


@pytest.mark.parametrize("edit", ["bad value", "bad item behind shared items",
                                  "bad key appended"])
def test_coproduct_cell_rejects_one_bad_entry_in_a_shared_map(edit):
    c = coproduct(const_of(IntS()), const_of(TODO))
    state = Inr(_todo_map(5000))
    cell = StateCell(c, state)
    with pytest.raises(StateContractError):
        cell.apply_diff(_bad_edits(state.value)[edit])
    assert cell.snapshot() is state
    good = map_insert(state.value, Nat(2500), List(()))
    assert cell.apply_diff(good) == Inr(good)


@pytest.mark.parametrize("edit", ["bad value", "bad item behind shared items",
                                  "bad key appended"])
def test_combined_cell_rejects_one_bad_entry_in_a_shared_map(edit):
    from lenserv.demos import build_combined
    from lenserv.engine import prepare

    fresh = prepare(build_combined()).cell.snapshot()
    state = Pair(_todo_map(5000), fresh.second)
    cell = prepare(build_combined(), initial=state).cell
    # the todo state is keyed: a diff names the one entry it stores
    bad = _bad_edits(state.first)[edit]
    key = Int(-1) if edit == "bad key appended" else Nat(2500)
    with pytest.raises(StateContractError):
        cell.apply_diff(Inl(Inr(Pair(key, map_lookup(bad, key)))))
    assert cell.snapshot() is state
    with pytest.raises(StateContractError):
        cell.apply_diff(Inl(map_insert(state.first, Nat(2500), List(()))))  # a whole Map
    assert cell.snapshot() is state
    good = map_insert(state.first, Nat(2500), List(()))
    assert cell.apply_diff(Inl(Inr(Pair(Nat(2500), List(()))))) == Pair(good, state.second)


def _work_per_post(monkeypatch, demo, users):
    """``(membership checks, todo keys checked)`` in one todo POST,
    nested checks included."""
    import lenserv.engine
    import lenserv.values
    from lenserv.demos import DEMOS

    server = DEMOS[demo]()
    if demo == "todo":
        initial, prefix = _todo_map(users), ""
    else:
        rest = lenserv.engine.prepare(server).cell.snapshot().second
        initial, prefix = Pair(_todo_map(users), rest), "/todo"
    p = lenserv.engine.prepare(server, initial=initial)
    checks, keys = [0], [0]
    derive = lenserv.values._derive.__wrapped__  # uncached: every part is derived afresh

    def counting(s):
        kind = derive(s)

        def member(v):
            checks[0] += 1
            keys[0] += isinstance(v, Nat)
            return kind.member(v)
        return kind._replace(member=member)

    with monkeypatch.context() as patch:
        patch.setattr(lenserv.values, "_kind", counting)
        resp = lenserv.engine.handle_post(p, f"{prefix}/add/{users - 1}", '"new"')
    assert resp.status == 200
    assert p.cell.snapshot() != initial
    return checks[0], keys[0]


@pytest.mark.parametrize("demo", ["todo", "combined"])
def test_todo_post_conformance_work_does_not_grow_with_users(monkeypatch, demo):
    assert (_work_per_post(monkeypatch, demo, 5000)[0]
            <= _work_per_post(monkeypatch, demo, 100)[0])


@pytest.mark.parametrize("demo", ["todo", "combined"])
def test_todo_post_scans_no_more_entries_at_5000_users_than_at_100(monkeypatch, demo):
    # The commit checks the one entry a POST stores, not the whole Map.
    assert _work_per_post(monkeypatch, demo, 5000)[1] == 1
    assert _work_per_post(monkeypatch, demo, 100)[1] == 1


@pytest.mark.parametrize("demo", ["todo", "combined"])
@pytest.mark.parametrize("collect", [False, True], ids=["refcount", "gc"])
def test_a_commit_lets_the_old_state_be_collected(demo, collect):
    import gc
    import weakref

    from lenserv.demos import DEMOS
    from lenserv.engine import handle_post, prepare

    p = prepare(DEMOS[demo]())
    route = "/add/1" if demo == "todo" else "/todo/add/1"
    assert handle_post(p, route, '"a"').status == 200
    old = p.cell.snapshot()
    refs = [weakref.ref(old)]
    if demo == "combined":
        refs.append(weakref.ref(old.first))
    del old
    assert handle_post(p, route, '"b"').status == 200
    if collect:
        gc.collect()
    assert [r() for r in refs] == [None] * len(refs)
