import random
import threading

import pytest

from lenserv.containers import Container, const_of, coproduct, pinned, product, tensor, unit_positions
from lenserv.state import (
    ActionDerivationError,
    StateCell,
    StateContractError,
    act_const,
    act_prod,
    act_sum,
    act_tensor,
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
    Map,
    MapS,
    Nat,
    NatS,
    Pair,
    ProdS,
    Text,
    TextS,
    Unit,
    UnitS,
    generate_value,
    map_insert,
    map_lookup,
)


# ------------------------------------------------------------------- actions


def test_act_const_replaces():
    a = act_const(IntS())
    assert a.act(Int(1), Int(9)) == Int(9)


def test_act_tensor_is_componentwise():
    a = act_tensor(act_const(IntS()), act_const(BoolS()))
    got = a.act(Pair(Int(1), Bool(False)), Pair(Int(2), Bool(True)))
    assert got == Pair(Int(2), Bool(True))


def test_act_sum_keeps_the_tag():
    a = act_sum(act_const(IntS()), act_const(BoolS()))
    assert a.act(Inl(Int(1)), Int(5)) == Inl(Int(5))
    assert a.act(Inr(Bool(False)), Bool(True)) == Inr(Bool(True))


def test_act_prod_touches_only_the_addressed_component():
    a = act_prod(act_const(IntS()), act_const(BoolS()))
    st = Pair(Int(3), Bool(False))
    assert a.act(st, Inl(Int(8))) == Pair(Int(8), Bool(False))
    assert a.act(st, Inr(Bool(True))) == Pair(Int(3), Bool(True))


# ------------------------------------------------------------------- derive


def test_derive_action_on_const():
    a = derive_action(const_of(IntS()))
    assert a.act(Int(0), Int(4)) == Int(4)


def test_derive_action_on_unit_positions_is_identity():
    a = derive_action(unit_positions(IntS()))
    assert a.act(Int(6), Unit()) == Int(6)


def test_derive_action_walks_structure():
    c = product(const_of(IntS()), tensor(const_of(BoolS()), const_of(TextS())))
    a = derive_action(c)
    st = Pair(Int(1), Pair(Bool(False), Text("x")))
    assert a.act(st, Inl(Int(2))) == Pair(Int(2), Pair(Bool(False), Text("x")))
    assert a.act(st, Inr(Pair(Bool(True), Text("y")))) == Pair(
        Int(1), Pair(Bool(True), Text("y"))
    )

    c2 = coproduct(const_of(IntS()), const_of(BoolS()))
    a2 = derive_action(c2)
    assert a2.act(Inl(Int(0)), Int(3)) == Inl(Int(3))


def test_derive_action_failures():
    with pytest.raises(ActionDerivationError):
        derive_action(Container(IntS(), lambda v: IntS()))  # no form
    with pytest.raises(ActionDerivationError):
        derive_action(pinned(IntS(), TextS()))  # positions mean nothing
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
    return StateCell(c, derive_action(c), Int(start))


def test_cell_snapshot_and_apply():
    cell = _int_cell(5)
    assert cell.snapshot() == Int(5)
    assert cell.apply_diff(Int(9)) == Int(9)
    assert cell.snapshot() == Int(9)


def test_cell_rejects_nonconforming_initial():
    c = const_of(IntS())
    with pytest.raises(StateContractError):
        StateCell(c, derive_action(c), Text("nope"))


def test_cell_rejects_nonconforming_diff():
    cell = _int_cell()
    with pytest.raises(StateContractError):
        cell.apply_diff(Bool(True))
    assert cell.snapshot() == Int(0)  # nothing moved


def test_cell_rejects_action_that_breaks_the_shape():
    c = const_of(NatS())
    # a malicious action that ignores shapes entirely
    from lenserv.state import ActionFamily

    bad = ActionFamily(c, lambda v, p: Text("junk"))
    cell = StateCell(c, bad, Nat(0))
    with pytest.raises(StateContractError):
        cell.apply_diff(Nat(1))
    assert cell.snapshot() == Nat(0)


def test_cell_diff_position_tracks_the_current_value():
    c = coproduct(const_of(IntS()), const_of(BoolS()))
    cell = StateCell(c, derive_action(c), Inl(Int(1)))
    cell.apply_diff(Int(2))
    assert cell.snapshot() == Inl(Int(2))
    with pytest.raises(StateContractError):
        cell.apply_diff(Bool(True))  # wrong side for the current tag


def test_sequential_diffs_compose():
    home = ProdS(BoolS(), ProdS(BoolS(), BoolS()))
    c = const_of(home)
    cell = StateCell(c, derive_action(c), initial_state(c))
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
    rng = random.Random(33)

    def build(depth=0):
        if depth >= 2 or rng.random() < 0.4:
            s = rng.choice([IntS(), BoolS(), NatS(), TextS()])
            return const_of(s) if rng.random() < 0.8 else unit_positions(s)
        kind = rng.choice([product, coproduct, tensor])
        return kind(build(depth + 1), build(depth + 1))

    from lenserv.values import conforms

    for _ in range(200):
        c = build()
        action = derive_action(c)
        st = generate_value(c.shape, rng)
        diff = generate_value(c.position(st), rng)
        new = action.act(st, diff)
        assert conforms(c.shape, new)


# ------------------------------------------------- commits that share state


TODO = MapS(NatS(), ListS(TextS()))


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
    cell = StateCell(c, derive_action(c), state)
    with pytest.raises(StateContractError):
        cell.apply_diff(_bad_edits(state)[edit])
    assert cell.snapshot() is state


@pytest.mark.parametrize("edit", ["bad value", "bad item behind shared items",
                                  "bad key appended"])
def test_combined_cell_rejects_one_bad_entry_in_a_shared_map(edit):
    from lenserv.demos import build_combined
    from lenserv.engine import prepare

    fresh = prepare(build_combined()).cell.snapshot()
    state = Pair(_todo_map(5000), fresh.second)
    cell = prepare(build_combined(), initial=state).cell
    with pytest.raises(StateContractError):
        cell.apply_diff(Inl(_bad_edits(state.first)[edit]))
    assert cell.snapshot() is state
    good = map_insert(state.first, Nat(2500), List(()))
    assert cell.apply_diff(Inl(good)) == Pair(good, state.second)


def test_diff_check_rejects_a_bad_shared_diff_the_action_would_drop():
    # The action ignores its diff, so only the check on the way in can
    # see the bad entry.
    from lenserv.state import ActionFamily

    c = const_of(TODO)
    state = _todo_map(5000)
    cell = StateCell(c, ActionFamily(c, lambda v, p: v), state)
    with pytest.raises(StateContractError):
        cell.apply_diff(_bad_edits(state)["bad value"])


def test_cell_rejects_an_action_that_appends_a_bad_entry_to_a_shared_map():
    from lenserv.state import ActionFamily

    c = const_of(TODO)
    state = _todo_map(100)
    bad = ActionFamily(c, lambda v, p: map_insert(p, Text("junk"), List(())))
    cell = StateCell(c, bad, state)
    with pytest.raises(StateContractError):
        cell.apply_diff(map_insert(state, Nat(3), List(())))
    assert cell.snapshot() is state


def _conforms_calls_per_post(monkeypatch, demo, users):
    import lenserv.engine
    import lenserv.state
    import lenserv.values
    from lenserv.demos import DEMOS

    server = DEMOS[demo]()
    if demo == "todo":
        initial, prefix = _todo_map(users), ""
    else:
        rest = lenserv.engine.prepare(server).cell.snapshot().second
        initial, prefix = Pair(_todo_map(users), rest), "/todo"
    p = lenserv.engine.prepare(server, initial=initial)
    calls = [0]
    real = lenserv.values.conforms

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        for module in (lenserv.values, lenserv.state, lenserv.engine):
            patch.setattr(module, "conforms", counting)
        resp = lenserv.engine.handle_post(p, f"{prefix}/add/{users - 1}", '"new"')
    assert resp.status == 200
    assert p.cell.snapshot() != initial
    return calls[0]


@pytest.mark.parametrize("demo", ["todo", "combined"])
def test_todo_post_conformance_work_does_not_grow_with_users(monkeypatch, demo):
    assert (_conforms_calls_per_post(monkeypatch, demo, 5000)
            <= _conforms_calls_per_post(monkeypatch, demo, 100))
