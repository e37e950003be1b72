import random
import threading

import pytest

from generators import TODO, random_state_container
from lenserv.containers import Container, const_of, coproduct, pinned, product, tensor, unit_positions
from lenserv.state import (
    ActionDerivationError,
    ActionFamily,
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
    conforms,
    generate_value,
    map_insert,
    map_lookup,
)


# ------------------------------------------------------------------- actions


def test_act_const_replaces():
    a = derive_action(const_of(IntS()))
    assert a.act(Int(1), Int(9)) == Int(9)


def test_act_tensor_is_componentwise():
    a = derive_action(tensor(const_of(IntS()), const_of(BoolS())))
    got = a.act(Pair(Int(1), Bool(False)), Pair(Int(2), Bool(True)))
    assert got == Pair(Int(2), Bool(True))


def test_act_sum_keeps_the_tag():
    a = derive_action(coproduct(const_of(IntS()), const_of(BoolS())))
    assert a.act(Inl(Int(1)), Int(5)) == Inl(Int(5))
    assert a.act(Inr(Bool(False)), Bool(True)) == Inr(Bool(True))


def test_act_prod_touches_only_the_addressed_component():
    a = derive_action(product(const_of(IntS()), const_of(BoolS())))
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


def _no_slot(state, diff):
    # A hand-built family vouches for no part of a diff, so the commit
    # checks each diff in full.
    return None


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
    bad = ActionFamily(lambda v, p: Text("junk"), _no_slot)
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

    for _ in range(200):
        c = build()
        action = derive_action(c)
        st = generate_value(c.shape, rng)
        diff = generate_value(c.position(st), rng)
        new = action.act(st, diff)
        assert conforms(c.shape, new)


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
    cell = StateCell(c, derive_action(c), state)
    with pytest.raises(StateContractError):
        cell.apply_diff(_bad_edits(state)[edit])
    assert cell.snapshot() is state


@pytest.mark.parametrize("edit", ["bad value", "bad item behind shared items",
                                  "bad key appended"])
def test_tensor_cell_rejects_one_bad_entry_in_a_shared_map(edit):
    c = tensor(const_of(IntS()), const_of(TODO))
    state = Pair(Int(1), _todo_map(5000))
    cell = StateCell(c, derive_action(c), state)
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
    cell = StateCell(c, derive_action(c), state)
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
    with pytest.raises(StateContractError):
        cell.apply_diff(Inl(_bad_edits(state.first)[edit]))
    assert cell.snapshot() is state
    good = map_insert(state.first, Nat(2500), List(()))
    assert cell.apply_diff(Inl(good)) == Pair(good, state.second)


def test_diff_check_rejects_a_bad_shared_diff_the_action_would_drop():
    # The action ignores its diff, so only the check on the way in can
    # see the bad entry.
    c = const_of(TODO)
    state = _todo_map(5000)
    cell = StateCell(c, ActionFamily(lambda v, p: v, _no_slot), state)
    with pytest.raises(StateContractError):
        cell.apply_diff(_bad_edits(state)["bad value"])


def test_cell_rejects_an_action_that_appends_a_bad_entry_to_a_shared_map():
    c = const_of(TODO)
    state = _todo_map(100)
    bad = ActionFamily(lambda v, p: map_insert(p, Text("junk"), List(())), _no_slot)
    cell = StateCell(c, bad, state)
    with pytest.raises(StateContractError):
        cell.apply_diff(map_insert(state, Nat(3), List(())))
    assert cell.snapshot() is state


# ------------------------------------------------------------ the diff slot


def _has_hole(slot):
    if slot is None:
        return True
    if isinstance(slot, Pair):
        return _has_hole(slot.first) or _has_hole(slot.second)
    if isinstance(slot, (Inl, Inr)):
        return _has_hole(slot.value)
    return False


def _fill(slot, diff):
    """``slot`` with each None part taken from ``diff``, sharing the rest."""
    if slot is None:
        return diff
    if not _has_hole(slot):
        return slot
    if isinstance(slot, Pair):
        return Pair(_fill(slot.first, diff.first), _fill(slot.second, diff.second))
    return type(slot)(_fill(slot.value, diff.value))


def _leaf_paths(v, path=()):
    """``(path, leaf)`` for every scalar leaf of ``v``."""
    if isinstance(v, Pair):
        yield from _leaf_paths(v.first, path + (0,))
        yield from _leaf_paths(v.second, path + (1,))
    elif isinstance(v, (Inl, Inr)):
        yield from _leaf_paths(v.value, path + (0,))
    elif isinstance(v, List):
        for i, x in enumerate(v.items):
            yield from _leaf_paths(x, path + (i,))
    elif isinstance(v, Map):
        for i, (_, x) in enumerate(v.entries):
            yield from _leaf_paths(x, path + (i,))
    else:
        yield path, v


def _replace(v, path, new):
    """``v`` with the leaf at ``path`` replaced by ``new``; every part
    off the path is the very object it was."""
    if not path:
        return new
    i, rest = path[0], path[1:]
    if isinstance(v, Pair):
        if i == 0:
            return Pair(_replace(v.first, rest, new), v.second)
        return Pair(v.first, _replace(v.second, rest, new))
    if isinstance(v, (Inl, Inr)):
        return type(v)(_replace(v.value, rest, new))
    if isinstance(v, List):
        return List(v.items[:i] + (_replace(v.items[i], rest, new),) + v.items[i + 1:])
    key, x = v.entries[i]
    return map_insert(v, key, _replace(x, rest, new))


def _same_kind(leaf):
    if isinstance(leaf, Bool):
        return Bool(not leaf.b)
    if isinstance(leaf, Int):
        return Int(leaf.i + 1)
    if isinstance(leaf, Nat):
        return Nat(leaf.n + 1)
    if isinstance(leaf, Text):
        return Text(leaf.s + "!")
    return Unit()


def _other_kind(leaf):
    return Text("?") if isinstance(leaf, Int) else Int(-1)


def test_diff_slot_agrees_with_the_full_check_on_random_containers():
    rng = random.Random(41)
    outcomes, holeless = set(), 0
    for _ in range(400):
        c = random_state_container(rng)
        action = derive_action(c)
        st = generate_value(c.shape, rng)
        pos = c.position(st)
        diff = generate_value(pos, rng)
        slot = action.slot(st, diff)
        if not _has_hole(slot):
            holeless += 1
            assert action.act(st, slot) == st, (c, st, slot)
        # diffs built from the slot with one leaf replaced, by a value
        # of the right kind and of the wrong kind
        template = _fill(slot, diff)
        candidates = [template]
        for path, leaf in _leaf_paths(template):
            candidates.append(_replace(template, path, _same_kind(leaf)))
            candidates.append(_replace(template, path, _other_kind(leaf)))
        for d in candidates:
            full = conforms(pos, d)
            assert conforms(pos, d, slot) == full, (c, st, d)
            outcomes.add(full)
    assert outcomes == {True, False}
    assert holeless >= 100


def _work_per_post(monkeypatch, demo, users):
    """``(conforms calls, entries handed to _moved)`` in one todo POST."""
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
    calls, entries = [0], [0]
    real_conforms, real_moved = lenserv.values.conforms, lenserv.values._moved

    def counting(*args, **kwargs):
        calls[0] += 1
        return real_conforms(*args, **kwargs)

    def moved(new, old):
        entries[0] += len(new)
        return real_moved(new, old)

    with monkeypatch.context() as patch:
        for module in (lenserv.values, lenserv.state, lenserv.engine):
            patch.setattr(module, "conforms", counting)
        patch.setattr(lenserv.values, "_moved", moved)
        resp = lenserv.engine.handle_post(p, f"{prefix}/add/{users - 1}", '"new"')
    assert resp.status == 200
    assert p.cell.snapshot() != initial
    return calls[0], entries[0]


@pytest.mark.parametrize("demo", ["todo", "combined"])
def test_todo_post_conformance_work_does_not_grow_with_users(monkeypatch, demo):
    assert (_work_per_post(monkeypatch, demo, 5000)[0]
            <= _work_per_post(monkeypatch, demo, 100)[0])


@pytest.mark.parametrize("demo", ["todo", "combined"])
def test_todo_post_scans_no_more_entries_at_5000_users_than_at_100(monkeypatch, demo):
    # The commit checks the one entry a POST stores, not the whole Map.
    assert (_work_per_post(monkeypatch, demo, 5000)[1]
            == _work_per_post(monkeypatch, demo, 100)[1])


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
