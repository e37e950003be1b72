import random
import sys

import pytest

import lenserv.deplens
from lenserv.containers import (
    Container, const_of, coproduct, keyed, pinned, product, tensor, unit_positions,
)
from lenserv.deplens import BoundaryMismatch, DepLens
from lenserv.lens import fst_lens, snd_lens
from lenserv.routing import parse_uri
from lenserv.servers import (
    HandlerError,
    Server,
    capture_prefix,
    clone_choice,
    ext_choice,
    get_lens,
    lens_server,
    path_prefix,
    post_compose,
    post_lens,
    pre_compose,
    reparam_server,
    seq_server,
    state_server,
)
from lenserv.values import (
    Bool,
    BoolS,
    Inl,
    Inr,
    Int,
    IntS,
    LitS,
    MapS,
    NatS,
    Pair,
    ProdS,
    SumS,
    Text,
    TextS,
    Unit,
    UnitS,
    generate_value,
)


def _negate():
    b = const_of(IntS())
    return DepLens(b, b, view=lambda x: Int(-x.i), update=lambda x, v: Int(-v.i))


# ----------------------------------------------------------------- primitives


def test_state_server_reads_and_replaces():
    s = state_server(const_of(IntS()))
    assert s.lens.view(Pair(Unit(), Int(7))) == Int(7)
    assert s.lens.update(Pair(Unit(), Int(7)), Int(9)) == Pair(Unit(), Int(9))


def test_lens_server_has_unit_state():
    s = lens_server(_negate())
    assert s.param.shape == UnitS()
    assert s.lens.view(Pair(Int(3), Unit())) == Int(-3)
    assert s.lens.update(Pair(Int(3), Unit()), Int(5)) == Pair(Int(-5), Unit())


def test_get_lens_reads_and_never_writes():
    store = const_of(IntS())
    double = get_lens(IntS(), store, IntS(), lambda st, n: Int(st.i + 2 * n.i))
    v = Pair(Int(10), Int(100))
    assert double.lens.view(v) == Int(120)
    # the POST position is trivial and the state comes back unchanged
    assert double.right.position(Int(120)) == UnitS()
    assert double.lens.update(v, Unit()) == Pair(Unit(), Int(100))


def test_post_lens_writes_and_reads_unit():
    store = const_of(IntS())
    setter = post_lens(IntS(), store, IntS(), lambda st, n, body: Int(st.i + body.i))
    v = Pair(Int(1), Int(40))
    assert setter.lens.view(v) == Unit()
    assert setter.right.position(Unit()) == IntS()
    assert setter.lens.update(v, Int(2)) == Pair(Unit(), Int(42))


def test_endpoint_lenses_require_const_state():
    dependent = product(const_of(IntS()), const_of(IntS()))
    with pytest.raises(ValueError):
        get_lens(IntS(), dependent, IntS(), lambda st, n: n)
    with pytest.raises(ValueError):
        post_lens(IntS(), dependent, IntS(), lambda st, n, b: st)
    mismatched = pinned(IntS(), TextS())
    with pytest.raises(ValueError):
        get_lens(IntS(), mismatched, IntS(), lambda st, n: n)
    # keyed state is accepted; an entry of another map is not
    get_lens(IntS(), keyed(NatS(), IntS()), IntS(), lambda st, n: n)
    post_lens(IntS(), keyed(NatS(), IntS()), IntS(), lambda st, n, b: Inl(Unit()))
    other_entry = pinned(MapS(NatS(), IntS()), SumS(UnitS(), ProdS(NatS(), TextS())))
    for lens in (get_lens, post_lens):
        with pytest.raises(ValueError):
            lens(IntS(), other_entry, IntS(), lambda *args: Unit())


def test_handler_errors_propagate():
    store = const_of(UnitS())
    boom = get_lens(IntS(), store, IntS(), lambda st, n: (_ for _ in ()).throw(HandlerError("no")))
    with pytest.raises(HandlerError):
        boom.lens.view(Pair(Int(1), Unit()))


# ---------------------------------------------------------------- combinators


def test_reparam_routes_state_through_the_lens():
    s = state_server(const_of(IntS()))
    wide = ProdS(IntS(), TextS())
    focus = fst_lens(wide)
    r = reparam_server(s, focus)
    assert r.param.shape == wide
    st = Pair(Int(3), Text("keep"))
    assert r.lens.view(Pair(Unit(), st)) == Int(3)
    assert r.lens.update(Pair(Unit(), st), Int(8)) == Pair(Unit(), Pair(Int(8), Text("keep")))


def test_reparam_rejects_mismatched_state():
    s = state_server(const_of(IntS()))
    with pytest.raises(BoundaryMismatch):
        reparam_server(s, fst_lens(ProdS(BoolS(), TextS())))


def test_a_boundary_mismatch_names_the_disagreeing_components():
    s = state_server(const_of(IntS()))
    with pytest.raises(BoundaryMismatch) as err:
        reparam_server(s, fst_lens(ProdS(BoolS(), TextS())))
    assert str(err.value) == ("cannot compose: Container(BoolS, pinned BoolS) "
                              "does not meet Container(IntS, pinned IntS)")


def test_clone_choice_refuses_states_that_differ_at_one_shape_value():
    # Positions IntS everywhere but at Inr(Inr(Inr(Inr(Unit())))).
    deep = pinned(UnitS(), BoolS())
    for _ in range(4):
        deep = coproduct(pinned(UnitS(), IntS()), deep)
    with pytest.raises(BoundaryMismatch):
        state_server(deep) & state_server(pinned(deep.shape, IntS()))


def test_seq_chains_responses_into_requests():
    a = state_server(const_of(IntS()))
    b = lens_server(_negate())
    chain = seq_server(a, b)
    st = Pair(Int(6), Unit())
    assert chain.lens.view(Pair(Unit(), st)) == Int(-6)
    # writing v through the chain negates it on the way back into a's state
    out = chain.lens.update(Pair(Unit(), st), Int(5))
    assert out == Pair(Unit(), Pair(Int(-5), Unit()))


def test_seq_rejects_mismatched_interfaces():
    a = state_server(const_of(IntS()))
    b = lens_server(fst_lens(ProdS(IntS(), IntS())))
    with pytest.raises(BoundaryMismatch):
        seq_server(a, b)


def test_pre_compose_adapts_requests():
    store = const_of(UnitS())
    echo = get_lens(IntS(), store, IntS(), lambda st, n: n)
    adapter = DepLens(
        pinned(ProdS(TextS(), IntS()), UnitS()),
        pinned(IntS(), UnitS()),
        view=lambda v: v.second,
        update=lambda v, p: p,
    )
    s = pre_compose(adapter, echo)
    assert s.left.shape == ProdS(TextS(), IntS())
    assert s.lens.view(Pair(Pair(Text("ignored"), Int(4)), Unit())) == Int(4)


def test_pre_compose_rejects_mismatch():
    echo = get_lens(IntS(), const_of(UnitS()), IntS(), lambda st, n: n)
    adapter = DepLens(
        pinned(TextS(), UnitS()),
        pinned(BoolS(), UnitS()),
        view=lambda v: Bool(True),
        update=lambda v, p: p,
    )
    with pytest.raises(BoundaryMismatch):
        pre_compose(adapter, echo)


def test_post_compose_focuses_the_response():
    home = ProdS(BoolS(), ProdS(BoolS(), BoolS()))
    whole = state_server(const_of(home))
    boiler = post_compose(whole, fst_lens(home))
    st = Pair(Bool(False), Pair(Bool(True), Bool(False)))
    assert boiler.lens.view(Pair(Unit(), st)) == Bool(False)
    out = boiler.lens.update(Pair(Unit(), st), Bool(True))
    assert out == Pair(Unit(), Pair(Bool(True), Pair(Bool(True), Bool(False))))


def test_post_compose_rejects_mismatch():
    whole = state_server(const_of(IntS()))
    with pytest.raises(BoundaryMismatch):
        post_compose(whole, fst_lens(ProdS(BoolS(), BoolS())))


def test_focusing_a_server_checks_its_boundary_once(monkeypatch):
    import lenserv.containers
    import lenserv.deplens

    # Count top-level walks only: the walk's own recursion goes through
    # lenserv.containers, which is left alone.
    calls = []
    real = lenserv.containers._disagreement

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(lenserv.deplens, "_disagreement", counting)
    a, b = ProdS(IntS(), BoolS()), ProdS(TextS(), IntS())
    state_server(const_of(ProdS(a, b))) >> (fst_lens(a) * snd_lens(b))
    assert len(calls) == 1


# The hand-written bodies reparam_server, seq_server, pre_compose and
# post_compose had before they were derived from dep_compose and
# dep_parallel, kept as oracles for the derived versions.


def _ref_reparam(s, l):
    def view(v):
        return s.lens.view(Pair(v.first, l.view(v.second)))

    def update(v, r):
        out = s.lens.update(Pair(v.first, l.view(v.second)), r)
        return Pair(out.first, l.update(v.second, out.second))

    return view, update


def _ref_seq(a, b):
    def view(v):
        x, st = v.first, v.second
        return b.lens.view(Pair(a.lens.view(Pair(x, st.first)), st.second))

    def update(v, arg):
        x, st = v.first, v.second
        mid = a.lens.view(Pair(x, st.first))
        rb = b.lens.update(Pair(mid, st.second), arg)
        ra = a.lens.update(Pair(x, st.first), rb.first)
        return Pair(ra.first, Pair(ra.second, rb.second))

    return view, update


def _ref_pre(l, s):
    def view(v):
        return s.lens.view(Pair(l.view(v.first), v.second))

    def update(v, r):
        out = s.lens.update(Pair(l.view(v.first), v.second), r)
        return Pair(l.update(v.first, out.first), out.second)

    return view, update


def _ref_post(s, l):
    def view(v):
        return l.view(s.lens.view(v))

    def update(v, r):
        mid = s.lens.view(v)
        return s.lens.update(v, l.update(mid, r))

    return view, update


def _oracle_cases():
    ints = ProdS(IntS(), IntS())
    home = ProdS(BoolS(), ProdS(BoolS(), BoolS()))
    counter, flag = const_of(IntS()), const_of(BoolS())
    whole = state_server(const_of(home))
    negate = lens_server(_negate())
    peek = get_lens(IntS(), counter, IntS(), lambda st, n: Int(st.i - n.i))
    sign = get_lens(IntS(), flag, IntS(), lambda st, n: n if st.b else Int(-n.i))
    bump = post_lens(IntS(), counter, UnitS(), lambda st, n, body: Int(st.i + n.i))
    put = post_lens(IntS(), counter, IntS(), lambda st, n, body: Int(body.i * n.i))
    drop_text = DepLens(
        pinned(ProdS(TextS(), IntS()), UnitS()),
        pinned(IntS(), UnitS()),
        view=lambda v: v.second,
        update=lambda v, p: p,
    )
    return {
        "post_fst": (post_compose, _ref_post, whole, fst_lens(home)),
        "post_snd": (post_compose, _ref_post, whole, snd_lens(home)),
        "post_negate": (post_compose, _ref_post, negate, _negate()),
        "pre_fst": (pre_compose, _ref_pre, fst_lens(ints), negate),
        "pre_get": (pre_compose, _ref_pre, drop_text, peek),
        "pre_post": (pre_compose, _ref_pre, drop_text, put),
        "reparam_state": (reparam_server, _ref_reparam, state_server(counter),
                          fst_lens(ProdS(IntS(), TextS()))),
        "reparam_get": (reparam_server, _ref_reparam, peek,
                        snd_lens(ProdS(TextS(), IntS()))),
        "reparam_post": (reparam_server, _ref_reparam, put, fst_lens(ints)),
        "seq_state_lens": (seq_server, _ref_seq, state_server(counter), negate),
        "seq_get_get": (seq_server, _ref_seq, peek, sign),
        "seq_post_state": (seq_server, _ref_seq, bump, state_server(flag)),
    }


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_derived_combinator_matches_its_hand_written_body(case):
    combinator, reference, *args = ORACLE_CASES[case]
    derived = combinator(*args)
    view, update = reference(*args)
    rng = random.Random(case)
    for _ in range(300):
        v = Pair(generate_value(derived.left.shape, rng),
                 generate_value(derived.param.shape, rng))
        y = derived.lens.view(v)
        assert y == view(v)
        r = generate_value(derived.right.position(y), rng)
        assert derived.lens.update(v, r) == update(v, r)


# -------------------------------------------------------------------- choice


def _counter_pair():
    c = const_of(IntS())
    bump = get_lens(IntS(), c, IntS(), lambda st, n: Int(st.i + n.i))
    put = post_lens(IntS(), c, IntS(), lambda st, n, body: body)
    return bump, put


def test_ext_choice_routes_by_tag():
    a, b = _counter_pair()
    srv = ext_choice(a, b)
    st = Pair(Int(10), Int(20))
    assert srv.lens.view(Pair(Inl(Int(5)), st)) == Inl(Int(15))
    assert srv.lens.view(Pair(Inr(Int(5)), st)) == Inr(Unit())


def test_ext_choice_diffs_are_tagged_and_isolated():
    a, b = _counter_pair()
    srv = ext_choice(a, b)
    st = Pair(Int(10), Int(20))
    out = srv.lens.update(Pair(Inr(Int(0)), st), Int(77))
    assert out.second == Inr(Int(77))
    out = srv.lens.update(Pair(Inl(Int(3)), st), Unit())
    assert out.second == Inl(Int(10))


def test_ext_choice_update_ignores_the_other_sides_state():
    a, b = _counter_pair()
    srv = ext_choice(a, b)
    rng = random.Random(22)
    for _ in range(500):
        x = generate_value(srv.left.shape, rng)
        p = generate_value(IntS(), rng)
        q = generate_value(IntS(), rng)
        q2 = generate_value(IntS(), rng)
        y = srv.lens.view(Pair(x, Pair(p, q)))
        r = generate_value(srv.right.position(y), rng)
        if isinstance(x, Inl):
            one = srv.lens.update(Pair(x, Pair(p, q)), r)
            two = srv.lens.update(Pair(x, Pair(p, q2)), r)
        else:
            one = srv.lens.update(Pair(x, Pair(q, p)), r)
            two = srv.lens.update(Pair(x, Pair(q2, p)), r)
        assert one == two


def test_ext_choice_matches_a_hand_rolled_reference():
    # The run ext_choice had before it became clone_choice over the
    # product state: each side sees its own component, and the handling
    # side's diff comes back tagged with that side.
    a, _ = _counter_pair()
    b = post_lens(IntS(), const_of(BoolS()), BoolS(), lambda st, n, body: Bool(st.b != body.b))
    chosen = ext_choice(a, b)

    def ref_view(x, st):
        if isinstance(x, Inl):
            return Inl(a.lens.view(Pair(x.value, st.first)))
        return Inr(b.lens.view(Pair(x.value, st.second)))

    def ref_update(x, st, r):
        if isinstance(x, Inl):
            out = a.lens.update(Pair(x.value, st.first), r)
            return Pair(out.first, Inl(out.second))
        out = b.lens.update(Pair(x.value, st.second), r)
        return Pair(out.first, Inr(out.second))

    rng = random.Random(23)
    for _ in range(1000):
        x = generate_value(chosen.left.shape, rng)
        st = generate_value(chosen.param.shape, rng)
        y = chosen.lens.view(Pair(x, st))
        assert y == ref_view(x, st)
        r = generate_value(chosen.right.position(y), rng)
        assert chosen.lens.update(Pair(x, st), r) == ref_update(x, st, r)


def test_clone_choice_requires_a_shared_state_interface():
    a, _ = _counter_pair()
    other = post_lens(IntS(), const_of(BoolS()), BoolS(), lambda st, n, b: b)
    with pytest.raises(BoundaryMismatch):
        clone_choice(a, other)
    with pytest.raises(BoundaryMismatch) as err:
        a & other
    assert str(err.value) == f"cannot compose: {a.param!r} does not meet {other.param!r}"


def test_clone_choice_matches_a_hand_rolled_reference():
    # Reference semantics written out directly: both branches see the
    # one state, and the handling branch's output state is the output.
    a, b = _counter_pair()
    merged = clone_choice(a, b)

    def ref_view(x, st):
        if isinstance(x, Inl):
            return Inl(a.lens.view(Pair(x.value, st)))
        return Inr(b.lens.view(Pair(x.value, st)))

    def ref_update(x, st, r):
        if isinstance(x, Inl):
            out = a.lens.update(Pair(x.value, st), r)
        else:
            out = b.lens.update(Pair(x.value, st), r)
        return Pair(out.first, out.second)

    rng = random.Random(24)
    for _ in range(1000):
        x = generate_value(merged.left.shape, rng)
        st = generate_value(merged.param.shape, rng)
        y = merged.lens.view(Pair(x, st))
        assert y == ref_view(x, st)
        r = generate_value(merged.right.position(y), rng)
        assert merged.lens.update(Pair(x, st), r) == ref_update(x, st, r)


def test_choice_and_literal_prefixes_call_their_server_directly():
    # No compose, parallel or adapter lens runs between a request and
    # the endpoint it names: a GET and a POST make no call into deplens.
    a, b = _counter_pair()
    s = "p" / (("a" / a) & ("b" / b))
    get = Pair(parse_uri(s.left.shape, "/p/a/1"), Int(10))
    post = Pair(parse_uri(s.left.shape, "/p/b/1"), Int(10))
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == lenserv.deplens.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        y, _ = s.lens.run(get)
        _, back = s.lens.run(post)
        diff = back(Int(5))
    finally:
        sys.setprofile(None)
    assert (y, diff) == (Inl(Int(11)), Pair(Unit(), Int(5)))
    assert calls == []


# ------------------------------------------------------------------ prefixes


def test_path_prefix_adds_a_literal_segment():
    s = path_prefix("add", state_server(const_of(IntS())))
    assert s.left.shape == ProdS(LitS("add"), UnitS())
    v = Pair(Pair(Text("add"), Unit()), Int(3))
    assert s.lens.view(v) == Int(3)
    # backward gives (response position, state diff); the response at a
    # unit-position request interface is just Unit
    assert s.lens.update(v, Int(4)) == Pair(Unit(), Int(4))


def test_capture_prefix_echoes_the_capture():
    store = const_of(UnitS())
    echo = get_lens(IntS(), store, IntS(), lambda st, n: Int(n.i * 2))
    s = capture_prefix(NatS(), echo)
    assert s.left.shape == ProdS(NatS(), IntS())
    assert s.right.shape == ProdS(NatS(), IntS())
    got = s.lens.view(Pair(Pair(Int(7), Int(5)), Unit()))
    assert got == Pair(Int(7), Int(10))


def test_capture_prefix_rejects_non_scalar_captures():
    s = state_server(const_of(IntS()))
    with pytest.raises(ValueError):
        capture_prefix(LitS("add"), s)
    with pytest.raises(ValueError):
        capture_prefix(ProdS(IntS(), IntS()), s)


# ------------------------------------------------------------- operator sugar


def _behave_alike(x_st_pairs, s1, s2, rng):
    for v in x_st_pairs:
        y1, y2 = s1.lens.view(v), s2.lens.view(v)
        assert y1 == y2
        r = generate_value(s1.right.position(y1), rng)
        assert s1.lens.update(v, r) == s2.lens.update(v, r)


def test_operator_spellings_match_the_named_combinators():
    rng = random.Random(25)
    a, b = _counter_pair()

    sugar, named = ("k" / a), path_prefix("k", a)
    vs = [Pair(Pair(Text("k"), generate_value(IntS(), rng)), generate_value(IntS(), rng))
          for _ in range(50)]
    _behave_alike(vs, sugar, named, rng)

    sugar, named = (NatS() / a), capture_prefix(NatS(), a)
    vs = [Pair(Pair(generate_value(NatS(), rng), generate_value(IntS(), rng)),
               generate_value(IntS(), rng)) for _ in range(50)]
    _behave_alike(vs, sugar, named, rng)

    sugar, named = (a & b), clone_choice(a, b)
    vs = [Pair(generate_value(sugar.left.shape, rng), generate_value(IntS(), rng))
          for _ in range(50)]
    _behave_alike(vs, sugar, named, rng)

    sugar, named = (a + b), ext_choice(a, b)
    vs = [Pair(generate_value(sugar.left.shape, rng),
               generate_value(sugar.param.shape, rng)) for _ in range(50)]
    _behave_alike(vs, sugar, named, rng)

    home = ProdS(BoolS(), BoolS())
    whole = state_server(const_of(home))
    sugar, named = (whole >> fst_lens(home)), post_compose(whole, fst_lens(home))
    vs = [Pair(Unit(), generate_value(home, rng)) for _ in range(50)]
    _behave_alike(vs, sugar, named, rng)

    chain_a = state_server(const_of(IntS()))
    chain_b = lens_server(_negate())
    sugar, named = (chain_a >> chain_b), seq_server(chain_a, chain_b)
    vs = [Pair(Unit(), Pair(generate_value(IntS(), rng), Unit())) for _ in range(50)]
    _behave_alike(vs, sugar, named, rng)

    echo = get_lens(IntS(), const_of(UnitS()), IntS(), lambda st, n: n)
    adapter = DepLens(
        pinned(ProdS(TextS(), IntS()), UnitS()),
        pinned(IntS(), UnitS()),
        view=lambda v: v.second,
        update=lambda v, p: p,
    )
    sugar, named = (adapter << echo), pre_compose(adapter, echo)
    vs = [Pair(Pair(generate_value(TextS(), rng), generate_value(IntS(), rng)), Unit())
          for _ in range(50)]
    _behave_alike(vs, sugar, named, rng)
