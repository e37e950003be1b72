"""Self-contained law and property suite, runnable from the command
line (``lenserv laws``).

Each check is a named predicate over sampled inputs.  The suite covers
the classic lens laws on the shipped lenses, the deliberate
counterexample (an appending lens cannot be well-behaved), law
stability under composition, and the two choice combinators' state
semantics.  Everything is seeded, so a pass is reproducible.
"""

import random

from .containers import const_of, product
from .deplens import DepLens
from .lens import check_laws, compose, fst_lens, identity, snd_lens
from .servers import (
    clone_choice, ext_choice, get_lens, post_lens, reparam_server,
    state_server,
)
from .state import derive_action
from .values import (
    Bool, BoolS, Inl, Inr, Int, IntS, List, ListS, MapS, NatS, Pair,
    ProdS, TextS, Unit, generate_value, map_insert, map_lookup,
)


__all__ = [
    "ADDRESS", "USER", "address_lens", "street_number_lens", "append_lens",
    "run_all",
]


# A little address book, the classic example of focused record access.
ADDRESS = ProdS(TextS(), ProdS(TextS(), IntS()))       # city, (street, number)
USER = ProdS(TextS(), ProdS(ADDRESS, TextS()))         # name, (address, birthdate)

address_lens = compose(snd_lens(USER), fst_lens(ProdS(ADDRESS, TextS())))
street_number_lens = compose(snd_lens(ADDRESS), snd_lens(ProdS(TextS(), IntS())))


def _append_view(xs):
    return xs.items[-1] if xs.items else Bool(False)


def _append_update(xs, v):
    return List(xs.items + (v,))


# Appending looks like an update but is not one: pushing the same value
# twice is not the same as pushing it once, so put-put must fail.
append_lens = DepLens(
    const_of(ListS(BoolS())),
    const_of(BoolS()),
    view=_append_view,
    update=_append_update,
)


def _lawful_lens_checks():
    pair = ProdS(IntS(), TextS())
    yield "identity lens", identity(const_of(pair))
    yield "first projection", fst_lens(pair)
    yield "second projection", snd_lens(pair)
    yield "address of user", address_lens
    yield "street number of address", street_number_lens
    yield "street number of user", compose(address_lens, street_number_lens)


def check_shipped_lens_laws(n: int = 1000) -> bool:
    ok = True
    for name, l in _lawful_lens_checks():
        report = check_laws(l, n=n, rng=random.Random(11))
        if not report.ok:
            print(f"    law failure in {name}: {report}")
            ok = False
    return ok


def check_append_lens_unlawful() -> bool:
    finite = [List(items) for items in
              [(), (Bool(False),), (Bool(True),),
               (Bool(False), Bool(False)), (Bool(False), Bool(True)),
               (Bool(True), Bool(False)), (Bool(True), Bool(True))]]

    def gen(schema, rng):
        if isinstance(schema, ListS):
            return rng.choice(finite)
        return Bool(rng.random() < 0.5)

    report = check_laws(append_lens, n=50, gen=gen, rng=random.Random(3))
    if report.put_put is None:
        return False
    x, v = report.put_put
    once = append_lens.update(x, v)
    return append_lens.update(once, v) != once  # counterexample is real


def check_law_stability(pairs: int = 20, n: int = 1000) -> bool:
    """Composites of lawful lenses stay lawful."""
    nested = ProdS(ProdS(IntS(), TextS()), ProdS(BoolS(), NatS()))
    pool = [
        (fst_lens(nested), fst_lens(ProdS(IntS(), TextS()))),
        (fst_lens(nested), snd_lens(ProdS(IntS(), TextS()))),
        (snd_lens(nested), fst_lens(ProdS(BoolS(), NatS()))),
        (snd_lens(nested), snd_lens(ProdS(BoolS(), NatS()))),
        (snd_lens(USER), fst_lens(ProdS(ADDRESS, TextS()))),
        (address_lens, street_number_lens),
        (address_lens, fst_lens(ADDRESS)),
        (identity(const_of(nested)), fst_lens(nested)),
    ]
    rng = random.Random(17)
    for _ in range(pairs):
        a, b = rng.choice(pool)
        if not check_laws(compose(a, b), n=n, rng=rng).ok:
            return False
    return True


def _two_counters():
    c = const_of(IntS())
    bump = get_lens(IntS(), c, IntS(), lambda st, n: Int(st.i + n.i))
    put = post_lens(IntS(), c, IntS(), lambda st, n, body: body)
    return bump, put


def check_choice_isolation(samples: int = 500) -> bool:
    """A request routed left can never move the right-hand state."""
    a, b = _two_counters()
    srv = ext_choice(a, b)
    action = derive_action(srv.param)
    rng = random.Random(23)
    for _ in range(samples):
        x = generate_value(srv.left.shape, rng)
        st = generate_value(srv.param.shape, rng)
        r = generate_value(srv.right.position(srv.lens.view(Pair(x, st))), rng)
        out = srv.lens.update(Pair(x, st), r)
        moved = action.act(st, out.second)
        if isinstance(x, Inl):
            if not isinstance(out.second, Inl) or moved.second != st.second:
                return False
        else:
            if not isinstance(out.second, Inr) or moved.first != st.first:
                return False
    return True


def check_clone_choice_definition(samples: int = 1000) -> bool:
    """The shared-state choice must agree pointwise with reparametrised
    external choice over a duplicated state."""
    store = const_of(MapS(NatS(), ListS(TextS())))
    reader = get_lens(NatS(), store, ListS(TextS()),
                      lambda st, k: map_lookup(st, k, List(())))
    writer = post_lens(NatS(), store, TextS(),
                       lambda st, k, v: map_insert(st, k, List((v,))))
    merged = clone_choice(reader, writer)

    shared = store
    duplicate = DepLens(shared, product(shared, shared),
                        view=lambda p: Pair(p, p),
                        update=lambda p, d: d.value)
    reference = reparam_server(ext_choice(reader, writer), duplicate)

    rng = random.Random(29)
    for _ in range(samples):
        x = generate_value(merged.left.shape, rng)
        st = generate_value(merged.param.shape, rng)
        v = Pair(x, st)
        got, want = merged.lens.view(v), reference.lens.view(v)
        if got != want:
            return False
        r = generate_value(merged.right.position(got), rng)
        if merged.lens.update(v, r) != reference.lens.update(v, r):
            return False
    return True


def check_state_focus(samples: int = 300) -> bool:
    """Posting through a projection lens rewrites the focused leaf and
    nothing else."""
    home = ProdS(BoolS(), ProdS(BoolS(), BoolS()))
    whole = state_server(const_of(home))
    boiler = whole >> fst_lens(home)
    rng = random.Random(31)
    for _ in range(samples):
        st = generate_value(home, rng)
        flag = Bool(rng.random() < 0.5)
        out = boiler.lens.update(Pair(Unit(), st), flag)
        new = out.second
        if new.first != flag or new.second != st.second:
            return False
    return True


ALL_CHECKS = [
    ("lens laws hold for the shipped lenses", check_shipped_lens_laws),
    ("append lens fails put-put (and is caught)", check_append_lens_unlawful),
    ("lawful lenses compose to lawful lenses", check_law_stability),
    ("external choice isolates per-side state", check_choice_isolation),
    ("shared-state choice matches its definition", check_clone_choice_definition),
    ("lens-focused writes touch only the focus", check_state_focus),
]


def run_all(verbose: bool = True) -> bool:
    ok = True
    for name, fn in ALL_CHECKS:
        passed = fn()
        ok = ok and passed
        if verbose:
            print(f"{'ok  ' if passed else 'FAIL'}  {name}")
    return ok
