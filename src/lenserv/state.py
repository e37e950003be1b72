"""Running state for servers: how diffs act on state values.

A server's backward pass produces a *diff* at the state's current
position, not a new state.  ``derive_action`` reads off a container's
structure how such a diff moves the state: const state is replaced
outright, keyed state stores the one entry the diff names (or nothing),
tensored state updates componentwise, summed state updates inside
whichever tag is present, and product state (separate states side by
side, as external choice builds) updates exactly the component the
diff addresses.  Any server built from the library combinators gets
its state semantics for free.

``StateCell`` holds the live value behind a lock and derives its own
action, so every commit runs a derived action.  A derived action maps
a conforming diff on a conforming state to a conforming state (one
case per form above, by induction), so a commit checks the diff and
nothing else.  The engine runs each POST's read-update-write sequence
inside one transaction.
"""

import threading
from contextlib import contextmanager
from typing import Callable

from .containers import Container, is_keyed
from .values import (
    Inl, Inr, Pair, UnitS, Value, conforms, default_value, map_insert,
)


__all__ = [
    "ActionDerivationError", "StateContractError",
    "derive_action", "initial_state", "StateCell",
]


class ActionDerivationError(Exception):
    """No update action can be read off the container's structure."""


class StateContractError(Exception):
    """A diff or a state value failed its conformance obligation."""


def derive_action(c: Container) -> Callable[[Value, Value], Value]:
    """Read the update action ``act(state, diff)`` off a container's
    structure.  Containers without a structural description (or pinned
    to a position schema that is not the shape, unit, or one entry of a
    map shape) have no derivable action."""
    if c.form is None:
        raise ActionDerivationError(
            f"no action derivable for hand-rolled container {c!r}")
    tag = c.form[0]
    if tag == "pinned":
        pos = c.form[1]
        if pos == c.shape:
            return lambda v, p: p
        if pos == UnitS():
            return lambda v, p: v
        if is_keyed(c):
            def store(v, p):
                if isinstance(p, Inl):
                    return v
                return map_insert(v, p.value.first, p.value.second)
            return store
        raise ActionDerivationError(
            f"pinned container {c!r}: positions {pos!r} are neither the "
            f"shape, unit, nor one entry of a map, so diffs have no meaning as updates")
    if tag not in ("tensor", "coproduct", "product"):
        raise ActionDerivationError(f"unknown container form {tag!r} in {c!r}")
    a = derive_action(c.form[1])
    b = derive_action(c.form[2])
    if tag == "tensor":
        def act(v, p):
            return Pair(a(v.first, p.first), b(v.second, p.second))
    elif tag == "coproduct":
        # The diff lands inside whichever tag the state carries; the
        # tag itself never changes.
        def act(v, p):
            if isinstance(v, Inl):
                return Inl(a(v.value, p))
            return Inr(b(v.value, p))
    else:
        # The diff's tag picks the component; the other is untouched.
        def act(v, p):
            if isinstance(p, Inl):
                return Pair(a(v.first, p.value), v.second)
            return Pair(v.first, b(v.second, p.value))
    return act


def initial_state(c: Container) -> Value:
    """The designated starting value of a state container's shape."""
    return default_value(c.shape)


class StateCell:
    """The live state value, the action derived from its container, and
    a lock.

    All reads and writes go through the lock; ``transaction`` keeps it
    held across a whole read-update-write sequence so concurrent POSTs
    serialize.
    """

    def __init__(self, container: Container, initial: Value):
        self.act = derive_action(container)
        if not conforms(container.shape, initial):
            raise StateContractError(
                f"initial state {initial!r} does not conform to {container.shape!r}")
        self.container = container
        self._current = initial
        self._lock = threading.RLock()

    def snapshot(self) -> Value:
        with self._lock:
            return self._current

    def apply_diff(self, diff: Value) -> Value:
        """Move the state by one diff, checked against the position
        schema at the current state.  The derived action keeps the new
        state conforming, so the check costs the diff's size, not the
        state's."""
        with self._lock:
            old = self._current
            pos = self.container.position(old)
            if not conforms(pos, diff):
                raise StateContractError(
                    f"diff {diff!r} does not conform to position schema {pos!r}")
            self._current = new = self.act(old, diff)
            return new

    @contextmanager
    def transaction(self):
        with self._lock:
            yield self
