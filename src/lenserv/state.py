"""Running state for servers: how diffs act on state values.

A server's backward pass produces a *diff* at the state's current
position, not a new state.  An ActionFamily says how such a diff moves
the state: const state is replaced outright, tensored state updates
componentwise, summed state updates inside whichever tag is present,
and product state (separate states side by side, as external choice
builds) updates exactly the component the diff addresses.  Its *slot*
is the diff that would change nothing, built from the state's own
parts, so a commit skips each part of a diff that the state holds.

``derive_action`` reads both off a container's structure in one
recursion, so any server built from the library combinators gets its
state semantics for free.  ``StateCell`` holds the live value behind a
lock; the engine runs each POST's read-update-write sequence inside
one transaction.
"""

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from .containers import Container
from .values import Inl, Inr, Pair, UnitS, Value, conforms, default_value


__all__ = [
    "ActionFamily", "ActionDerivationError", "StateContractError",
    "derive_action", "initial_state", "StateCell",
]


class ActionDerivationError(Exception):
    """No update action can be read off the container's structure."""


class StateContractError(Exception):
    """A diff or a state value failed its conformance obligation."""


@dataclass(frozen=True)
class ActionFamily:
    """``act(state, diff)`` moves a state by a diff; ``slot(state, diff)``
    is the diff that would leave ``state`` unchanged, laid out like
    ``diff`` and built from parts of ``state``, None where none fits."""

    act: Callable[[Value, Value], Value]
    slot: Callable[[Value, Value], Value | None]


def derive_action(c: Container) -> ActionFamily:
    """Read the update action off a container's structure.  Containers
    without a structural description (or pinned to a position schema
    that is neither the shape nor unit) have no derivable action."""
    if c.form is None:
        raise ActionDerivationError(
            f"no action derivable for hand-rolled container {c!r}")
    tag = c.form[0]
    if tag == "pinned":
        pos = c.form[1]
        if pos == c.shape:
            # A diff is the whole replacement value; the state is its own slot.
            return ActionFamily(lambda v, p: p, lambda v, p: v)
        if pos == UnitS():
            return ActionFamily(lambda v, p: v, lambda v, p: None)
        raise ActionDerivationError(
            f"pinned container {c!r}: positions {pos!r} are neither the "
            f"shape nor unit, so diffs have no meaning as updates")
    a = derive_action(c.form[1])
    b = derive_action(c.form[2])
    if tag == "tensor":
        def act(v, p):
            return Pair(a.act(v.first, p.first), b.act(v.second, p.second))

        def slot(v, p):
            if not isinstance(p, Pair):
                return None
            return Pair(a.slot(v.first, p.first), b.slot(v.second, p.second))
    elif tag == "coproduct":
        # The diff lands inside whichever tag the state carries; the
        # tag itself never changes.
        def act(v, p):
            if isinstance(v, Inl):
                return Inl(a.act(v.value, p))
            return Inr(b.act(v.value, p))

        def slot(v, p):
            if isinstance(v, Inl):
                return a.slot(v.value, p)
            return b.slot(v.value, p)
    elif tag == "product":
        # The diff's tag picks the component; the other is untouched.
        def act(v, p):
            if isinstance(p, Inl):
                return Pair(a.act(v.first, p.value), v.second)
            return Pair(v.first, b.act(v.second, p.value))

        def slot(v, p):
            if isinstance(p, Inl):
                return Inl(a.slot(v.first, p.value))
            if isinstance(p, Inr):
                return Inr(b.slot(v.second, p.value))
            return None
    else:
        raise ActionDerivationError(f"unknown container form {tag!r} in {c!r}")
    return ActionFamily(act, slot)


def initial_state(c: Container) -> Value:
    """The designated starting value of a state container's shape."""
    return default_value(c.shape)


class StateCell:
    """The live state value, an action to move it, and a lock.

    All reads and writes go through the lock; ``transaction`` keeps it
    held across a whole read-update-write sequence so concurrent POSTs
    serialize.
    """

    def __init__(self, container: Container, action: ActionFamily, initial: Value):
        if not conforms(container.shape, initial):
            raise StateContractError(
                f"initial state {initial!r} does not conform to {container.shape!r}")
        self.container = container
        self.action = action
        self._current = initial
        self._lock = threading.RLock()

    def snapshot(self) -> Value:
        with self._lock:
            return self._current

    def apply_diff(self, diff: Value) -> Value:
        """Move the state by one diff; conformance is checked on the
        way in and on the way out.  Both checks skip the subtrees that
        are the very objects of the verified current state, so a diff
        that rebuilds a small part of a large state costs that part."""
        with self._lock:
            old = self._current
            pos = self.container.position(old)
            if not conforms(pos, diff, self.action.slot(old, diff)):
                raise StateContractError(
                    f"diff {diff!r} does not conform to position schema {pos!r}")
            new = self.action.act(old, diff)
            if not conforms(self.container.shape, new, old):
                raise StateContractError(
                    f"updated state {new!r} does not conform to {self.container.shape!r}")
            self._current = new
            return new

    @contextmanager
    def transaction(self):
        with self._lock:
            yield self
