"""Running state for servers: how diffs act on state values.

A server's backward pass produces a *diff* at the state's current
position, not a new state.  An ActionFamily says how such a diff moves
the state: const state is replaced outright, tensored state updates
componentwise, summed state updates inside whichever tag is present,
and product state (separate states side by side, as external choice
builds) updates exactly the component the diff addresses.

``derive_action`` reads the action off a container's structure, so any
server built from the library combinators gets its state semantics for
free.  ``StateCell`` holds the live value behind a lock; the engine
runs each POST's read-update-write sequence inside one transaction.
"""

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from .containers import Container, const_of, coproduct, product, tensor
from .values import Inl, Inr, Pair, Schema, UnitS, Value, conforms, default_value


__all__ = [
    "ActionFamily", "ActionDerivationError", "StateContractError",
    "act_const", "act_tensor", "act_sum", "act_prod",
    "derive_action", "initial_state", "StateCell",
]


class ActionDerivationError(Exception):
    """No update action can be read off the container's structure."""


class StateContractError(Exception):
    """A diff or a state value failed its conformance obligation."""


@dataclass(frozen=True)
class ActionFamily:
    """A container together with ``act(state, diff) -> state``."""

    container: Container
    act: Callable[[Value, Value], Value]


def act_const(s: Schema) -> ActionFamily:
    """Diffs on const state are whole replacement values."""
    return ActionFamily(const_of(s), lambda v, p: p)


def act_tensor(a: ActionFamily, b: ActionFamily) -> ActionFamily:
    def act(v, p):
        return Pair(a.act(v.first, p.first), b.act(v.second, p.second))
    return ActionFamily(tensor(a.container, b.container), act)


def act_sum(a: ActionFamily, b: ActionFamily) -> ActionFamily:
    """The diff lands inside whichever tag the state carries; the tag
    itself never changes."""
    def act(v, p):
        if isinstance(v, Inl):
            return Inl(a.act(v.value, p))
        return Inr(b.act(v.value, p))
    return ActionFamily(coproduct(a.container, b.container), act)


def act_prod(a: ActionFamily, b: ActionFamily) -> ActionFamily:
    """The diff's tag picks the component; the other is untouched."""
    def act(v, p):
        if isinstance(p, Inl):
            return Pair(a.act(v.first, p.value), v.second)
        return Pair(v.first, b.act(v.second, p.value))
    return ActionFamily(product(a.container, b.container), act)


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
            return ActionFamily(c, lambda v, p: p)
        if pos == UnitS():
            return ActionFamily(c, lambda v, p: v)
        raise ActionDerivationError(
            f"pinned container {c!r}: positions {pos!r} are neither the "
            f"shape nor unit, so diffs have no meaning as updates")
    sub_a = derive_action(c.form[1])
    sub_b = derive_action(c.form[2])
    if tag == "tensor":
        base = act_tensor(sub_a, sub_b)
    elif tag == "coproduct":
        base = act_sum(sub_a, sub_b)
    elif tag == "product":
        base = act_prod(sub_a, sub_b)
    else:
        raise ActionDerivationError(f"unknown container form {tag!r} in {c!r}")
    return ActionFamily(c, base.act)


def _verified_slot(c: Container, state: Value, diff: Value) -> Value | None:
    """A value of ``c.position(state)`` built from parts of ``state``
    (which conforms to ``c.shape``), laid out like ``diff`` so that
    ``conforms`` can walk the two in parallel; None where no part of
    the state is a position.  The recursion follows the one in
    ``derive_action``: a slot whose positions are its shape is the
    state itself, a product diff addresses the component its tag picks,
    a tensor diff both components, and a coproduct diff the component
    the state's tag names."""
    form = c.form
    if form is None:
        return None
    tag = form[0]
    if tag == "pinned":
        return state if form[1] == c.shape else None
    a, b = form[1], form[2]
    if tag == "product":
        if isinstance(diff, Inl):
            return Inl(_verified_slot(a, state.first, diff.value))
        if isinstance(diff, Inr):
            return Inr(_verified_slot(b, state.second, diff.value))
        return None
    if tag == "tensor":
        if not isinstance(diff, Pair):
            return None
        return Pair(_verified_slot(a, state.first, diff.first),
                    _verified_slot(b, state.second, diff.second))
    if tag == "coproduct":
        if isinstance(state, Inl):
            return _verified_slot(a, state.value, diff)
        return _verified_slot(b, state.value, diff)
    return None


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
            if not conforms(pos, diff, _verified_slot(self.container, old, diff)):
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
