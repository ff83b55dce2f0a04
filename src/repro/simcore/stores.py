"""Message-queue primitive: an unbounded FIFO store.

The HVAC server's *shared FIFO queue* (paper §III-C/D: every server
spawns a data-mover thread draining a mutex-protected FIFO of forwarded
file I/O operations) is modelled with :class:`Store`.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from .engine import Environment, Event

__all__ = ["Store"]


class _StorePut(Event):
    __slots__ = ()


class _StoreGet(Event):
    __slots__ = ("_store",)

    def __init__(self, env: Environment, store: "Store"):
        super().__init__(env)
        self._store = store

    def _withdraw(self) -> None:
        """Leave the wait queue — an interrupted getter must not become
        a phantom consumer that swallows the next item."""
        try:
            self._store._gets.remove(self)
        except ValueError:
            pass


class Store:
    """Unbounded FIFO store of arbitrary items.

    Invariant: items wait only while no get does, and gets wait only
    while the store is empty.
    """

    def __init__(self, env: Environment):
        self.env = env
        # Deques, not lists: every server data-mover pops the head once
        # per forwarded I/O, and list.pop(0) is O(n) per event (PERF105).
        self.items: deque = deque()
        self._gets: deque[_StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> _StorePut:
        """Insert ``item``; the returned event triggers at once."""
        evt = _StorePut(self.env)
        self.items.append(item)
        evt.succeed()
        if self._gets:
            self._gets.popleft().succeed(self.items.popleft())
        return evt

    def get(self) -> _StoreGet:
        """Remove and return the oldest item (event-valued)."""
        evt = _StoreGet(self.env, self)
        if self.items:
            evt.succeed(self.items.popleft())
        else:
            self._gets.append(evt)
        return evt
