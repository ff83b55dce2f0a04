"""Shared-resource primitive for the simulation kernel.

:class:`Resource` — ``capacity`` concurrent holders, FIFO queueing.
Models NVMe queue slots, MDS service threads, NIC DMA engines and the
HVAC data mover.  The server's FIFO of forwarded reads is a
:class:`~.stores.Store`.

Requests are events; the idiomatic usage mirrors SimPy::

    with resource.request() as req:
        yield req
        yield env.timeout(service_time)
"""

from __future__ import annotations

import heapq
from collections import deque

from .engine import _PENDING, NORMAL, Environment, Event, SimulationError

__all__ = ["Resource"]


class Request(Event):
    """A resource request: granted when it triggers, released on exit."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        # Slots set directly, not through Event.__init__: every fabric
        # port, NVMe slot and mover hop builds a request (see Timeout).
        self.env = resource.env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release if held, or withdraw from the wait queue."""
        self.resource._cancel(self)


class Resource:
    """FIFO resource with fixed integer capacity."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity <= 0:
            raise SimulationError(f"capacity must be > 0, got {capacity}")
        self.env = env
        self._capacity = int(capacity)
        self.users: list[Request] = []
        # Deque: NVMe/NIC queues grant from the head once per service
        # completion, and list.pop(0) is O(n) per event (PERF105).
        self.queue: deque[Request] = deque()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self.users)

    @property
    def queued(self) -> int:
        """Number of waiting requests."""
        return len(self.queue)

    def request(self) -> Request:
        req = Request(self)
        if len(self.users) < self._capacity:
            self.users.append(req)
            # Granted on the spot: Event.succeed() inlined.
            req._value = None
            env = self.env
            if env._observed:
                env._schedule(req, NORMAL, 0.0)
            else:
                heapq.heappush(env._queue, (env._now, NORMAL, next(env._seq), req))
        else:
            self.queue.append(req)
        return req

    # -- internals -----------------------------------------------------
    def _cancel(self, request: Request) -> None:
        if request in self.users:  # perf: waive PERF105 -- users is capacity-bounded (typically 1-8 holders)
            self.users.remove(request)
            self._grant_next()
        else:
            try:
                self.queue.remove(request)
            except ValueError:
                pass  # never granted, never queued (double cancel) — no-op

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            nxt = self.queue.popleft()
            self.users.append(nxt)
            nxt.succeed()
