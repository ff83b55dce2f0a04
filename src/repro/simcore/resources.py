"""Shared-resource primitives for the simulation kernel.

Provides the classic trio used throughout the HVAC models:

* :class:`Resource` — ``capacity`` concurrent holders, FIFO queueing.
  Models NVMe queue slots, MDS service threads, NIC DMA engines.
* :class:`PriorityResource` — like :class:`Resource` but the wait queue
  is ordered by a numeric priority (lower = sooner).
* :class:`Container` — a continuous quantity (bytes of cache capacity).
* :class:`Store` / :class:`PriorityStore` live in :mod:`.stores`.

Requests are events; the idiomatic usage mirrors SimPy::

    with resource.request() as req:
        yield req
        yield env.timeout(service_time)
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any

from .engine import _PENDING, NORMAL, Environment, Event, SimulationError

__all__ = ["Resource", "PriorityResource", "Preempted", "Container"]


class _BaseRequest(Event):
    """Common machinery for resource requests: context-manager + cancel."""

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

    def __enter__(self) -> "_BaseRequest":
        return self

    def __exit__(self, exc_type, exc_val, exc_tb) -> None:
        self.cancel()

    def cancel(self) -> None:
        """Release if held, or withdraw from the wait queue."""
        self.resource._cancel(self)


class Request(_BaseRequest):
    __slots__ = ()


class Release(Event):
    """Event for an explicit release; triggers immediately."""

    __slots__ = ()


class Preempted(Exception):
    """Cause delivered when a preemptive resource evicts a holder."""

    def __init__(self, by: Any, usage_since: float):
        super().__init__(by, usage_since)
        self.by = by
        self.usage_since = usage_since


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

    def release(self, request: Request) -> Release:
        """Explicitly release a granted request."""
        self._cancel(request)
        rel = Release(self.env)
        rel.succeed()
        return rel

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


class _PriorityRequest(_BaseRequest):
    __slots__ = ("priority", "_key")

    def __init__(self, resource: "PriorityResource", priority: float):
        super().__init__(resource)
        self.priority = priority
        self._key = (priority, next(resource._tiebreak))

    def __lt__(self, other: "_PriorityRequest") -> bool:
        return self._key < other._key


class PriorityResource(Resource):
    """Resource whose waiters are served lowest-priority-value-first."""

    def __init__(self, env: Environment, capacity: int = 1):
        super().__init__(env, capacity)
        self._tiebreak = itertools.count()
        self.queue = []  # heap of _PriorityRequest (heapq needs a list)

    def request(self, priority: float = 0.0) -> _PriorityRequest:  # type: ignore[override]
        req = _PriorityRequest(self, priority)
        if len(self.users) < self._capacity:
            self.users.append(req)
            req.succeed()
        else:
            heapq.heappush(self.queue, req)
        return req

    def _cancel(self, request: _PriorityRequest) -> None:  # type: ignore[override]
        if request in self.users:  # perf: waive PERF105 -- users is capacity-bounded (typically 1-8 holders)
            self.users.remove(request)
            self._grant_next()
        else:
            try:
                self.queue.remove(request)
                heapq.heapify(self.queue)
            except ValueError:
                pass

    def _grant_next(self) -> None:
        while self.queue and len(self.users) < self._capacity:
            nxt = heapq.heappop(self.queue)
            self.users.append(nxt)
            nxt.succeed()


class _ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, env: Environment, amount: float):
        super().__init__(env)
        self.amount = amount


class _ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, env: Environment, amount: float):
        super().__init__(env)
        self.amount = amount


class Container:
    """A continuous stock of some quantity, e.g. free bytes on an NVMe.

    ``put(x)`` blocks while it would exceed ``capacity``; ``get(x)``
    blocks while fewer than ``x`` units are available.  Waiters are
    served FIFO but a blocked head-of-line request does not starve
    later, satisfiable requests (bypass is intentional: cache inserts of
    different sizes shouldn't convoy).
    """

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if capacity <= 0:
            raise SimulationError("capacity must be > 0")
        if not 0 <= init <= capacity:
            raise SimulationError("init must be within [0, capacity]")
        self.env = env
        self._capacity = float(capacity)
        self._level = float(init)
        self._puts: list[_ContainerPut] = []
        self._gets: list[_ContainerGet] = []

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> _ContainerPut:
        if amount < 0:
            raise SimulationError("amount must be >= 0")
        evt = _ContainerPut(self.env, amount)
        self._puts.append(evt)
        self._settle()
        return evt

    def get(self, amount: float) -> _ContainerGet:
        if amount < 0:
            raise SimulationError("amount must be >= 0")
        evt = _ContainerGet(self.env, amount)
        self._gets.append(evt)
        self._settle()
        return evt

    def _settle(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for evt in list(self._puts):
                if self._level + evt.amount <= self._capacity:
                    self._level += evt.amount
                    self._puts.remove(evt)
                    evt.succeed()
                    progressed = True
            for evt in list(self._gets):
                if evt.amount <= self._level:
                    self._level -= evt.amount
                    self._gets.remove(evt)
                    evt.succeed(evt.amount)
                    progressed = True
