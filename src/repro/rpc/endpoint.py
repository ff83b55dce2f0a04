"""Mercury-like RPC over the simulated fabric (paper §III-C).

HVAC uses the Mercury communication library for RPC and bulk transfers
over Infiniband.  This module reproduces the two primitives HVAC needs:

* **RPC**: a named operation with small request/response payloads.  The
  caller's generator blocks until the registered handler (a generator
  run inside the callee's environment) returns.
* **Bulk transfer**: an RDMA-style pull of a large buffer between two
  nodes, initiated out-of-band from the RPC (Mercury's
  ``HG_Bulk_transfer``), paying a one-time registration/setup cost and
  then streaming at fabric bandwidth.

Handlers execute with unbounded concurrency at the endpoint; real
serialization points (NVMe queue depth, HVAC server software overhead)
are modelled by the resources the handler itself acquires, which mirrors
how a Mercury progress loop hands work to server threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ..cluster import Fabric
from ..simcore import Environment, Event, SimulationError

__all__ = ["RPCEndpoint", "RPCError", "RPCTimeout", "BulkHandle"]

#: wire size of an RPC header (op id, cookies, bulk descriptors)
_HEADER_BYTES = 192
#: Mercury software cost to set up / tear down one bulk descriptor
_BULK_SETUP = 2.0e-6


class RPCError(Exception):
    """Remote handler raised, or endpoint is down."""


class RPCTimeout(RPCError):
    """The call did not complete within the caller's deadline."""


def _expire(expiry: Event) -> None:
    """Deadline callback: resolve the call's reply event (the timer's
    value) empty, unless the reply already came."""
    done = expiry.value
    if not done.triggered:
        done.succeed(None)


def _reply(done: Event, outcome: tuple) -> None:
    """Post ``outcome`` to the caller, unless its deadline already fired."""
    if not done.triggered:
        done.succeed(outcome)


@dataclass(frozen=True)
class BulkHandle:
    """Descriptor for an exposed remote buffer (RDMA registration)."""

    node_id: int
    nbytes: int


class RPCEndpoint:
    """One addressable RPC endpoint pinned to a node.

    Multiple endpoints per node are allowed — that is exactly how
    HVAC(i×1) runs ``i`` server instances on one compute node.
    """

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        node_id: int,
        name: str = "",
        metrics=None,
        spans=None,
    ):
        self.env = env
        self.fabric = fabric
        self.node_id = node_id
        self.name = name or f"ep@{node_id}"
        self._handlers: dict[str, Callable[..., Generator]] = {}
        self._alive = True
        self._hung = False
        #: optional :class:`~repro.simcore.MetricScope` for the failed-call
        #: counters (``timeouts``, ``errors``); call latency lives in the
        #: ``rpc.<op>`` spans
        self.metrics = metrics
        # Hoisted collectors: the per-failure name lookups must not
        # rebuild dotted labels (PERF103).
        if metrics is not None:
            self._m_status = {
                "timeout": metrics.counter("timeouts"),
                "error": metrics.counter("errors"),
            }
        else:
            self._m_status = None
        #: optional :class:`~repro.obs.SpanRecorder`; when set, every
        #: outbound call records an ``rpc.<op>`` span under the caller's
        #: parent span
        self.spans = spans
        # Per-op string memos (span names, process names): ops are a
        # small fixed vocabulary, calls are per-event — build each
        # label once, not once per call (PERF103).
        self._span_names: dict[str, str] = {}
        self._serve_names: dict[str, str] = {}
        #: optional membership piggyback hooks.  ``digest_provider()``
        #: returns ``(digest, extra_bytes)`` attached to every outbound
        #: request and every reply this endpoint sends;
        #: ``digest_sink(digest, peer_node)`` receives whatever rode in
        #: on the other direction.  Handlers never see the digests —
        #: membership traffic is free-riding, not a new RPC.
        self.digest_provider: Optional[Callable[[], tuple]] = None
        self.digest_sink: Optional[Callable[[Any, int], None]] = None

    def __repr__(self) -> str:
        state = "up" if self._alive else "DOWN"
        if self._hung:
            state = "HUNG"
        return f"<RPCEndpoint {self.name} node={self.node_id} {state}>"

    # -- server side ---------------------------------------------------
    def register(self, op: str, handler: Callable[..., Generator]) -> None:
        """Register ``handler(payload, src_node) -> generator`` for ``op``.

        The generator's return value becomes the RPC response.
        """
        if op in self._handlers:
            raise SimulationError(f"handler for {op!r} already registered on {self.name}")
        self._handlers[op] = handler

    @property
    def alive(self) -> bool:
        return self._alive

    def shutdown(self) -> None:
        """Kill the endpoint: all subsequent calls to it fail (§III-H failure model)."""
        self._alive = False

    def restart(self) -> None:
        self._alive = True
        self._hung = False

    @property
    def hung(self) -> bool:
        return self._hung

    def hang(self) -> None:
        """Gray failure: the endpoint keeps accepting requests but its
        progress loop stops — no handler runs, no reply is ever sent.
        Unlike :meth:`shutdown`, callers get *nothing*, not an error;
        only their own deadline can detect a hang."""
        self._hung = True

    def unhang(self) -> None:
        self._hung = False

    # -- label memos -----------------------------------------------------
    def _span_name(self, op: str) -> str:
        name = self._span_names.get(op)
        if name is None:
            name = self._span_names[op] = f"rpc.{op}"
        return name

    def _serve_name(self, op: str) -> str:
        """Process name for serving ``op`` here (memoized per op)."""
        name = self._serve_names.get(op)
        if name is None:
            name = self._serve_names[op] = f"{self.name}.{op}"
        return name

    # -- client side -----------------------------------------------------
    def call(
        self,
        target: "RPCEndpoint",
        op: str,
        payload: Any = None,
        payload_bytes: int = 0,
        response_bytes: int = 0,
        timeout: Optional[float] = None,
        span: Optional[int] = None,
        tenant: Optional[int] = None,
    ) -> Generator:
        """Invoke ``op`` on ``target``; yields until the response arrives.

        Returns the handler's return value.  Raises :class:`RPCError` if
        the target is down or the handler raises; :class:`RPCTimeout` on
        deadline expiry (the in-flight handler is abandoned, as Mercury
        does on ``HG_Cancel``).

        ``span`` is an optional parent span id: with a recorder attached
        (:attr:`spans`) the call records an ``rpc.<op>`` child span whose
        status distinguishes ok / timeout / error; ``tenant`` tags that
        span for per-tenant attribution in multi-tenant fleets.
        Telemetry is pure list appends — it cannot perturb the event
        stream.
        """
        rec = self.spans
        sid = None
        if rec is not None:
            sid = rec.begin(
                self._span_name(op), self.env.now, span,
                src=self.node_id, dst=target.node_id,
                **({} if tenant is None else {"tenant": tenant}),
            )
        try:
            value = yield from self._call(
                target, op, payload, payload_bytes, response_bytes, timeout
            )
        except RPCError as err:
            status = "timeout" if isinstance(err, RPCTimeout) else "error"
            if self._m_status is not None:
                self._m_status[status].incr()
            if rec is not None:
                rec.end(sid, self.env.now, status=status)
            raise
        if rec is not None:
            rec.end(sid, self.env.now)
        return value

    def _call(
        self,
        target: "RPCEndpoint",
        op: str,
        payload: Any,
        payload_bytes: int,
        response_bytes: int,
        timeout: Optional[float],
    ) -> Generator:
        """The uninstrumented call path (see :meth:`call`)."""
        if not target._alive:
            raise RPCError(f"endpoint {target.name} is down")
        env = self.env

        # Membership digest piggybacks on the request header for free
        # (modulo its wire bytes) — suspicion spreads along whatever
        # request edges the workload already exercises.
        piggyback, extra_bytes = (None, 0)
        if self.digest_provider is not None:
            piggyback, extra_bytes = self.digest_provider()

        # Request header (+ inline payload) crosses the wire.
        delivered = yield from self.fabric.transfer(
            self.node_id, target.node_id, _HEADER_BYTES + payload_bytes + extra_bytes
        )
        if not delivered:
            # Request lost in the fabric: the caller learns nothing until
            # its own deadline expires (there is no negative ack).
            if timeout is not None:
                yield env.timeout(timeout)
            raise RPCTimeout(f"{op} on {target.name}: request lost")
        if not target._alive:
            raise RPCError(f"endpoint {target.name} died mid-call")

        done = env.event()
        env.process(
            target._serve(
                op, payload, self.node_id, response_bytes, done, piggyback=piggyback
            ),
            name=target._serve_name(op),
        )
        if timeout is not None:
            # The deadline resolves the reply event itself, empty; the
            # server side posts a reply only while it is still pending.
            env.timeout(timeout, done).callbacks.append(_expire)
        outcome = yield done
        if outcome is None:
            raise RPCTimeout(f"{op} on {target.name} after {timeout}s")
        ok, value, reply_extra = outcome
        if reply_extra is not None and self.digest_sink is not None:
            self.digest_sink(reply_extra, target.node_id)
        if not ok:
            raise RPCError(f"{op} on {target.name} failed: {value!r}") from value
        return value

    def _serve(
        self,
        op: str,
        payload: Any,
        src: int,
        response_bytes: int,
        done: Event,
        piggyback: Any = None,
    ) -> Generator:
        if self._hung:
            # A hung server's progress loop never dispatches the request;
            # the caller's deadline is its only way out.
            return
        if piggyback is not None and self.digest_sink is not None:
            # Absorb the caller's membership digest before dispatch so a
            # server accused in it can refute on this very reply.
            self.digest_sink(piggyback, src)
        handler = self._handlers.get(op)
        if handler is None:
            err = SimulationError(f"no handler for {op!r} on {self.name}")
            _reply(done, (False, err, None))
            return
        try:
            value = yield from handler(payload, src)
        except Exception as err:  # noqa: BLE001 — relayed to caller
            _reply(done, (False, err, None))
            return
        if not self._alive:
            # Died while serving: response is lost.
            _reply(done, (False, RPCError(f"endpoint {self.name} died"), None))
            return
        if self._hung:
            # Hung after serving: the reply is never posted.
            return
        reply_extra, reply_bytes = (None, 0)
        if self.digest_provider is not None:
            reply_extra, reply_bytes = self.digest_provider()
        delivered = yield from self.fabric.transfer(
            self.node_id, src, _HEADER_BYTES + response_bytes + reply_bytes
        )
        if not delivered:
            # Reply lost in the fabric (Mercury cancel semantics): the
            # caller sees only its deadline expire.
            return
        _reply(done, (True, value, reply_extra))

    # -- bulk ------------------------------------------------------------
    def bulk_pull(self, handle: BulkHandle) -> Generator:
        """RDMA-read the remote buffer described by ``handle`` to here."""
        yield self.env.timeout(_BULK_SETUP)
        yield from self.fabric.transfer(handle.node_id, self.node_id, handle.nbytes)

    def bulk_push(self, dst_node: int, nbytes: int) -> Generator:
        """RDMA-write ``nbytes`` from here into an exposed buffer on ``dst_node``."""
        yield self.env.timeout(_BULK_SETUP)
        yield from self.fabric.transfer(self.node_id, dst_node, nbytes)
