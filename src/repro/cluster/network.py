"""Compute fabric model (Summit: non-blocking EDR Infiniband fat tree).

Each node owns a TX and an RX port.  A transfer holds the sender's TX
port and the receiver's RX port simultaneously for

    ``link_latency + nbytes / nic_bandwidth``

so a single flow sees full NIC bandwidth while competing flows through
either endpoint queue up — the contention that matters for HVAC remote
cache reads (many clients hashing to one server).  The switch core is
treated as non-blocking, which matches Summit's fat tree; rack-level
oversubscription can be modelled by lowering
``bisection_bandwidth_per_node`` (enforced as a fabric-wide token pool,
which a non-blocking fabric does without).

Same-node transfers model the shared-memory path: endpoint overhead plus
a copy at ``loopback_bandwidth``.

Link faults (gray failures, §III-H extension): a per-link drop
probability and extra delay can be injected at runtime
(:meth:`Fabric.set_link_fault`), and whole nodes can be partitioned off
(:meth:`Fabric.isolate`).  A dropped message spends its propagation time
and then vanishes — :meth:`transfer` returns ``False`` — so a lost RPC
reply surfaces at the caller only as a deadline expiry, never as an
oracle signal.  Drop decisions come from a dedicated seeded stream, so
flaky-link runs are deterministic.
"""

from __future__ import annotations

from typing import Generator

from ..simcore import (
    Environment,
    MetricRegistry,
    RandomStreams,
    Resource,
    SimulationError,
)
from .specs import NetworkSpec

__all__ = ["Fabric", "RateLimiter"]


class _Port:
    """One direction of one NIC: a FIFO, capacity-1 bandwidth server."""

    __slots__ = ("res",)

    def __init__(self, env: Environment):
        self.res = Resource(env, capacity=1)


class Fabric:
    """The interconnect among ``n_nodes`` compute nodes."""

    def __init__(
        self,
        env: Environment,
        spec: NetworkSpec,
        n_nodes: int,
        metrics: MetricRegistry | None = None,
        rand: RandomStreams | None = None,
    ):
        if n_nodes <= 0:
            raise SimulationError("n_nodes must be positive")
        self.env = env
        self.spec = spec
        self.n_nodes = n_nodes
        self.metrics = metrics or MetricRegistry()
        self._tx = [_Port(env) for _ in range(n_nodes)]
        self._rx = [_Port(env) for _ in range(n_nodes)]
        # Core capacity: a pool of "flow" tokens, built only for an
        # oversubscribed fabric.  A flow already holds one of n_nodes TX
        # ports, so a pool of n_nodes tokens (the non-blocking default)
        # could never bind and would only cost a request per transfer.
        ratio = spec.bisection_bandwidth_per_node / spec.nic_bandwidth
        core_flows = max(1, int(n_nodes * min(ratio, 1.0)))
        self._core = (
            Resource(env, capacity=core_flows) if core_flows < n_nodes else None
        )
        # Optional rack topology: per-rack uplink ports (each direction
        # a serial bandwidth server) that inter-rack flows must cross.
        self._rack_size = spec.rack_size
        if self._rack_size > 0:
            n_racks = -(-n_nodes // self._rack_size)
            self._uplink_tx = [_Port(env) for _ in range(n_racks)]
            self._uplink_rx = [_Port(env) for _ in range(n_racks)]
            self._uplink_bw = (
                spec.rack_uplink_bandwidth
                or self._rack_size * spec.nic_bandwidth
            )
        else:
            self._uplink_tx = self._uplink_rx = []
            self._uplink_bw = 0.0
        # -- injected link faults --------------------------------------
        #: (src, dst) -> (drop probability, extra one-way delay)
        self._link_faults: dict[tuple[int, int], tuple[float, float]] = {}
        self._partitioned: set[int] = set()
        # Drop decisions draw from a named child of the experiment's
        # stream tree (or a default tree keyed on the fabric size), so
        # flaky-link runs replay bit-for-bit and drawing drops never
        # perturbs any other component's stream.
        self._fault_rng = (
            rand if rand is not None else RandomStreams(n_nodes)
        ).child("fabric").stream("drops")

    # -- fault injection -------------------------------------------------
    def set_link_fault(
        self,
        src: int,
        dst: int,
        drop_prob: float = 0.0,
        extra_delay: float = 0.0,
        symmetric: bool = True,
    ) -> None:
        """Make the ``src → dst`` link flaky (and ``dst → src`` too when
        ``symmetric``)."""
        self._check_node(src)
        self._check_node(dst)
        if not 0.0 <= drop_prob <= 1.0:
            raise SimulationError("drop_prob must be in [0, 1]")
        if extra_delay < 0:
            raise SimulationError("extra_delay must be >= 0")
        self._link_faults[(src, dst)] = (drop_prob, extra_delay)
        if symmetric:
            self._link_faults[(dst, src)] = (drop_prob, extra_delay)

    def clear_link_fault(self, src: int, dst: int, symmetric: bool = True) -> None:
        self._link_faults.pop((src, dst), None)
        if symmetric:
            self._link_faults.pop((dst, src), None)

    def isolate(self, node_id: int) -> None:
        """Transient partition: every message to or from ``node_id`` is lost."""
        self._check_node(node_id)
        self._partitioned.add(node_id)

    def heal(self, node_id: int) -> None:
        self._partitioned.discard(node_id)

    def _link_state(self, src: int, dst: int) -> tuple[float, float]:
        if src in self._partitioned or dst in self._partitioned:
            return 1.0, 0.0
        return self._link_faults.get((src, dst), (0.0, 0.0))

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self.n_nodes:
            raise SimulationError(f"node id {node_id} out of range 0..{self.n_nodes - 1}")

    def transfer(self, src: int, dst: int, nbytes: int) -> Generator:
        """Move ``nbytes`` from ``src`` to ``dst``; yields until delivered
        (or lost).  Returns ``True`` on delivery, ``False`` when an
        injected link fault or partition swallowed the message — the
        *receiver* never learns a lost message existed; only the sender's
        deadline can."""
        self._check_node(src)
        self._check_node(dst)
        if nbytes < 0:
            raise SimulationError("nbytes must be >= 0")
        spec = self.spec

        if src == dst:
            # Shared memory: immune to fabric faults (and to partitions —
            # a node can always talk to itself).
            yield self.env.timeout(
                spec.per_message_overhead + nbytes / spec.loopback_bandwidth
            )
            self.metrics.counter("fabric.local_transfers").incr()
            return True

        drop_prob, extra_delay = self._link_state(src, dst)
        yield self.env.timeout(spec.per_message_overhead)
        if extra_delay:
            yield self.env.timeout(extra_delay)
        if drop_prob and (
            drop_prob >= 1.0 or self._fault_rng.random() < drop_prob
        ):
            # The message dies in the fabric after its propagation time,
            # without ever occupying the receiver's port.
            yield self.env.timeout(spec.link_latency)
            self.metrics.counter("fabric.dropped_messages").incr()
            return False
        with self._tx[src].res.request() as tx:
            yield tx
            with self._rx[dst].res.request() as rx:
                yield rx
                flow = None if self._core is None else self._core.request()
                try:
                    if flow is not None:
                        yield flow
                    if self._crosses_racks(src, dst):
                        yield from self._inter_rack_leg(src, dst, nbytes)
                    else:
                        yield self.env.timeout(
                            spec.link_latency + nbytes / spec.nic_bandwidth
                        )
                finally:
                    if flow is not None:
                        flow.cancel()
        self.metrics.counter("fabric.remote_transfers").incr()
        self.metrics.tally("fabric.remote_bytes").add(nbytes)
        return True

    # -- topology --------------------------------------------------------
    def rack_of(self, node_id: int) -> int:
        """The rack containing ``node_id`` (0 for a flat fabric)."""
        self._check_node(node_id)
        return node_id // self._rack_size if self._rack_size > 0 else 0

    def _crosses_racks(self, src: int, dst: int) -> bool:
        return self._rack_size > 0 and self.rack_of(src) != self.rack_of(dst)

    def _inter_rack_leg(self, src: int, dst: int, nbytes: int) -> Generator:
        """Cross-rack hop: also hold both racks' uplink ports; the flow
        runs at the slower of NIC and uplink bandwidth."""
        spec = self.spec
        with self._uplink_tx[self.rack_of(src)].res.request() as up:
            yield up
            with self._uplink_rx[self.rack_of(dst)].res.request() as down:
                yield down
                rate = min(spec.nic_bandwidth, self._uplink_bw)
                yield self.env.timeout(2 * spec.link_latency + nbytes / rate)
        self.metrics.counter("fabric.inter_rack_transfers").incr()

    def message(self, src: int, dst: int) -> Generator:
        """A small control message (RPC header-sized): latency only."""
        yield from self.transfer(src, dst, 256)


class RateLimiter:
    """A byte-per-second pacing gate for background bulk flows.

    Repair streams (and any future scrubber/rebalancer) call
    :meth:`throttle` before each transfer; the limiter serializes the
    paced slots so the aggregate admitted rate never exceeds ``rate``
    bytes/s, regardless of how many flows share it.  ``rate <= 0``
    disables pacing.  Note this only *admits* traffic — the bytes still
    cross the real fabric links afterwards and contend there.
    """

    def __init__(self, env: Environment, rate: float = 0.0, name: str = "limiter"):
        if rate < 0:
            raise SimulationError("rate must be >= 0")
        self.env = env
        self.rate = rate
        self.name = name
        self._ready = 0.0

    def throttle(self, nbytes: int) -> Generator:
        """Yield until ``nbytes`` fit under the configured rate."""
        if self.rate <= 0:
            return
        # The reservation below is read-modify-write on the shared token:
        # two flows throttling at one timestamp get paced in nothing but
        # heap-insertion order, which the race sanitizer flags.
        self.env.note_access(f"limiter.{self.name}", "r")
        self.env.note_access(f"limiter.{self.name}", "w")
        start = max(self._ready, self.env.now)
        self._ready = start + nbytes / self.rate
        delay = self._ready - self.env.now
        if delay > 0:
            yield self.env.timeout(delay)
