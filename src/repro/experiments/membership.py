"""Membership & repair experiment: detector-only vs the gossip stack.

The driver behind ``repro membership``.  One crash/recover scenario —
a correlated two-node "rack burst" killing an adjacent server pair (so
some files lose their *entire* replica set, the case per-read fallback
handles worst) — is replayed under four failover configurations that
differ only in HVAC spec flags:

* ``detector``            — PR-1 state of the art: per-client timeout
  suspicion, per-read replica walk, PFS fallback;
* ``gossip``              — shared suspicion (piggybacked digests +
  anti-entropy), no placement change;
* ``gossip+remap``        — dead servers' hash ranges move to live
  stand-ins;
* ``gossip+remap+repair`` — plus peer-to-peer shard repair after
  recovery (recovered servers rejoin warm).

Reported per mode: mean detection latency, probe RPCs burned against
down servers (the duplicate-probe storm), degraded-read fraction during
the outage, PFS fallbacks, and the first-epoch-after-recovery penalty.
The dominance claim: the full stack beats detector-only on probes,
degraded fraction *and* recovery penalty simultaneously.

A second sweep re-runs the full stack across repair-bandwidth throttles
with the post-recovery epoch starting *while repair streams*, exposing
the repair-bandwidth vs epoch-interference trade-off.

Membership state transitions land in the same SLO window grid as the
read telemetry (``repro.obs.bucket_times`` + a ``count_strip`` row under
each degradation strip), and the raw transition log is the determinism
artifact CI uploads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..cluster import ClusterSpec
from ..faults import FaultSchedule, crash
from ..obs import SLOReport, SpanRecorder, bucket_times
from . import compare

__all__ = [
    "MEMBERSHIP_MODES",
    "MembershipResult",
    "membership_comparison",
]

#: scenario tuning on top of compare.FAULT_SPEC_OVERRIDES: two-way
#: replication (so remap has stand-ins to use), fast gossip relative to
#: the ms-scale epochs, suspected->dead escalation inside one outage
MEMBERSHIP_SPEC_OVERRIDES = dict(
    replication_factor=2,
    gossip_interval=0.005,
    suspect_to_dead=0.03,
    probation_period=0.02,
)

#: mode name -> HVAC spec flag overrides
MEMBERSHIP_MODES = {
    "detector": dict(membership_enabled=False),
    "gossip": dict(
        membership_enabled=True, remap_enabled=False, repair_enabled=False
    ),
    "gossip+remap": dict(
        membership_enabled=True, remap_enabled=True, repair_enabled=False
    ),
    "gossip+remap+repair": dict(
        membership_enabled=True, remap_enabled=True, repair_enabled=True
    ),
}


@dataclass
class ModeOutcome:
    """Everything one mode's run produced."""

    mode: str
    warm_seconds: float = 0.0
    outage_seconds: float = 0.0
    recovered_seconds: float = 0.0
    detect_latency: float = math.nan
    dup_probes: int = 0
    degraded_fraction: float = 0.0
    pfs_fallbacks: int = 0
    repair_bytes_peers: int = 0
    repair_bytes_pfs: int = 0
    repair_seconds: float = 0.0
    slo: SLOReport | None = None
    #: merged ``(t, owner, sid, old, new, inc, why)`` transition log
    transitions: list[tuple] = field(default_factory=list)
    #: sim times of every transition (for the window-grid strip)
    transition_times: list[float] = field(default_factory=list)

    @property
    def recovery_penalty(self) -> float:
        return (
            self.recovered_seconds / self.warm_seconds
            if self.warm_seconds
            else math.nan
        )


@dataclass
class MembershipResult(compare.Comparison):
    """Four-mode comparison + repair-throttle sweep."""

    n_nodes: int
    n_files: int
    victims: list[int]
    outage_epochs: int
    windows: int
    outcomes: dict[str, ModeOutcome] = field(default_factory=dict)
    #: (bandwidth, repair_s, bytes_peer, bytes_pfs, epoch_s, slowdown)
    throttle_rows: list[list] = field(default_factory=list)
    dashboard: str = ""

    def rows(self) -> list[list]:
        out = []
        for mode, oc in self.outcomes.items():
            out.append([
                mode,
                oc.detect_latency,
                oc.dup_probes,
                f"{oc.degraded_fraction:.1%}",
                oc.pfs_fallbacks,
                oc.outage_seconds,
                oc.recovered_seconds,
                oc.recovery_penalty,
            ])
        return out

    def dominates(self) -> bool:
        """The acceptance predicate: full stack strictly beats
        detector-only on probes, degraded fraction, and recovery
        penalty."""
        det = self.outcomes["detector"]
        full = self.outcomes["gossip+remap+repair"]
        return (
            full.dup_probes < det.dup_probes
            and full.degraded_fraction < det.degraded_fraction
            and full.recovery_penalty < det.recovery_penalty
        )

    def render(self) -> str:
        throttle = compare.table(
            ["repair B/s", "repair (s)", "B from peers", "B from PFS",
             "epoch during repair (s)", "slowdown vs warm"],
            self.throttle_rows,
            title="Repair-bandwidth sweep (post-recovery epoch "
                  "overlapping the repair stream)",
        ) if self.throttle_rows else ""
        return compare.render(
            ["mode", "detect (s)", "probes@down", "degraded", "PFS fb",
             "outage (s)", "recovered (s)", "penalty"],
            self.rows(),
            (f"Membership & repair ({self.n_nodes} nodes, "
             f"{self.n_files} files/epoch/node, "
             f"crash nodes {self.victims}, "
             f"{self.outage_epochs} outage epochs)"),
            "full stack strictly dominates detector-only "
            "(probes, degraded fraction, recovery penalty)",
            self.dominates(),
            throttle,
            self.dashboard,
        )

    def transition_log(self) -> str:
        """The determinism artifact: every membership transition of
        every view, in (time, owner, server) order."""
        return compare.mode_log(self.outcomes, lambda oc: (
            f"{t:.9f} {owner} s{sid} {old}->{new} inc={inc} {why}"
            for t, owner, sid, old, new, inc, why in oc.transitions
        ))

    def logs(self) -> dict[str, tuple[str, str]]:
        return {"transitions": ("transitions.log", self.transition_log())}


def _collect_transitions(dep) -> list[tuple]:
    """Merge every view's transition log, deterministically ordered."""
    sources = [dep.views[node_id] for node_id in sorted(dep.views)]
    sources += [server.board for server in dep.servers if server.board is not None]
    merged = [
        (t, src.owner, sid, old, new, inc, why)
        for src in sources
        for t, sid, old, new, inc, why in src.transitions
    ]
    merged.sort(key=lambda row: (row[0], row[1], row[2]))
    return merged


def _detection_latencies(dep, victims, t_crash: float) -> list[float]:
    """Per client: how long until it first held a victim suspect/dead."""
    out = []
    for node_id in sorted(dep._clients):
        cli = dep._clients[node_id]
        first = None
        if cli.view is not None:
            for t, sid, _old, new, _inc, _why in cli.view.transitions:
                if t >= t_crash and sid in victims and new in ("suspected", "dead"):
                    first = t
                    break
        else:
            for t, sid in cli.detector.suspicion_log:
                if t >= t_crash and sid in victims:
                    first = t
                    break
        if first is not None:
            out.append(first - t_crash)
    return out


def _probe_count(dep) -> int:
    """RPC attempts burned against down servers: read-path strikes plus
    gossip recovery pings that still failed."""
    m = dep.metrics
    total = (
        m.counter("hvac.client_rpc_timeouts").value
        + m.counter("hvac.client_rpc_failures").value
    )
    for node_id in sorted(dep.gossips):
        total += dep.gossips[node_id].metrics.counter("ping_failures").value
    return total


def _run_mode(
    mode: str,
    spec: ClusterSpec,
    n_nodes: int,
    files,
    victims,
    outage_epochs: int,
    windows: int,
    seed: int,
    trace=None,
    settle: float | None = None,
    drain: bool = True,
) -> ModeOutcome:
    """One full crash -> outage -> recover -> measure cycle."""
    oc = ModeOutcome(mode=mode)
    rec = SpanRecorder()
    env, dep, _ = compare.build(spec, n_nodes, seed, spans=rec, trace=trace)
    if dep.repair is not None:
        dep.repair.attach_manifest(files)

    compare.epoch(env, dep, n_nodes, files)  # cold
    oc.warm_seconds = compare.epoch(env, dep, n_nodes, files)

    t_crash = env.now
    dep.inject(FaultSchedule([crash(0.0, v) for v in victims]))
    probes0 = _probe_count(dep)
    degraded = compare.counter_since(dep, "hvac.client_degraded_reads")
    fallbacks = compare.counter_since(dep, "hvac.client_pfs_fallback")

    outage_total = 0.0
    for _ in range(outage_epochs):
        outage_total += compare.epoch(env, dep, n_nodes, files)
    oc.outage_seconds = outage_total / outage_epochs
    n_outage_reads = n_nodes * len(files) * outage_epochs
    oc.degraded_fraction = degraded() / n_outage_reads
    oc.pfs_fallbacks = fallbacks()

    lats = _detection_latencies(dep, set(victims), t_crash)
    oc.detect_latency = sum(lats) / len(lats) if lats else math.nan

    for v in victims:
        dep.recover_node(v)
    if settle is None:
        settle = 2 * spec.hvac.probation_period
    if settle > 0:
        env.run(until=env.now + settle)
    if drain:
        compare.drain_repair(env, dep)
    oc.recovered_seconds = compare.epoch(env, dep, n_nodes, files)
    if not drain:
        compare.drain_repair(env, dep)
    oc.dup_probes = _probe_count(dep) - probes0

    if dep.repair is not None:
        oc.repair_bytes_peers = sum(
            r.bytes_from_peers for r in dep.repair.reports
        )
        oc.repair_bytes_pfs = sum(r.bytes_from_pfs for r in dep.repair.reports)
        oc.repair_seconds = sum(
            r.seconds for r in dep.repair.reports if not r.aborted
        )
    t_end = env.now
    dep.teardown()

    oc.transitions = _collect_transitions(dep)
    oc.transition_times = [row[0] for row in oc.transitions if row[0] >= t_crash]
    oc.slo = compare.slo_over(rec, t_crash, t_end, windows)
    return oc


def membership_comparison(
    n_nodes: int = 6,
    n_files: int = 36,
    file_size: int = 25_000,
    victims: tuple[int, ...] = (1, 2),
    outage_epochs: int = 2,
    windows: int = 12,
    repair_bandwidths: tuple[float, ...] = (1e6, 1e7, 1e8, 0.0),
    spec: ClusterSpec | None = None,
    seed: int = 0,
    trace=None,
) -> MembershipResult:
    """Run the four failover modes plus the repair-throttle sweep.

    ``victims`` defaults to an *adjacent* node pair: under modulo
    placement with two-way replication, files homed at the first victim
    lose both replicas — the correlated-failure case where remapping
    pays most.  ``repair_bandwidths`` values of ``0.0`` mean
    unthrottled.
    """
    compare.require_scale("membership_comparison", n_nodes, 3, windows)
    if outage_epochs < 1:
        raise ValueError("membership_comparison needs >= 1 outage epoch")
    victims = [v % n_nodes for v in victims]
    if len(set(victims)) != len(victims):
        raise ValueError(
            f"membership victims collide modulo {n_nodes} nodes: {victims}"
        )
    base = compare.fault_spec(spec, **MEMBERSHIP_SPEC_OVERRIDES)
    files = compare.files(n_files, file_size)
    result = MembershipResult(
        n_nodes=n_nodes,
        n_files=n_files,
        victims=list(victims),
        outage_epochs=outage_epochs,
        windows=windows,
    )
    for mode, flags in MEMBERSHIP_MODES.items():
        mode_spec = base.with_hvac(**flags)
        result.outcomes[mode] = _run_mode(
            mode, mode_spec, n_nodes, files, victims,
            outage_epochs, windows, seed, trace=trace,
        )

    full_flags = MEMBERSHIP_MODES["gossip+remap+repair"]
    warm = result.outcomes["gossip+remap+repair"].warm_seconds
    for bw in repair_bandwidths:
        sweep_spec = base.with_hvac(**full_flags, repair_bandwidth=bw)
        oc = _run_mode(
            f"repair@{bw:g}", sweep_spec, n_nodes, files, victims,
            outage_epochs, windows, seed, settle=0.0, drain=False,
        )
        result.throttle_rows.append([
            "unthrottled" if bw <= 0 else f"{bw:.0e}",
            oc.repair_seconds,
            oc.repair_bytes_peers,
            oc.repair_bytes_pfs,
            oc.recovered_seconds,
            oc.recovered_seconds / warm if warm else math.nan,
        ])

    # membership-transition strips under each mode's post-crash windows
    result.dashboard = compare.mode_dashboard(
        result.outcomes,
        "post-crash SLO windows (origin = crash instant)",
        ("membership transitions", [
            (mode, bucket_times(
                oc.transition_times, oc.slo.window, oc.slo.t0, oc.slo.t1
            ))
            for mode, oc in result.outcomes.items()
            if oc.slo is not None
        ]),
    )
    return result
