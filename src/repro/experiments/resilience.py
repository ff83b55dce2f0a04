"""Resilience experiment (paper §III-H): epoch time under faults.

Two drivers:

* :func:`resilience_sweep` — the quantitative claim: as the fraction of
  failed cache servers grows, epoch time degrades *gracefully* toward
  (and is bounded by) the all-PFS baseline, and returns to near-warm
  performance after the servers recover and finish probation.
* :func:`fault_matrix` — the qualitative claim: with failover enabled,
  an epoch *completes* (no deadlock, no unbounded stall) under every
  fault type the injector knows — crash, hang, flapping, degraded NVMe,
  flaky link — with liveness decided purely by client-side timeouts.

Both run on the TESTING spec with a tightened RPC deadline so detection
is fast relative to the tiny files, and both are deterministic under a
fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..cluster import ClusterSpec
from ..faults import FaultSchedule, crash, degrade, flaky_link, flap, hang
from . import compare
from .compare import FAULT_SPEC_OVERRIDES

__all__ = [
    "FAULT_SPEC_OVERRIDES",
    "FaultMatrixResult",
    "ResilienceResult",
    "fault_matrix",
    "resilience_sweep",
]


# ---------------------------------------------------------------------------
@dataclass
class ResilienceResult:
    """Fail-fraction sweep: epoch seconds per phase, per fraction."""

    n_nodes: int
    n_files: int
    fail_fractions: list[float]
    warm: list[float] = field(default_factory=list)
    degraded: list[float] = field(default_factory=list)
    recovered: list[float] = field(default_factory=list)
    pfs_fallbacks: list[int] = field(default_factory=list)
    pfs_baseline: float = 0.0

    def rows(self) -> list[list]:
        out = []
        for i, frac in enumerate(self.fail_fractions):
            out.append([
                f"{frac:.0%}",
                self.warm[i],
                self.degraded[i],
                self.degraded[i] / self.warm[i] if self.warm[i] else math.nan,
                self.recovered[i],
                self.pfs_fallbacks[i],
            ])
        return out

    def render(self) -> str:
        table = compare.table(
            ["failed servers", "warm (s)", "degraded (s)", "slowdown",
             "recovered (s)", "PFS fallbacks"],
            self.rows(),
            title=(f"Resilience sweep ({self.n_nodes} nodes, "
                   f"{self.n_files} files/epoch/node)"),
        )
        return (f"{table}\n"
                f"all-PFS baseline epoch: {self.pfs_baseline:.4f} s "
                f"(degradation bound)")


def resilience_sweep(
    fail_fractions=(0.0, 0.25, 0.5),
    n_nodes: int = 8,
    n_files: int = 48,
    file_size: int = 25_000,
    spec: ClusterSpec | None = None,
    seed: int = 0,
    spans=None,
    trace=None,
) -> ResilienceResult:
    """Epoch-time degradation vs fraction of crashed cache servers.

    For each fraction: warm the cache, crash ``ceil(frac * n_nodes)``
    nodes via a :class:`FaultSchedule`, measure the degraded epoch,
    recover the nodes, wait out probation, measure the recovered epoch.

    ``spans`` (an optional :class:`~repro.obs.SpanRecorder`) captures
    every deployment's read telemetry into one timeline — the
    determinism test's double-run comparison key.
    """
    spec = compare.fault_spec(spec)
    result = ResilienceResult(
        n_nodes=n_nodes, n_files=n_files,
        fail_fractions=[float(f) for f in fail_fractions],
    )
    files = compare.files(n_files, file_size)

    env, _, pfs = compare.build(spec, n_nodes, seed, trace=trace)
    result.pfs_baseline = compare.pfs_epoch(env, pfs, n_nodes, files)

    for frac in result.fail_fractions:
        env, dep, _ = compare.build(spec, n_nodes, seed, spans=spans, trace=trace)
        compare.epoch(env, dep, n_nodes, files)  # cold
        result.warm.append(compare.epoch(env, dep, n_nodes, files))

        n_failed = min(n_nodes - 1, math.ceil(frac * n_nodes)) if frac else 0
        victims = list(range(n_failed))
        dep.inject(FaultSchedule([crash(0.0, node) for node in victims]))
        fallbacks = compare.counter_since(dep, "hvac.client_pfs_fallback")
        result.degraded.append(compare.epoch(env, dep, n_nodes, files))
        result.pfs_fallbacks.append(fallbacks())

        for node in victims:
            dep.recover_node(node)
        if victims:
            # Let every client's probation for the victims expire so the
            # next epoch re-probes (and re-adopts) them.
            env.run(until=env.now + 2 * spec.hvac.probation_period)
        result.recovered.append(compare.epoch(env, dep, n_nodes, files))
        dep.teardown()
    return result


# ---------------------------------------------------------------------------
@dataclass
class FaultMatrixResult:
    """Per-fault-kind epoch completion under a mid-epoch injection."""

    n_nodes: int
    n_files: int
    kinds: list[str] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    timeouts: list[int] = field(default_factory=list)
    fallbacks: list[int] = field(default_factory=list)
    suspicions: list[int] = field(default_factory=list)

    def rows(self) -> list[list]:
        return [
            [k, t, to, fb, su]
            for k, t, to, fb, su in zip(
                self.kinds, self.epoch_seconds, self.timeouts,
                self.fallbacks, self.suspicions,
            )
        ]

    def render(self) -> str:
        return compare.table(
            ["fault", "epoch (s)", "RPC timeouts", "PFS fallbacks",
             "suspicions"],
            self.rows(),
            title=(f"Fault matrix ({self.n_nodes} nodes, "
                   f"{self.n_files} files/epoch/node): every epoch completes"),
        )


def _matrix_schedules(n_nodes: int) -> dict[str, FaultSchedule]:
    victim = 1 % n_nodes
    other = 2 % n_nodes
    return {
        "none": FaultSchedule(),
        "crash": FaultSchedule([crash(0.002, victim)]),
        "crash+recover": FaultSchedule([crash(0.002, victim, recover_after=0.05)]),
        "hang": FaultSchedule([hang(0.002, victim)]),
        "flap": FaultSchedule([flap(0.002, victim, period=0.01, cycles=3)]),
        "degrade": FaultSchedule([degrade(0.002, victim, factor=8.0)]),
        "flaky_link": FaultSchedule(
            [flaky_link(0.002, 0, other, drop_prob=0.5, duration=0.1)]
        ),
    }


def fault_matrix(
    n_nodes: int = 4,
    n_files: int = 32,
    file_size: int = 25_000,
    spec: ClusterSpec | None = None,
    seed: int = 0,
    spans=None,
) -> FaultMatrixResult:
    """Inject each fault kind mid-epoch and show the epoch completing.

    The warm epoch runs first; the fault lands 2 ms into the measured
    epoch.  Every row finishing is the §III-H qualitative claim — a dead
    or misbehaving HVAC server degrades performance, never correctness.
    """
    spec = compare.fault_spec(spec)
    files = compare.files(n_files, file_size)
    result = FaultMatrixResult(n_nodes=n_nodes, n_files=n_files)
    for kind, schedule in _matrix_schedules(n_nodes).items():
        env, dep, _ = compare.build(spec, n_nodes, seed, spans=spans)
        compare.epoch(env, dep, n_nodes, files)  # warm
        timeouts = compare.counter_since(dep, "hvac.client_rpc_timeouts")
        fallbacks = compare.counter_since(dep, "hvac.client_pfs_fallback")
        dep.inject(schedule)
        elapsed = compare.epoch(env, dep, n_nodes, files)
        result.kinds.append(kind)
        result.epoch_seconds.append(elapsed)
        result.timeouts.append(timeouts())
        result.fallbacks.append(fallbacks())
        result.suspicions.append(
            sum(dep.client(n).detector.n_suspicions for n in range(n_nodes))
        )
        dep.teardown()
    return result
