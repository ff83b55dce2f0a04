"""Multi-tenant isolation experiment: partition-vs-share under a storm.

The driver behind ``repro tenancy``.  One hot-storm scenario — a small
*victim* tenant serving hot-skewed inference reads while an *aggressor*
tenant thrashes the fleet with a dataset several times the aggregate
cache — is replayed under the three cache-tenancy policies:

* ``shared``    — one global LRU pool (the status quo): the aggressor's
  churn evicts the victim's working set, so victim reads keep missing
  into a PFS the storm has already saturated — deadline strikes, retry
  walks, PFS fallbacks, blown p99;
* ``dedicated`` — hard per-tenant slabs: perfect isolation, zero
  statistical multiplexing;
* ``weighted``  — weighted-fair with per-tenant watermarks: the victim's
  resident set sits under its watermark so eviction always bills the
  over-water aggressor.

Reported per policy: the victim's p99 and degraded-read fraction during
the storm (from the per-tenant SLO rollup), the aggressor's p99, cache
occupancy per tenant, and quota refusals.  The dominance claim mirrors
``repro membership``: **weighted-fair strictly beats shared-global-LRU
for the victim (p99 and degraded fraction) at bounded aggressor cost.**

A second section exercises the fleet lifecycle end to end: a seeded
job-arrival mix replayed through the admission controller (admit /
queue / degrade-to-PFS / reject) with the resulting per-job log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..cluster import ClusterSpec
from ..obs import SLOReport, SpanRecorder
from ..simcore import AllOf
from ..tenancy import (
    TENANCY_MODES,
    TenantFleet,
    TenantSpec,
    run_jobs,
    sample_jobs,
)
from . import compare

__all__ = [
    "TENANCY_SPEC_OVERRIDES",
    "TenancyResult",
    "tenancy_isolation",
]

#: storm tuning on top of compare.FAULT_SPEC_OVERRIDES: global LRU
#: (the policy the shared mode is named for) and a deadline sitting
#: between an NVMe hit (~0.7 ms on TESTING) and a PFS fetch queued
#: behind the storm (>= 4 ms), so every cache-isolation failure
#: surfaces as a *degraded* read (deadline strike -> retry/fallback),
#: not just a slow one.  ``suspect_after`` is effectively disabled:
#: the servers are healthy — the strikes are congestion, and letting
#: them trip probation would turn the comparison into a failover test.
TENANCY_SPEC_OVERRIDES = dict(
    eviction_policy="lru",
    rpc_timeout=0.003,
    rpc_max_retries=2,
    suspect_after=1_000_000,
)


@dataclass
class ModeOutcome:
    """Everything one policy's storm run produced."""

    mode: str
    storm_seconds: float = 0.0
    victim_reads: int = 0
    victim_p50: float = math.nan
    victim_p99: float = math.nan
    victim_degraded_fraction: float = 0.0
    aggressor_p99: float = math.nan
    aggressor_degraded_fraction: float = 0.0
    #: fleet-wide resident bytes per tenant at storm end
    occupancy: dict[int, int] = field(default_factory=dict)
    refusals: int = 0
    pfs_fallbacks: int = 0
    slo: SLOReport | None = None


@dataclass
class TenancyResult(compare.Comparison):
    """Three-policy storm comparison + the admission-control demo."""

    n_nodes: int
    victim: TenantSpec
    aggressor: TenantSpec
    storm_passes: int
    windows: int
    aggressor_cost_bound: float
    outcomes: dict[str, ModeOutcome] = field(default_factory=dict)
    #: (tenant, kind, action, t_arrive, t_start, t_done, reads)
    admission_rows: list[list] = field(default_factory=list)
    admission_counts: dict[str, int] = field(default_factory=dict)
    dashboard: str = ""

    def rows(self) -> list[list]:
        out = []
        for mode, oc in self.outcomes.items():
            out.append([
                mode,
                oc.victim_p50,
                oc.victim_p99,
                f"{oc.victim_degraded_fraction:.1%}",
                oc.aggressor_p99,
                oc.occupancy.get(self.victim.tenant_id, 0),
                oc.occupancy.get(self.aggressor.tenant_id, 0),
                oc.pfs_fallbacks,
                oc.storm_seconds,
            ])
        return out

    def dominates(self) -> bool:
        """The acceptance predicate: weighted-fair strictly beats the
        shared global LRU for the victim — lower p99 *and* lower
        degraded fraction — while costing the aggressor no more than
        ``aggressor_cost_bound`` times its shared-mode p99."""
        shared = self.outcomes["shared"]
        weighted = self.outcomes["weighted"]
        bounded = (
            math.isnan(shared.aggressor_p99)
            or weighted.aggressor_p99
            <= self.aggressor_cost_bound * shared.aggressor_p99
        )
        return (
            weighted.victim_p99 < shared.victim_p99
            and weighted.victim_degraded_fraction < shared.victim_degraded_fraction
            and bounded
        )

    def render(self) -> str:
        admission = compare.table(
            ["tenant", "kind", "action", "arrive", "start", "done",
             "reads"],
            self.admission_rows,
            title=(
                "Admission-controlled arrival mix "
                + " ".join(
                    f"{k}={v}" for k, v in self.admission_counts.items()
                )
            ),
        ) if self.admission_rows else ""
        return compare.render(
            ["policy", "victim p50", "victim p99", "victim degr",
             "aggr p99", "victim B", "aggr B", "PFS fb", "storm (s)"],
            self.rows(),
            (f"Hot-storm isolation ({self.n_nodes} nodes; victim "
             f"{self.victim.n_files}x{self.victim.file_size}B hot reads "
             f"vs aggressor {self.aggressor.n_files}x"
             f"{self.aggressor.file_size}B thrash, "
             f"{self.storm_passes} passes)"),
            "weighted-fair strictly dominates shared global LRU for the "
            "victim (p99, degraded fraction) at bounded aggressor cost "
            f"(<= {self.aggressor_cost_bound:g}x)",
            self.dominates(),
            admission,
            self.dashboard,
        )

    def window_log(self) -> str:
        """The determinism artifact: every per-tenant SLO window of
        every policy run, machine-checkably ordered."""
        return compare.window_log(self.outcomes, lambda slo: (
            (f"t{tid} ", w)
            for tid in sorted(slo.tenants)
            for w in slo.tenants[tid].windows
        ))

    def logs(self) -> dict[str, tuple[str, str]]:
        return {"windows": ("windows.log", self.window_log())}


def _sweep_readers(env, fleet, spec, n_nodes: int, passes: int, streams: int = 1):
    """Spawn ``streams`` sweep processes per node for ``spec``.

    Each process owns a round-robin slice of the tenant's dataset and
    sweeps it in order ``passes`` times — the training/thrash pattern.
    Extra streams deepen the tenant's in-flight fetch count (and so the
    PFS queue it builds).
    """
    files = spec.files()
    total = n_nodes * streams

    def reader(node, lane):
        cli = fleet.client(node, spec.tenant_id)
        mine = files[node * streams + lane :: total]
        for _ in range(passes):
            for path, size in mine:
                yield from cli.read_file(path, size, node)

    return [
        env.process(
            reader(n, k), name=f"tenancy.t{spec.tenant_id}.n{n}.{k}"
        )
        for n in range(n_nodes)
        for k in range(streams)
    ]


def _victim_service(env, fleet, spec, n_nodes: int, stop: dict, think: float):
    """Spawn the victim's continuous inference service, one per node.

    Each node cycles over its slice of the victim's dataset, reading
    the tenant-wide hot file before every slice read (the 80/20 skew
    reduced to a deterministic schedule) and pacing with ``think`` —
    a low-rate latency-sensitive service running for however long the
    storm lasts, stopping at the end of the cycle that sees
    ``stop["done"]``.
    """
    files = spec.files()
    hot_path, hot_size = files[0]

    def reader(node):
        cli = fleet.client(node, spec.tenant_id)
        mine = files[node::n_nodes]
        while not stop["done"]:
            for path, size in mine:
                if path != hot_path:
                    yield from cli.read_file(hot_path, hot_size, node)
                yield from cli.read_file(path, size, node)
                if stop["done"]:
                    return
                yield env.timeout(think)

    return [
        env.process(reader(n), name=f"tenancy.t{spec.tenant_id}.n{n}")
        for n in range(n_nodes)
    ]


def _run_mode(
    mode: str,
    spec: ClusterSpec,
    n_nodes: int,
    victim: TenantSpec,
    aggressor: TenantSpec,
    storm_passes: int,
    windows: int,
    seed: int,
    think: float,
    streams: int,
    trace=None,
) -> ModeOutcome:
    """One warm -> storm cycle under one cache-tenancy policy."""
    oc = ModeOutcome(mode=mode)
    rec = SpanRecorder()
    env, dep, _ = compare.build(spec, n_nodes, seed, spans=rec, trace=trace)
    fleet = TenantFleet(dep, mode=mode, tenants=[victim, aggressor])

    # Warm: the victim populates its working set, storm-free.
    warm = _sweep_readers(env, fleet, victim, n_nodes, passes=1)
    compare.run_all(env, warm, "tenancy.warm")

    # Storm: the aggressor thrashes for `storm_passes` sweeps while the
    # victim's inference service runs alongside for the whole duration.
    t0 = env.now
    fallbacks = compare.counter_since(dep, "hvac.client_pfs_fallback")
    stop = {"done": False}
    victims = _victim_service(env, fleet, victim, n_nodes, stop, think)
    storm = _sweep_readers(
        env, fleet, aggressor, n_nodes, passes=storm_passes, streams=streams
    )

    def run_storm():
        yield AllOf(env, storm)
        stop["done"] = True
        yield AllOf(env, victims)

    env.run(env.process(run_storm(), name="tenancy.storm"))
    t_end = env.now

    oc.storm_seconds = t_end - t0
    oc.occupancy = fleet.occupancy()
    oc.refusals = sum(
        fleet.ledger.refusals(tid) for tid in fleet.tenants
    )
    oc.pfs_fallbacks = fallbacks()
    oc.slo = compare.slo_over(rec, t0, t_end, windows)
    vic = oc.slo.tenants.get(victim.tenant_id)
    if vic is not None:
        oc.victim_reads = vic.n_reads
        oc.victim_p50 = vic.p50
        oc.victim_p99 = vic.p99
        oc.victim_degraded_fraction = vic.degraded_fraction
    agg = oc.slo.tenants.get(aggressor.tenant_id)
    if agg is not None:
        oc.aggressor_p99 = agg.p99
        oc.aggressor_degraded_fraction = agg.degraded_fraction
    dep.teardown()
    return oc


def _admission_demo(
    spec: ClusterSpec, n_nodes: int, n_jobs: int, seed: int, trace=None
) -> tuple[list[list], dict[str, int]]:
    """Replay a seeded arrival mix through the admission controller."""
    env, dep, _ = compare.build(spec, n_nodes, seed + 1, trace=trace)
    fleet = TenantFleet(dep, mode="weighted")
    # Undersized budget + short queue so the mix exercises every verdict
    # (degrade_ok means saturation degrades rather than rejects here;
    # the reject path is covered by the unit tests).
    admission = fleet.make_admission(overcommit=0.08, queue_limit=1)
    jobs = sample_jobs(seed, n_jobs, n_nodes, first_tenant_id=10)
    records = run_jobs(env, dep, fleet, jobs, admission, seed=seed)
    dep.teardown()
    rows = [
        [f"t{r.tenant_id}", r.kind, r.action, r.t_arrive, r.t_start,
         r.t_done, r.reads]
        for r in records
    ]
    return rows, admission.counts()


def tenancy_isolation(
    n_nodes: int = 4,
    victim_files: int = 40,
    aggressor_files: int = 400,
    file_size: int = 200_000,
    storm_passes: int = 2,
    windows: int = 12,
    n_jobs: int = 8,
    aggressor_cost_bound: float = 1.5,
    think: float = 0.08,
    streams: int = 4,
    cache_fraction: float | None = None,
    spec: ClusterSpec | None = None,
    seed: int = 0,
    trace=None,
) -> TenancyResult:
    """Run the three tenancy policies through the hot-storm scenario,
    then the admission-control arrival demo.

    The defaults size the aggressor's dataset (~80 MB on TESTING) well
    past the fleet's aggregate cache (~36 MB at 4 nodes) so the shared
    pool is in perpetual thrash, while the victim's working set (~8 MB)
    fits comfortably under its weighted-fair watermark (~18 MB).
    ``think`` paces the victim so its per-file re-access gap exceeds the
    shared pool's eviction horizon — the regime where a global LRU
    sacrifices a low-rate tenant to a high-rate one.  ``cache_fraction``
    (when set) shrinks every server's cache, which is how ``--smoke``
    keeps the same thrash regime at reduced scale.
    """
    compare.require_scale("tenancy_isolation", n_nodes, 2, windows)
    overrides = dict(TENANCY_SPEC_OVERRIDES)
    if cache_fraction is not None:
        overrides["cache_fraction"] = cache_fraction
    base = compare.fault_spec(spec, **overrides)
    victim = TenantSpec(
        tenant_id=0, name="victim", kind="inference", n_files=victim_files,
        file_size=file_size, hot_fraction=0.8,
    )
    aggressor = TenantSpec(
        tenant_id=1, name="aggressor", kind="training",
        n_files=aggressor_files, file_size=file_size,
    )
    result = TenancyResult(
        n_nodes=n_nodes,
        victim=victim,
        aggressor=aggressor,
        storm_passes=storm_passes,
        windows=windows,
        aggressor_cost_bound=aggressor_cost_bound,
    )
    for mode in TENANCY_MODES:
        result.outcomes[mode] = _run_mode(
            mode, base, n_nodes, victim, aggressor,
            storm_passes, windows, seed, think, streams, trace=trace,
        )
    result.admission_rows, result.admission_counts = _admission_demo(
        base, n_nodes, n_jobs, seed, trace=trace
    )
    # per-tenant degraded-read strips under each policy's storm windows
    result.dashboard = compare.mode_dashboard(
        result.outcomes,
        "storm SLO windows (origin = storm onset)",
        ("degraded reads per tenant", [
            (f"{mode}/t{tid}", [w.degraded for w in oc.slo.tenants[tid].windows])
            for mode, oc in result.outcomes.items()
            if oc.slo is not None
            for tid in sorted(oc.slo.tenants)
        ]),
    )
    return result
