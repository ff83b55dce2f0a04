"""Scenario model + seeded generator for the fuzzer.

A :class:`Scenario` is the fuzzer's unit of work: one cluster topology,
one fault schedule, one dataset skew and one workload shape, all plain
data.  Everything the executor does is a deterministic function of the
scenario's fields, so a scenario round-trips through JSON (the case-file
format) and replays bit-for-bit — the property the shrinker and the
``repro fuzz --replay`` command rest on.

:class:`ScenarioGenerator` samples scenarios from seeded distributions
(one :class:`~repro.simcore.RandomStreams` child per scenario index):
topology size, replication, membership stack on/off, dataset skew
(lognormal sizes, the Fig-15 distribution), a workload kind drawn from
the pathological families the paper's §III-H worries about —

* ``uniform``    every client reads every file, shuffled per client;
* ``hotstorm``   most reads hammer one hot file (multi-tenant storm);
* ``thrash``     dataset sized past the NVMe cache, strided access
  order — maximal eviction churn;
* ``straggler``  one late, slow client stretches the epoch tail —

and a :meth:`FaultSchedule.random` draw that includes correlated
rack-crash bursts, flaky uplink switches, and gray failures (``hang``
servers answer probes never; ``degrade`` servers answer, slowly).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

from ..cluster import ClusterSpec, TESTING
from ..faults import FAULT_SPEC_OVERRIDES, FaultEvent, FaultSchedule
from ..simcore import RandomStreams

__all__ = [
    "Scenario",
    "ScenarioGenerator",
    "Workload",
    "WORKLOAD_KINDS",
    "scenario_digest",
]

WORKLOAD_KINDS = ("uniform", "hotstorm", "thrash", "straggler")

#: fast-detection RPC timing shared by every scenario: the fault
#: experiments' values, so fuzz findings transfer, with a shorter probation
BASE_OVERRIDES = {**FAULT_SPEC_OVERRIDES, "probation_period": 0.02}
MEMBERSHIP_OVERRIDES = dict(
    membership_enabled=True,
    remap_enabled=True,
    repair_enabled=True,
    gossip_interval=0.005,
    suspect_to_dead=0.03,
    repair_bandwidth=50e6,
)


@dataclass(frozen=True)
class Workload:
    """What the reading clients do during one measured epoch."""

    kind: str = "uniform"
    #: nodes that run a reader process (subset of the topology)
    clients: tuple[int, ...] = (0,)
    #: reads each client issues per epoch
    reads_per_client: int = 16
    #: ``hotstorm``: probability a read targets the hot file
    hot_fraction: float = 0.8
    #: ``hotstorm``: index of the hot file
    hot_file: int = 0
    #: ``thrash``: stride through the file list (coprime with n_files)
    stride: int = 1
    #: ``straggler``: start delay of the last client (seconds)
    straggler_delay: float = 0.0
    #: ``straggler``: per-read think time of the last client (seconds)
    think: float = 0.0

    def __post_init__(self):
        if self.kind not in WORKLOAD_KINDS:
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if not self.clients:
            raise ValueError("workload needs at least one client")


@dataclass(frozen=True)
class Scenario:
    """One fully-specified fuzz input (plain data; JSON round-trips)."""

    seed: int
    n_nodes: int
    replication: int = 1
    membership: bool = False
    epochs: int = 1
    n_files: int = 16
    mean_file_size: int = 25_000
    size_sigma: float = 0.0
    workload: Workload = field(default_factory=Workload)
    #: multi-tenant dimension: tenants sharing the fleet (1 = classic).
    #: Tenant 0 runs ``workload``; tenants 1..n-1 run ``tenant_workloads``.
    tenants: int = 1
    tenant_workloads: tuple[Workload, ...] = ()
    #: clairvoyant-prefetch dimension: stage each reader's planned
    #: accesses ahead of demand (False = classic reactive miss path;
    #: case files saved before the field exists load with the default).
    prefetch: bool = False
    faults: tuple[FaultEvent, ...] = ()

    def __post_init__(self):
        if self.n_nodes < 2:
            raise ValueError("scenarios need >= 2 nodes")
        if self.n_files < 1 or self.epochs < 1:
            raise ValueError("n_files and epochs must be >= 1")
        if any(c >= self.n_nodes for c in self.workload.clients):
            raise ValueError("workload client outside the topology")
        if self.tenants < 1:
            raise ValueError("tenants must be >= 1")
        if len(self.tenant_workloads) != self.tenants - 1:
            raise ValueError(
                "need exactly tenants-1 tenant_workloads "
                f"(got {len(self.tenant_workloads)} for {self.tenants} tenants)"
            )
        for wl in self.tenant_workloads:
            if any(c >= self.n_nodes for c in wl.clients):
                raise ValueError("tenant workload client outside the topology")

    # -- derived, deterministic views ----------------------------------
    def spec(self) -> ClusterSpec:
        overrides = dict(BASE_OVERRIDES)
        overrides["replication_factor"] = self.replication
        if self.membership:
            overrides.update(MEMBERSHIP_OVERRIDES)
        return TESTING.with_hvac(**overrides)

    def workload_of(self, tenant: int = 0) -> Workload:
        """Tenant ``j``'s workload shape (tenant 0 runs ``workload``)."""
        return self.workload if tenant == 0 else self.tenant_workloads[tenant - 1]

    def files(self, tenant: int = 0) -> list[tuple[str, int]]:
        """The dataset: paths + sizes, derived from the scenario seed.

        Single-tenant scenarios keep the classic ``/pfs/fuzz/`` paths
        (so existing fingerprints and case files replay unchanged);
        multi-tenant ones namespace each tenant under ``/pfs/t<j>/`` —
        the prefix :func:`repro.tenancy.tenant_of_path` attributes.
        """
        prefix = "/pfs/fuzz" if self.tenants == 1 else f"/pfs/t{tenant}/fuzz"
        if self.size_sigma > 0:
            stream = "fuzz.sizes" if tenant == 0 else f"fuzz.sizes.t{tenant}"
            sizes = RandomStreams(self.seed).lognormal_sizes(
                stream, self.mean_file_size, self.size_sigma,
                self.n_files,
            )
            sizes = [int(s) for s in sizes]
        else:
            sizes = [self.mean_file_size] * self.n_files
        return [(f"{prefix}/f{i:04d}", sizes[i]) for i in range(self.n_files)]

    def schedule(self) -> FaultSchedule:
        return FaultSchedule(self.faults)

    def heal_horizon(self) -> float:
        """When the last transient fault has healed (0 if no faults).

        Permanent faults (``duration is None``) do not extend this; the
        executor force-heals them at the horizon instead.
        """
        t = 0.0
        for ev in self.faults:
            if ev.kind == "flap":
                t = max(t, ev.time + 2.0 * ev.period * ev.cycles)
            elif ev.duration is not None:
                t = max(t, ev.time + ev.duration)
            else:
                t = max(t, ev.time)
        return t

    def plans(self, tenant: int = 0) -> dict[int, list[tuple[str, int]]]:
        """Per-client read plans for one measured epoch — pure data,
        derived only from scenario fields (replayed verbatim by the
        executor each epoch)."""
        files = self.files(tenant)
        n = len(files)
        wl = self.workload_of(tenant)
        child = "fuzz.workload" if tenant == 0 else f"fuzz.workload.t{tenant}"
        rand = RandomStreams(self.seed).child(child)
        plans: dict[int, list[tuple[str, int]]] = {}
        for node in wl.clients:
            if wl.kind == "uniform" or wl.kind == "straggler":
                order = rand.shuffled(f"order.n{node}", n)
                picks = [int(order[k % n]) for k in range(wl.reads_per_client)]
            elif wl.kind == "hotstorm":
                stream = rand.stream(f"storm.n{node}")
                picks = []
                for _ in range(wl.reads_per_client):
                    if float(stream.uniform()) < wl.hot_fraction:
                        picks.append(wl.hot_file % n)
                    else:
                        picks.append(int(stream.integers(n)))
            else:  # thrash: strided scan, per-client offset
                stride = max(1, wl.stride)
                picks = [
                    (node + k * stride) % n
                    for k in range(wl.reads_per_client)
                ]
            plans[node] = [files[i] for i in picks]
        return plans

    # -- JSON round-trip -----------------------------------------------
    def to_dict(self) -> dict:
        d = asdict(self)
        d["workload"] = asdict(self.workload)
        d["tenant_workloads"] = [asdict(wl) for wl in self.tenant_workloads]
        d["faults"] = [asdict(ev) for ev in self.faults]
        for ev in d["faults"]:
            if ev["link"] is not None:
                ev["link"] = list(ev["link"])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        d = dict(d)
        wl = dict(d.pop("workload"))
        wl["clients"] = tuple(wl["clients"])
        tenant_workloads = []
        for twl in d.pop("tenant_workloads", ()):
            twl = dict(twl)
            twl["clients"] = tuple(twl["clients"])
            tenant_workloads.append(Workload(**twl))
        faults = []
        for ev in d.pop("faults"):
            ev = dict(ev)
            if ev.get("link") is not None:
                ev["link"] = tuple(ev["link"])
            faults.append(FaultEvent(**ev))
        return cls(
            workload=Workload(**wl),
            tenant_workloads=tuple(tenant_workloads),
            faults=tuple(faults),
            **d,
        )


def scenario_digest(scenario: Scenario) -> str:
    """A stable content digest (case-file identity & corpus dedup key)."""
    from ..simcore import stable_hash64

    blob = json.dumps(scenario.to_dict(), sort_keys=True)
    return f"{stable_hash64(blob):016x}"


class ScenarioGenerator:
    """Seeded scenario sampler; ``sample(i)`` is a pure function of
    ``(seed, i)`` so campaigns replay exactly."""

    def __init__(self, seed: int = 0, max_nodes: int = 6):
        self.seed = int(seed)
        self.max_nodes = max_nodes

    def sample(self, index: int) -> Scenario:
        rand = RandomStreams(self.seed).child(f"fuzz.scenario.{index}")

        n_nodes = 3 + int(rand.stream("nodes").integers(self.max_nodes - 2))
        membership = bool(rand.stream("membership").integers(2))
        replication = 2 if membership else int(
            rand.stream("replication").integers(1, 3)
        )
        kind = str(rand.choice("kind", WORKLOAD_KINDS))
        sigma = float(rand.choice("sigma", (0.0, 0.6)))

        if kind == "thrash":
            # size the dataset past one node's cache share so the scan
            # order forces evictions (TESTING: 10 MB NVMe, 90% usable)
            n_files = 30 + int(rand.stream("files").integers(15))
            mean_size = int(rand.uniform("fsize", 250e3, 400e3))
            reads = n_files
        else:
            n_files = 8 + int(rand.stream("files").integers(25))
            mean_size = int(rand.uniform("fsize", 10e3, 120e3))
            reads = 8 + int(rand.stream("reads").integers(17))

        n_clients = 1 + int(rand.stream("clients").integers(n_nodes))
        clients = tuple(
            sorted(int(c) for c in rand.shuffled("which", n_nodes)[:n_clients])
        )
        workload = Workload(
            kind=kind,
            clients=clients,
            reads_per_client=reads,
            hot_fraction=float(rand.uniform("hot", 0.5, 0.9)),
            hot_file=int(rand.stream("hotfile").integers(n_files)),
            stride=int(rand.choice("stride", (1, 3, 7))),
            straggler_delay=(
                float(rand.uniform("lag", 0.001, 0.01))
                if kind == "straggler" else 0.0
            ),
            think=(
                float(rand.uniform("think", 0.0, 2e-4))
                if kind == "straggler" else 0.0
            ),
        )

        # Multi-tenant dimension: a minority of scenarios share the
        # fleet between 2-4 tenants, each with its own workload draw
        # (membership runs stay single-tenant — one dimension at a time).
        n_tenants = 1
        if not membership:
            n_tenants = int(rand.choice("tenants", (1, 1, 2, 3, 4)))
        tenant_workloads = []
        for j in range(1, n_tenants):
            tkind = str(rand.choice(f"t{j}.kind", WORKLOAD_KINDS))
            tn = 1 + int(rand.stream(f"t{j}.clients").integers(n_nodes))
            tclients = tuple(
                sorted(int(c) for c in rand.shuffled(f"t{j}.which", n_nodes)[:tn])
            )
            tenant_workloads.append(Workload(
                kind=tkind,
                clients=tclients,
                reads_per_client=4 + int(rand.stream(f"t{j}.reads").integers(13)),
                hot_fraction=float(rand.uniform(f"t{j}.hot", 0.5, 0.9)),
                hot_file=int(rand.stream(f"t{j}.hotfile").integers(n_files)),
                stride=int(rand.choice(f"t{j}.stride", (1, 3, 7))),
                straggler_delay=(
                    float(rand.uniform(f"t{j}.lag", 0.001, 0.01))
                    if tkind == "straggler" else 0.0
                ),
                think=(
                    float(rand.uniform(f"t{j}.think", 0.0, 2e-4))
                    if tkind == "straggler" else 0.0
                ),
            ))

        # Clairvoyant-prefetch dimension: a minority of single-tenant,
        # non-membership scenarios stage planned reads ahead of demand
        # (one dimension at a time, like tenancy).
        prefetch = (
            not membership
            and n_tenants == 1
            and int(rand.stream("prefetch").integers(3)) == 0
        )

        correlated = bool(rand.stream("correlated").integers(2))
        faults = FaultSchedule.random(
            n_nodes,
            seed=int(rand.stream("faults").integers(2**31)),
            horizon=0.08,
            crash_rate=float(rand.uniform("crash", 0.0, 30.0)),
            hang_rate=float(rand.uniform("hang", 0.0, 20.0)),
            degrade_rate=float(rand.uniform("degrade", 0.0, 20.0)),
            flaky_rate=float(rand.uniform("flaky", 0.0, 15.0)),
            mean_outage=float(rand.uniform("outage", 0.01, 0.08)),
            degrade_factor=float(rand.uniform("factor", 2.0, 12.0)),
            drop_prob=float(rand.uniform("drop", 0.2, 0.8)),
            rack_size=2 if correlated else 0,
            rack_crash_rate=float(rand.uniform("rack", 0.0, 8.0)) if correlated else 0.0,
            switch_flaky_rate=float(rand.uniform("switch", 0.0, 5.0)) if correlated else 0.0,
            burst_spread=0.005 if correlated else 0.0,
        )

        return Scenario(
            seed=int(rand.stream("seed").integers(2**31)),
            n_nodes=n_nodes,
            replication=replication,
            membership=membership,
            epochs=1 + int(rand.stream("epochs").integers(2)),
            n_files=n_files,
            mean_file_size=mean_size,
            size_sigma=sigma,
            workload=workload,
            tenants=n_tenants,
            tenant_workloads=tuple(tenant_workloads),
            prefetch=prefetch,
            faults=faults.events,
        )


def drop_fault(scenario: Scenario, index: int) -> Scenario:
    """``scenario`` minus its ``index``-th fault (shrinker move)."""
    faults = scenario.faults[:index] + scenario.faults[index + 1:]
    return replace(scenario, faults=faults)


def drop_client(scenario: Scenario, node: int) -> Scenario:
    """``scenario`` minus one reading client (shrinker move)."""
    clients = tuple(c for c in scenario.workload.clients if c != node)
    return replace(scenario, workload=replace(scenario.workload, clients=clients))


def drop_tenant(scenario: Scenario) -> Scenario:
    """``scenario`` minus its highest tenant (shrinker move; no-op on
    single-tenant scenarios)."""
    if scenario.tenants <= 1:
        return scenario
    return replace(
        scenario,
        tenants=scenario.tenants - 1,
        tenant_workloads=scenario.tenant_workloads[:-1],
    )
