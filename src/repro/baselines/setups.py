"""The compared storage systems, packaged uniformly (paper §IV-A3).

Each setup builds one of the systems the paper compares —

* **GPFS** — every transaction goes to the shared PFS;
* **XFS-on-NVMe** — the dataset is fully staged to every node's NVMe
  before the run; the linear-scaling upper bound;
* **HVAC(i×1)** — the proposed cache with ``i`` server instances/node;
* **LPCC-like** — a single-node read-only client cache (the Lustre
  LPCC comparison point from §II-D): hits only from the local NVMe,
  no remote peers, so cache capacity = one NVMe, not the aggregate

— behind one interface: ``backend_for_node(node_id) -> FileBackend``.
Experiments and benchmarks construct a setup, hand its backends to a
:class:`~repro.dl.training.TrainingJob`, and read the metrics back.

:func:`build_hvac` is the one place an HVAC system is assembled (the
setups here, the mode-comparison rig, the Fig 13 driver and the fuzz
executor all call it); :func:`build_allocation` is its nodes-only part.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional

from ..cluster import Allocation, ClusterSpec
from ..core import HVACDeployment
from ..dl.dataset import SyntheticDataset
from ..simcore import Environment, MetricRegistry, RandomStreams, run_all
from ..storage import GPFS, FileBackend, LocalFS

__all__ = [
    "SystemHandle",
    "StorageSetup",
    "GPFSSetup",
    "XFSSetup",
    "HVACSetup",
    "LPCCLikeSetup",
    "SYSTEM_SETUPS",
    "build_allocation",
    "build_hvac",
]


@dataclass
class SystemHandle:
    """A built, ready-to-use storage system for one experiment run."""

    label: str
    backend_for_node: Callable[[int], FileBackend]
    metrics: MetricRegistry
    teardown: Callable[[], None] = lambda: None
    pfs: Optional[GPFS] = None
    deployment: Optional[HVACDeployment] = None
    #: simulated seconds spent staging data before the run (XFS only)
    stage_time: float = 0.0
    #: when staging is simulated event-by-event (XFSSetup with
    #: ``instant_stage=False``), call this to run the stage-in; it
    #: returns the simulated staging duration and updates stage_time.
    run_stage: Optional[Callable[[], float]] = None


class StorageSetup(abc.ABC):
    """Factory for one of the compared systems."""

    label: str = "abstract"

    @abc.abstractmethod
    def build(
        self,
        env: Environment,
        spec: ClusterSpec,
        n_nodes: int,
        dataset: SyntheticDataset,
        seed: int = 0,
    ) -> SystemHandle:
        """Construct the system for ``n_nodes`` and the given dataset."""


def _make_pfs(
    env: Environment, spec: ClusterSpec, n_nodes: int, metrics: MetricRegistry
) -> GPFS:
    return GPFS(
        env,
        spec.pfs,
        n_client_nodes=n_nodes,
        client_link_bandwidth=spec.network.nic_bandwidth,
        metrics=metrics,
    )


def build_allocation(
    env: Environment, spec: ClusterSpec, n_nodes: int, seed: int = 0
) -> Allocation:
    """The job's nodes and fabric on a fresh registry, drawing from the
    seed's ``"cluster"`` stream."""
    return Allocation(env, spec, n_nodes, rand=RandomStreams(seed).child("cluster"))


def build_hvac(
    env: Environment,
    spec: ClusterSpec,
    n_nodes: int,
    seed: int = 0,
    *,
    spans=None,
    local_fraction: Optional[float] = None,
) -> HVACDeployment:
    """One HVAC system: its allocation, the GPFS behind it and the
    deployment, all on the allocation's registry (``dep.metrics``).

    ``spans`` is the deployment's span recorder.  ``local_fraction``
    instead pins that share of files to the reading node, recording no
    spans (:meth:`HVACDeployment.with_locality_split`: Fig 13 and LPCC).
    """
    alloc = build_allocation(env, spec, n_nodes, seed)
    pfs = _make_pfs(env, spec, n_nodes, alloc.metrics)
    if local_fraction is None:
        return HVACDeployment(alloc, pfs, seed=seed, spans=spans)
    return HVACDeployment.with_locality_split(alloc, pfs, local_fraction, seed=seed)


def _hvac_handle(label: str, dep: HVACDeployment) -> SystemHandle:
    return SystemHandle(
        label=label,
        backend_for_node=dep.client,
        metrics=dep.metrics,
        teardown=dep.teardown,
        pfs=dep.pfs,
        deployment=dep,
    )


class GPFSSetup(StorageSetup):
    """Direct PFS access — the paper's baseline."""

    label = "GPFS"

    def build(self, env, spec, n_nodes, dataset, seed=0) -> SystemHandle:
        metrics = MetricRegistry()
        pfs = _make_pfs(env, spec, n_nodes, metrics)
        return SystemHandle(
            label=self.label,
            backend_for_node=lambda node_id: pfs,
            metrics=metrics,
            pfs=pfs,
        )


class XFSSetup(StorageSetup):
    """XFS-on-NVMe: full dataset staged on every node (upper I/O bound).

    Staging happens before the measured run (as in the paper); its cost
    is *reported* in :attr:`SystemHandle.stage_time` but not charged to
    training time.  ``instant_stage=False`` simulates the stage-in reads
    (GPFS → every node) event-by-event instead of computing it
    analytically from bandwidth.
    """

    label = "XFS-on-NVMe"

    def __init__(self, instant_stage: bool = True):
        self.instant_stage = instant_stage

    def build(self, env, spec, n_nodes, dataset, seed=0) -> SystemHandle:
        alloc = build_allocation(env, spec, n_nodes, seed)
        metrics = alloc.metrics
        backends = [
            LocalFS(env, node.node_id, node.nvme, metrics=metrics,
                    track_namespace=False)
            for node in alloc
        ]
        # Analytic stage-in estimate: the whole dataset flows once from
        # the PFS to each node, bounded by PFS aggregate bandwidth and
        # per-node NVMe write bandwidth (whichever binds).
        total = dataset.total_bytes
        pfs_bound = total * n_nodes / spec.pfs.aggregate_bandwidth
        nvme_bound = total / spec.node.nvme.write_bandwidth
        handle = SystemHandle(
            label=self.label,
            backend_for_node=lambda node_id: backends[node_id],
            metrics=metrics,
            stage_time=max(pfs_bound, nvme_bound),
        )
        if not self.instant_stage:
            handle.run_stage = self._make_stage(
                env, spec, n_nodes, dataset, backends, metrics, handle
            )
        return handle

    @staticmethod
    def _make_stage(env, spec, n_nodes, dataset, backends, metrics, handle):
        """Event-driven stage-in: every node pulls every file from the
        PFS and writes it to its NVMe (released space accounting so the
        untracked namespace doesn't double-count)."""
        pfs = _make_pfs(env, spec, n_nodes, metrics)

        def node_stage(node_id):
            fs = backends[node_id]
            for i in range(len(dataset)):
                size = dataset.size(i)
                yield from pfs.read_file(dataset.path(i), size, node_id)
                yield from fs.device.write(size)

        def run() -> float:
            procs = [env.process(node_stage(n)) for n in range(n_nodes)]
            handle.stage_time = run_all(env, procs, "xfs.stage")
            return handle.stage_time

        return run


class HVACSetup(StorageSetup):
    """The proposed system: HVAC with ``instances`` servers per node."""

    def __init__(self, instances: int = 1):
        if instances < 1:
            raise ValueError("instances must be >= 1")
        self.instances = instances
        self.label = f"HVAC({instances}x1)"

    def build(self, env, spec, n_nodes, dataset, seed=0) -> SystemHandle:
        spec = spec.with_hvac(instances_per_node=self.instances)
        return _hvac_handle(self.label, build_hvac(env, spec, n_nodes, seed))


class LPCCLikeSetup(StorageSetup):
    """LPCC-style single-node read cache (§II-D comparison point).

    Implemented as an HVAC deployment whose placement pins every file to
    the reading node: hits come only from local NVMe, capacity is one
    device, and there is no cross-node aggregation — the two limitations
    the paper calls out for LPCC.
    """

    label = "LPCC-like"

    def build(self, env, spec, n_nodes, dataset, seed=0) -> SystemHandle:
        dep = build_hvac(env, spec, n_nodes, seed, local_fraction=1.0)
        return _hvac_handle(self.label, dep)


#: the paper's Fig 8 lineup
SYSTEM_SETUPS: dict[str, StorageSetup] = {
    "gpfs": GPFSSetup(),
    "hvac1": HVACSetup(1),
    "hvac2": HVACSetup(2),
    "hvac4": HVACSetup(4),
    "xfs": XFSSetup(),
}
