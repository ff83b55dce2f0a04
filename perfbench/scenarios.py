"""The benchmark's workloads: seeded inputs, set-up, one run, checks.

Every input is derived from the workload seed: the dataset sample
(file sizes), the epoch shuffle, the deployment's random streams, the
order each MDTest rank walks its files, and the crash time and node.  The simulator receives
only those generated inputs, through its public API.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from repro.cluster import SUMMIT, Allocation, KiB
from repro.core import HVACDeployment
from repro.dl import IMAGENET21K, RESNET50, SyntheticDataset, TrainingConfig, TrainingJob
from repro.experiments.resilience import FAULT_SPEC_OVERRIDES
from repro.faults import FaultSchedule, crash
from repro.simcore import Environment, MetricRegistry, RandomStreams
from repro.storage import GPFS
from repro.workloads import MDTestConfig, run_mdtest

#: the paper's Fig 3 GPFS plateau for 32 KB MDTest transactions; printed
#: beside ``sim_tx_per_s`` as a reference, never gated on
PAPER_GPFS_TX_PER_S = 320_000


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: every rank issues its next open-read-close
    only after the previous one completes."""

    name: str
    #: "training" (ResNet50/ImageNet21K on HVAC(1x1)) or "mdtest" (on GPFS)
    kind: str
    n_nodes: int
    files_per_rank: int
    #: training epochs, or MDTest iterations over the same tree
    passes: int
    procs_per_node: int = 6
    #: aggregate HVAC cache as a share of the sampled dataset (0 = the
    #: full Summit NVMe, which holds the whole sample)
    cache_share: float = 0.0
    #: crash one node inside the second epoch; it recovers cold
    crash: bool = False

    @property
    def n_ranks(self) -> int:
        return self.n_nodes * self.procs_per_node

    @property
    def reads_per_pass(self) -> int:
        return self.n_ranks * self.files_per_rank

    def tiny(self) -> "Workload":
        """The same workload shrunk to a unit-test size."""
        return replace(self, n_nodes=4, procs_per_node=2)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig8_hvac", "training", n_nodes=32, files_per_rank=16, passes=2),
        Workload("mdtest_gpfs", "mdtest", n_nodes=256, files_per_rank=8, passes=2),
        Workload(
            "evict_pressure", "training", n_nodes=16, files_per_rank=16, passes=3,
            cache_share=0.4,
        ),
        Workload(
            "crash_failover", "training", n_nodes=16, files_per_rank=16, passes=3,
            crash=True,
        ),
    )
}


class ReadLog:
    """Times every open-read-close on the sim clock, around the backend's
    ``read_file``, and records what was read.

    It adds no events, so runs with and without it fingerprint alike.
    ``rename`` maps a requested path to the one the backend reads.
    """

    def __init__(self, env: Environment, backend_for_node, rename: dict | None = None):
        self.env = env
        self._backend_for_node = backend_for_node
        self.rename = rename
        self.started = 0
        self.short_reads = 0
        self.latencies: list[float] = []
        #: (path, size) per completed read, in completion order
        self.reads: list[tuple[str, int]] = []
        #: ``(read index, callback)``: run the callback as that read starts
        self.arm: tuple[int, object] | None = None

    def backend_for_node(self, node_id: int) -> "_LoggedBackend":
        return _LoggedBackend(self, self._backend_for_node(node_id))


class _LoggedBackend:
    __slots__ = ("log", "backend")

    def __init__(self, log: ReadLog, backend):
        self.log = log
        self.backend = backend

    def read_file(self, path: str, size: int, client_node: int):
        log = self.log
        env = log.env
        if log.arm is not None and log.arm[0] == log.started:
            log.arm[1]()
        log.started += 1
        target = path if log.rename is None else log.rename[path]
        t0 = env.now
        got = yield from self.backend.read_file(target, size, client_node)
        log.latencies.append(env.now - t0)
        log.reads.append((path, size))
        if got != size:
            log.short_reads += 1
        return got


@dataclass
class Outcome:
    """What one run of a workload produced."""

    #: simulated seconds of each pass (epochs are scale-corrected)
    pass_s: list[float]
    #: simulated seconds the whole run took (not scale-corrected)
    sim_end: float
    log: ReadLog
    #: the run's MetricRegistry snapshot
    snapshot: dict


class Scenario:
    """A workload built for one seed: call :meth:`run` once."""

    def __init__(self, workload: Workload, seed: int, env: Environment):
        self.workload = workload
        self.env = env
        self.metrics = MetricRegistry()
        rand = RandomStreams(seed).child("perfbench")
        w = workload
        if w.kind == "mdtest":
            t0 = perf_counter()
            self.pfs = GPFS(
                env, SUMMIT.pfs, w.n_nodes, SUMMIT.network.nic_bandwidth,
                metrics=self.metrics,
            )
            #: host seconds the program's own set-up took
            self.setup_s = perf_counter() - t0
            self.deployment = self.dataset = None
            # each rank walks its private directory in a seeded order
            # (MDTest's -R random order)
            order = rand.stream("mdtest-order").permuted(
                np.tile(np.arange(w.files_per_rank), (w.n_ranks, 1)), axis=1
            )
            rename = {
                f"/gpfs/mdtest/rank{r}/file{i}": f"/gpfs/mdtest/rank{r}/file{j}"
                for r in range(w.n_ranks)
                for i, j in enumerate(order[r].tolist())
            }
            self.log = ReadLog(env, self._pfs_for_node, rename)
            return

        t0 = perf_counter()
        self.dataset, factor = SyntheticDataset.scaled(
            IMAGENET21K, w.reads_per_pass, seed=seed
        )
        spec = SUMMIT
        if w.crash:
            spec = spec.with_hvac(**FAULT_SPEC_OVERRIDES, replication_factor=1)
        if w.cache_share:
            # shrink the NVMe so the aggregate cache holds cache_share of
            # the sample (as benchmarks/bench_ablation_eviction.py does)
            per_node = self.dataset.total_bytes * w.cache_share / w.n_nodes
            nvme = replace(
                spec.node.nvme,
                capacity_bytes=int(per_node / spec.hvac.cache_fraction),
            )
            spec = replace(spec, node=replace(spec.node, nvme=nvme))
        alloc = Allocation(
            env, spec, w.n_nodes, metrics=self.metrics,
            rand=RandomStreams(seed).child("cluster"),
        )
        self.pfs = GPFS(
            env, spec.pfs, w.n_nodes, spec.network.nic_bandwidth,
            metrics=self.metrics,
        )
        self.deployment = HVACDeployment(alloc, self.pfs, seed=seed, metrics=self.metrics)
        self.setup_s = perf_counter() - t0
        self.log = ReadLog(env, self.deployment.client)
        if w.crash:
            self.log.arm = (w.reads_per_pass, lambda: self._inject_crash(rand))
        self.job = TrainingJob(
            env,
            TrainingConfig(
                model=RESNET50,
                dataset=self.dataset,
                n_nodes=w.n_nodes,
                procs_per_node=w.procs_per_node,
                epochs=w.passes,
                scale_factor=factor,
                sim_batch_size=8,
                shuffle_seed=seed,
            ),
            self.log.backend_for_node,
            "HVAC(1x1)",
        )

    def _pfs_for_node(self, node_id: int) -> GPFS:
        return self.pfs

    def _inject_crash(self, rand: RandomStreams) -> None:
        """Armed at the first read of epoch 2: crash a seed-chosen node a
        seed-chosen share of the cold epoch's length later; it recovers
        cold before the epoch ends."""
        cold = self.env.now
        node = int(rand.uniform("crash-node", 0, self.workload.n_nodes))
        at = cold * rand.uniform("crash-at", 0.05, 0.25)
        self.deployment.inject(
            FaultSchedule([crash(at, node, recover_after=0.4 * cold)])
        )

    def run(self) -> Outcome:
        env = self.env
        w = self.workload
        if w.kind == "mdtest":
            config = MDTestConfig(
                n_nodes=w.n_nodes,
                ranks_per_node=w.procs_per_node,
                file_size=32 * KiB,
                files_per_rank=w.files_per_rank,
            )
            pass_s = [
                run_mdtest(env, config, self.log.backend_for_node, "GPFS").elapsed
                for _ in range(w.passes)
            ]
        else:
            pass_s = list(self.job.run().epoch_times)
        return Outcome(pass_s, env.now, self.log, self.metrics.snapshot())

    def check(self, out: Outcome) -> list[str]:
        """Problems with what the run read (empty when correct)."""
        problems = []
        log = out.log
        if log.short_reads:
            problems.append(f"{log.short_reads} reads returned the wrong byte count")
        if self.dataset is None:
            expected = dict.fromkeys(log.rename, 32 * KiB)
        else:
            ds = self.dataset
            expected = {ds.path(i): ds.size(i) for i in range(len(ds))}
        per_pass = len(expected)
        if len(log.reads) != per_pass * self.workload.passes:
            problems.append(
                f"{len(log.reads)} reads completed, expected "
                f"{per_pass} x {self.workload.passes}"
            )
        want = Counter(expected.items())
        for p in range(self.workload.passes):
            got = Counter(log.reads[p * per_pass : (p + 1) * per_pass])
            if got != want:
                problems.append(f"pass {p + 1} did not read each file once at its size")
        return problems


def build(workload: Workload, seed: int, trace=None, tracer=None) -> Scenario:
    """Set up ``workload`` for ``seed`` on a fresh environment.

    ``trace`` (an EventTrace) fingerprints the run; ``tracer`` (a
    :class:`~tracer.LayerTracer`) times the process roots.
    """
    env = Environment()
    if trace is not None:
        env.attach_trace(trace)
    if tracer is not None:
        tracer.env = env
        env.process = tracer.process_hook(env.process)
    return Scenario(workload, seed, env)
