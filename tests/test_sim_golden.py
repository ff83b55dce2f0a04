"""Golden simulated outcomes of three tiny runs.

These pin what the *model* computes — epoch times, the final clock and
every read's simulated latency — and nothing about how the kernel gets
there.  A change that only reshapes the event stream (fewer events per
read, a different process layout) must leave every value here exactly
as it is, and refreshes ``BENCH_engine.json`` event counts instead.  A
change that moves a value here changed the model.
"""

import hashlib

from repro.cluster import TESTING, Allocation
from repro.core import HVACDeployment
from repro.dl import IMAGENET21K, RESNET50, SyntheticDataset, TrainingConfig, TrainingJob
from repro.experiments import compare
from repro.faults import FaultSchedule, crash, hang
from repro.simcore import Environment, RandomStreams
from repro.storage import GPFS


def digest(latencies) -> str:
    """A hash of the exact float latencies, in completion order."""
    text = ",".join(repr(x) for x in latencies)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TimedBackend:
    """Records the simulated latency of every ``read_file`` it forwards."""

    def __init__(self, env, backend, latencies):
        self.env = env
        self.backend = backend
        self.latencies = latencies

    def read_file(self, path, size, client_node):
        t0 = self.env.now
        got = yield from self.backend.read_file(path, size, client_node)
        self.latencies.append(self.env.now - t0)
        return got


def training_run(seed, fault=None):
    """ResNet50 on HVAC(1x1), 4 nodes x 2 ranks, 3 epochs; ``fault``
    is injected at time 0 against the deployment."""
    env = Environment()
    spec = TESTING if fault is None else compare.fault_spec(None, replication_factor=1)
    ds, factor = SyntheticDataset.scaled(IMAGENET21K, 64, seed=seed)
    alloc = Allocation(env, spec, 4, rand=RandomStreams(seed).child("cluster"))
    pfs = GPFS(env, spec.pfs, 4, spec.network.nic_bandwidth)
    dep = HVACDeployment(alloc, pfs, seed=seed)
    if fault is not None:
        dep.inject(fault)
    latencies = []
    job = TrainingJob(
        env,
        TrainingConfig(
            model=RESNET50, dataset=ds, n_nodes=4, procs_per_node=2,
            epochs=3, scale_factor=factor, sim_batch_size=8, shuffle_seed=seed,
        ),
        lambda node: TimedBackend(env, dep.client(node), latencies),
        "HVAC(1x1)",
    )
    result = job.run()
    return list(result.epoch_times), env.now, latencies, dep


def hang_run(seed):
    """The fault-matrix shape on the comparison rig: a warm epoch, then a
    server hangs 2 ms into the measured one and clients time out."""
    n_nodes = 4
    env, dep, _ = compare.build(compare.fault_spec(None), n_nodes, seed)
    files = compare.files(16, 25_000)
    latencies = []

    def reader(node):
        cli = dep.client(node)
        for path, size in files:
            t0 = env.now
            yield from cli.read_file(path, size, node)
            latencies.append(env.now - t0)

    epochs = []
    for k in range(2):
        if k == 1:
            dep.inject(FaultSchedule([hang(0.002, 1)]))
        procs = [env.process(reader(n), name=f"epoch.n{n}") for n in range(n_nodes)]
        epochs.append(compare.run_all(env, procs, "epoch"))
    return epochs, env.now, latencies, dep


def test_hvac_training_run():
    epochs, now, latencies, dep = training_run(seed=3)
    assert epochs == GOLDEN["training"]["epochs"]
    assert now == GOLDEN["training"]["now"]
    assert (len(latencies), digest(latencies)) == GOLDEN["training"]["reads"]
    assert dep.hit_rate() > 0


def test_crash_run():
    epochs, now, latencies, dep = training_run(
        seed=5, fault=FaultSchedule([crash(0.05, 2, recover_after=0.2)])
    )
    assert epochs == GOLDEN["crash"]["epochs"]
    assert now == GOLDEN["crash"]["now"]
    assert (len(latencies), digest(latencies)) == GOLDEN["crash"]["reads"]
    assert dep.metrics.counter("hvac.client_pfs_fallback").value > 0


def test_hang_timeout_run():
    epochs, now, latencies, dep = hang_run(seed=7)
    assert epochs == GOLDEN["hang"]["epochs"]
    assert now == GOLDEN["hang"]["now"]
    assert (len(latencies), digest(latencies)) == GOLDEN["hang"]["reads"]
    assert dep.metrics.counter("hvac.client_rpc_timeouts").value > 0


#: computed once and frozen; see the module docstring before editing
GOLDEN = {
    "training": {
        "epochs": [23928.960865797697, 5329.49498533767, 5242.930796974724],
        "now": 0.1871637245066676,
        "reads": (192, "bff6a39255b69eb1"),
    },
    "crash": {
        "epochs": [24565.019326509228, 10236.97713038001, 10664.39210227165],
        "now": 0.24664685826666713,
        "reads": (192, "9a023bac8fdc684a"),
    },
    "hang": {
        "epochs": [0.05543331630000007, 0.13791321056568653],
        "now": 0.1933465268656866,
        "reads": (128, "1ba4f3e34fecfbdc"),
    },
}
