"""Same-seed event streams of every simulated system, pinned.

Each storage system the experiments compare (GPFS, HVAC(i x 1),
XFS-on-NVMe, LPCC-like), the event-driven XFS stage-in, the MDTest and
IOR drivers, the comparison rig and one fuzz scenario are run tiny with
an :class:`~repro.simcore.EventTrace` attached, and the trace's
``(count, fingerprint)`` is pinned.  A change to how a system is
assembled or how a run waits for its processes must leave every pair
here as it is.  The Fig 13 cache-split driver is pinned by its epoch
seconds instead: those are the model's output, while its process layout
is free to change.
"""

import pytest

from repro.baselines import SYSTEM_SETUPS, GPFSSetup, LPCCLikeSetup, XFSSetup
from repro.cluster import TESTING
from repro.dl import IMAGENET21K, RESNET50, SyntheticDataset
from repro.experiments import Scale, compare, run_training
from repro.experiments.cache_split import cache_split
from repro.fuzz.executor import execute
from repro.fuzz.scenario import ScenarioGenerator
from repro.simcore import Environment, EventTrace
from repro.workloads import IORConfig, MDTestConfig, run_ior, run_mdtest

SEED = 3
SCALE = Scale().smaller()

TRAINING = {
    "gpfs": (452, "577d33e831f2ae06be1cf5c5d77bbd58"),
    "hvac1": (1464, "4c254c6c9448d663a3647b9bf6936535"),
    "hvac2": (1526, "043b6b94538695d7d39bd6602ca07106"),
    "hvac4": (1410, "97815635214df7324ce2963581dc2529"),
    "xfs": (196, "a44d45b011f47edc83b18d65e1d57299"),
    "lpcc": (1302, "b71881c0a16159d59daeddb763a14000"),
}


def traced_env():
    env, trace = Environment(), EventTrace()
    env.attach_trace(trace)
    return env, trace


def pinned(trace):
    return trace.count, trace.fingerprint


def small_dataset():
    return SyntheticDataset.scaled(IMAGENET21K, 16, seed=SEED)[0]


def test_every_setup_is_pinned():
    assert set(TRAINING) == set(SYSTEM_SETUPS) | {"lpcc"}


@pytest.mark.parametrize("name", sorted(TRAINING))
def test_training_stream(name):
    setup = LPCCLikeSetup() if name == "lpcc" else SYSTEM_SETUPS[name]
    trace = EventTrace()
    run_training(setup, RESNET50, IMAGENET21K, 2, SCALE, spec=TESTING,
                 seed=SEED, trace=trace)
    assert pinned(trace) == TRAINING[name]


def test_xfs_stage_in_stream():
    env, trace = traced_env()
    handle = XFSSetup(instant_stage=False).build(
        env, TESTING, 2, small_dataset(), seed=SEED
    )
    assert repr(handle.run_stage()) == "0.09158812900000005"
    assert pinned(trace) == (551, "91969b7aa0e0fe88d94cd890947f0234")


def test_mdtest_stream():
    env, trace = traced_env()
    handle = GPFSSetup().build(env, TESTING, 2, small_dataset(), seed=SEED)
    cfg = MDTestConfig(n_nodes=2, ranks_per_node=2, files_per_rank=4)
    res = run_mdtest(env, cfg, handle.backend_for_node, handle.label)
    assert (res.transactions, repr(res.elapsed)) == (16, "0.030252768000000013")
    assert pinned(trace) == (219, "af25e950f69c781ee42da830898cc5e8")


def test_ior_stream():
    env, trace = traced_env()
    handle = GPFSSetup().build(env, TESTING, 2, small_dataset(), seed=SEED)
    cfg = IORConfig(n_nodes=2, ranks_per_node=2, file_size=4 * 2**20,
                    block_size=2**20)
    res = run_ior(env, cfg, handle.backend_for_node, handle.label)
    assert repr(res.elapsed) == "0.014195759999999998"
    assert pinned(trace) == (159, "c07cc0b056535545d435bd1a7bb762a9")


def test_compare_rig_stream():
    trace = EventTrace()
    env, dep, pfs = compare.build(compare.fault_spec(None), 3, SEED, trace=trace)
    files = compare.files(8, 25_000)
    hvac = compare.epoch(env, dep, 3, files)
    direct = compare.pfs_epoch(env, pfs, 3, files)
    assert (repr(hvac), repr(direct)) == (
        "0.027812631260000005", "0.06206000000000005"
    )
    assert pinned(trace) == (1485, "1de4378e9ae09dec4d582f79df9e8b5e")


def test_fuzz_scenario_stream():
    trace = EventTrace()
    execute(ScenarioGenerator(seed=7).sample(0), trace=trace)
    assert pinned(trace) == (7693, "7c4623fbc9414d3b3ab6fe8b5562a9d8")


def test_cache_split_epoch_seconds():
    res = cache_split(RESNET50, IMAGENET21K, SCALE, n_nodes=2,
                      local_fractions=(1.0, 0.5, 0.0), spec=TESTING, seed=SEED)
    assert [repr(t) for t in res.epoch_seconds] == [
        "0.013564699231111102", "0.013750390191111107", "0.0136590731111111",
    ]
