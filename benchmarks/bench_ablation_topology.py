"""Ablation: topology-aware replica placement (paper conclusion).

"Future works include ... job topology partitioning enabling redundancy
for reliability and performance."  With an oversubscribed rack fabric,
rack-aware replicas + same-rack reads (a) keep warm traffic off the
uplinks and (b) survive a whole-rack loss without touching the PFS.
"""

import dataclasses

import pytest

from repro.analysis import format_table
from repro.baselines import build_hvac
from repro.cluster import SUMMIT
from repro.simcore import Environment, run_all

N_NODES = 16
RACK = 4
FILES = [(f"/d/f{i}", 163_000) for i in range(256)]


def _spec(topology_aware: bool):
    spec = SUMMIT.with_hvac(replication_factor=2, topology_aware=topology_aware)
    return dataclasses.replace(
        spec,
        network=dataclasses.replace(
            spec.network,
            rack_size=RACK,
            # 2:1 oversubscribed uplinks make rack locality matter.
            rack_uplink_bandwidth=RACK * spec.network.nic_bandwidth / 2,
        ),
    )


def _sweep(env, dep, nodes=range(N_NODES)):
    def reader(node):
        cli = dep.client(node)
        for path, size in FILES:
            yield from cli.read_file(path, size, node)

    procs = [env.process(reader(n)) for n in nodes]
    return run_all(env, procs, "sweep")


def _run():
    out = {}
    for label, topo in (("hash-only replicas", False), ("topology-aware", True)):
        env = Environment()
        spec = _spec(topo)
        dep = build_hvac(env, spec, N_NODES)
        _sweep(env, dep)  # populate
        before = dep.metrics.counter("fabric.inter_rack_transfers").value
        warm = _sweep(env, dep)
        inter_rack = (
            dep.metrics.counter("fabric.inter_rack_transfers").value - before
        )
        # Rack-loss survivability: kill rack 1 entirely.
        for node in range(RACK, 2 * RACK):
            dep.fail_node(node)
        fb_before = dep.metrics.counter("hvac.client_pfs_fallback").value
        _sweep(env, dep, [n for n in range(N_NODES) if not RACK <= n < 2 * RACK])
        fallbacks = dep.metrics.counter("hvac.client_pfs_fallback").value - fb_before
        out[label] = (warm, inter_rack, fallbacks)
        dep.teardown()
    return out


@pytest.mark.benchmark(group="ablation")
def test_ablation_topology_aware(benchmark, capsys):
    out = benchmark.pedantic(_run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table(
            ["placement", "warm sweep (s)", "inter-rack transfers",
             "PFS fallbacks after rack loss"],
            [[k, t, n, f] for k, (t, n, f) in out.items()],
            title=(f"Ablation: topology-aware replicas "
                   f"({N_NODES} nodes, racks of {RACK}, 2:1 uplinks)"),
        ))

    plain = out["hash-only replicas"]
    topo = out["topology-aware"]
    # Rack-aware reads cut uplink traffic...
    assert topo[1] < plain[1]
    # ...and a whole-rack loss is absorbed by cross-rack replicas.
    assert topo[2] == 0
