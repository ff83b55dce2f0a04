#!/usr/bin/env python3
"""Quickstart: HVAC in 60 seconds.

Builds an 8-node Summit-like allocation, deploys HVAC over it, trains a
toy epoch loop against GPFS-direct and against HVAC, and prints the
cache's effect.  Everything is simulated — run it anywhere.

    python examples/quickstart.py
"""

from repro.analysis import format_kv, format_table
from repro.baselines import GPFSSetup, build_hvac
from repro.cluster import SUMMIT
from repro.simcore import Environment, run_all


def read_dataset(env, backend_for_node, files, n_nodes):
    """One 'epoch': every node reads every file (whole-file
    transactions); returns its simulated seconds."""

    def node_reader(node_id):
        backend = backend_for_node(node_id)
        for path, size in files:
            yield from backend.read_file(path, size, node_id)

    procs = [env.process(node_reader(n)) for n in range(n_nodes)]
    return run_all(env, procs, "epoch")


def main() -> None:
    n_nodes = 8
    files = [(f"/gpfs/alpine/dataset/img-{i:04d}.jpg", 163_000) for i in range(400)]

    # --- GPFS only: every epoch hits the parallel file system. -----------
    env = Environment()
    gpfs = GPFSSetup().build(env, SUMMIT, n_nodes, dataset=None)
    gpfs_times = [
        read_dataset(env, gpfs.backend_for_node, files, n_nodes) for _ in range(3)
    ]

    # --- With HVAC: epoch 1 populates node-local NVMe, the rest hit cache.
    # Four server instances per node — the paper's best configuration.
    env = Environment()
    hvac = build_hvac(env, SUMMIT.with_hvac(instances_per_node=4), n_nodes)
    hvac_times = [read_dataset(env, hvac.client, files, n_nodes) for _ in range(3)]

    rows = [
        [f"epoch {e + 1}", g, h, g / h]
        for e, (g, h) in enumerate(zip(gpfs_times, hvac_times))
    ]
    print(format_table(
        ["", "GPFS (s)", "HVAC (s)", "speedup"],
        rows,
        title=f"Reading {len(files)} files x {n_nodes} nodes, 3 epochs",
        float_fmt="{:.4f}",
    ))
    print()
    print(format_kv({
        "cached files": hvac.total_cached_files,
        "cached bytes": hvac.total_cached_bytes,
        "cache hit rate": hvac.hit_rate(),
        "servers": hvac.n_servers,
    }, title="HVAC deployment state"))
    hvac.teardown()
    print("\ncache purged at job end:", hvac.total_cached_bytes == 0)


if __name__ == "__main__":
    main()
