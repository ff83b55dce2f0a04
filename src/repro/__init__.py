"""repro — a reproduction of HVAC (Khan et al., IEEE CLUSTER 2022).

High-Velocity AI Cache: a distributed read-only cache over node-local
NVMe for large-scale deep-learning training on HPC systems.

Two execution modes share the HVAC core logic:

* **Simulation** (default): a deterministic discrete-event model of the
  full Summit-like stack — GPFS with metadata/data servers, per-node
  NVMe, an Infiniband-like fabric, Mercury-like RPC — driving the
  paper's DL workloads at up to 1,024 nodes.
* **Runtime** (:mod:`repro.runtime`): a working single-machine HVAC
  over real directories with a Python-level ``open()`` interposer.

Quick start::

    from repro.simcore import Environment
    from repro.cluster import SUMMIT
    from repro.baselines import build_hvac

    env = Environment()
    hvac = build_hvac(env, SUMMIT, n_nodes=8)  # .allocation, .pfs, .metrics

See ``examples/`` and DESIGN.md for the full tour.
"""

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "baselines",
    "cluster",
    "core",
    "dl",
    "experiments",
    "model",
    "posix",
    "rpc",
    "runtime",
    "simcore",
    "storage",
    "workloads",
]
