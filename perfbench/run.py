"""Paper-figure benchmark: simulator cost and modelled HVAC latency.

Run from the repository root:

    python3 perfbench/run.py --workload fig8_hvac --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload for ``--seconds`` seconds and prints
the end-to-end metrics; ``--trace 1`` runs it plain, fingerprinted and
layer-traced once each and prints the per-layer metrics.  The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (reads in one run) and ``metrics`` (name -> value and unit).
See README.md in this directory for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"perfbench: no simulator sources in {SRC}")
sys.path.insert(0, str(SRC))

from repro.simcore import EventTrace  # noqa: E402

from scenarios import PAPER_GPFS_TX_PER_S, WORKLOADS, Workload, build  # noqa: E402
from tracer import LAYERS, LayerTracer, calibrate, traced_layers  # noqa: E402

#: extra set-ups timed before the runs, so setup_s is a median of many
SETUP_SAMPLES = 30
#: fewest timed runs in a --trace 0 measurement, however long each takes
MIN_RUNS = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_epoch1_s": "s",
    "sim_warm_epoch_s": "s",
    "sim_read_p50_ms": "ms",
    "sim_read_p99_ms": "ms",
    "sim_tx_per_s": "1/s",
}

PER_LAYER_UNITS = {
    **{f"{layer}.{m}": u for layer in LAYERS for m, u in (
        ("calls", "count"), ("host_self_s", "s"), ("sim_s", "s"))},
    "simcore.events": "count",
    "simcore.events_per_read": "events/read",
    "simcore.events_per_s": "1/s",
    "simcore.host_self_s": "s",
    "core.cache.hits": "count",
    "core.cache.misses": "count",
    "core.cache.inserts": "count",
    "core.cache.evictions": "count",
    "core.cache.hit_ratio": "ratio",
    "core.server.dedup_waits": "count",
    "core.server.passthrough": "count",
    "core.client.retries": "count",
    "core.client.pfs_fallbacks": "count",
    "core.client.remote_ratio": "ratio",
    "core.client.degraded_frac": "ratio",
    "rpc.timeouts": "count",
    "rpc.errors": "count",
    "storage.gpfs.open_sim_s": "s",
    "storage.gpfs.bytes": "B",
    "cluster.network.bytes": "B",
    "cluster.nvme.write_bytes": "B",
    "faults.suspicions": "count",
    "trace.overhead_s": "s",
}

#: layers that must make no calls at all on a workload kind
ZERO_CALL_LAYERS = {
    "mdtest": ("dl", "core.client", "rpc", "core.server", "core.cache",
               "cluster.network", "cluster.nvme", "storage.localfs"),
    "training": ("workloads.mdtest", "storage.localfs"),
}


# -- metrics from one run --------------------------------------------------
def sim_metrics(out) -> dict:
    """The simulated end-to-end metrics: identical for a given seed."""
    lat = np.asarray(out.log.latencies)
    p50, p99 = np.percentile(lat, [50, 99]) * 1e3
    return {
        "sim_epoch1_s": out.pass_s[0],
        "sim_warm_epoch_s": statistics.fmean(out.pass_s[1:]),
        "sim_read_p50_ms": float(p50),
        "sim_read_p99_ms": float(p99),
        "sim_tx_per_s": len(lat) / out.sim_end,
    }


def _total(snapshot: dict, suffix: str) -> float:
    """Sum of every counter (or tally total) whose name ends in ``suffix``."""
    total = 0
    for name, value in snapshot.items():
        if name.endswith(suffix):
            total += value["n"] * value["mean"] if isinstance(value, dict) else value
    return total


def counter_metrics(out) -> dict:
    """Per-layer counts from the deployment's MetricRegistry snapshot."""
    snap = out.snapshot

    def get(name):
        return snap.get(name, 0)

    hits, misses = get("hvac.cache_hits"), get("hvac.cache_misses")
    routed = {r: get(f"hvac.client_bytes_{r}") for r in ("local", "remote", "pfs")}
    reads = out.log.started
    return {
        "core.cache.hits": hits,
        "core.cache.misses": misses,
        "core.cache.inserts": _total(snap, ".cache.inserts"),
        "core.cache.evictions": _total(snap, ".cache.evictions"),
        "core.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.server.dedup_waits": get("hvac.dedup_waits"),
        "core.server.passthrough": get("hvac.passthrough"),
        "core.client.retries": get("hvac.client_retries"),
        "core.client.pfs_fallbacks": get("hvac.client_pfs_fallback"),
        "core.client.remote_ratio": (
            routed["remote"] / sum(routed.values()) if sum(routed.values()) else 0.0
        ),
        "core.client.degraded_frac": get("hvac.client_degraded_reads") / reads,
        "rpc.timeouts": _total(snap, ".rpc.timeouts"),
        "rpc.errors": _total(snap, ".rpc.errors"),
        "storage.gpfs.open_sim_s": _total(snap, "gpfs.open_seconds"),
        "storage.gpfs.bytes": round(_total(snap, "gpfs.read_bytes")),
        "cluster.network.bytes": round(_total(snap, "fabric.remote_bytes")),
        "cluster.nvme.write_bytes": round(_total(snap, ".nvme.write_bytes")),
        "faults.suspicions": _total(snap, "detector.suspicions"),
    }


def check_outcome(workload: Workload, scenario, out) -> list[str]:
    """Checks every run must pass, traced or not."""
    problems = scenario.check(out)
    counts = counter_metrics(out)
    requested = sum(size for _, size in out.log.reads)
    if workload.kind == "mdtest":
        delivered = counts["storage.gpfs.bytes"]
    else:
        delivered = sum(
            out.snapshot.get(f"hvac.client_bytes_{r}", 0) for r in ("local", "remote", "pfs")
        )
    if delivered != requested:
        problems.append(f"{delivered} bytes delivered for {requested} requested")
    degraded = counts["core.client.degraded_frac"]
    if workload.crash and degraded <= 0:
        problems.append("the crash degraded no read")
    if not workload.crash and degraded != 0:
        problems.append(f"degraded_frac is {degraded} without a fault")
    evictions = counts["core.cache.evictions"]
    if workload.cache_share and evictions <= 0:
        problems.append("no eviction under cache pressure")
    if not workload.cache_share and not workload.crash and evictions != 0:
        problems.append(f"{evictions} evictions with the whole sample cached")
    return problems


# -- measurements ------------------------------------------------------------
def _timed_run(workload, seed, trace=None, tracer=None):
    """Build and run once; returns (scenario, outcome, setup_s, wall_s)."""
    gc.collect()
    scenario = build(workload, seed, trace=trace, tracer=tracer)
    if tracer is not None:
        tracer.reset()
    t0 = perf_counter()
    out = scenario.run()
    return scenario, out, scenario.setup_s, perf_counter() - t0


def measure_end_to_end(workload: Workload, seed: int, seconds: float):
    """Repeat the workload for ``seconds``; medians of host times."""
    setups = []
    for _ in range(SETUP_SAMPLES):
        gc.collect()
        setups.append(build(workload, seed).setup_s)
    walls, problems, sims = [], [], None
    start = perf_counter()
    while len(walls) < MIN_RUNS or perf_counter() - start < seconds:
        scenario, out, setup_s, wall_s = _timed_run(workload, seed)
        setups.append(setup_s)
        walls.append(wall_s)
        problems += check_outcome(workload, scenario, out)
        run_sims = sim_metrics(out)
        if sims is None:
            sims = run_sims
        elif run_sims != sims:
            problems.append("sim metrics differ between runs of one seed")
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **sims,
    }
    return metrics, out, problems


def measure_layers(workload: Workload, seed: int):
    """One plain, one fingerprinted and one layer-traced run."""
    plain = _timed_run(workload, seed)
    untraced_fp = EventTrace()
    fingerprinted = _timed_run(workload, seed, trace=untraced_fp)
    traced_fp = EventTrace()
    tracer = LayerTracer()
    with traced_layers(tracer):
        traced = _timed_run(workload, seed, trace=traced_fp, tracer=tracer)
    problems = []
    for scenario, run_out, _, _ in (plain, fingerprinted, traced):
        problems += check_outcome(workload, scenario, run_out)
    if traced_fp.fingerprint != untraced_fp.fingerprint:
        problems.append("traced event fingerprint differs from the untraced one")
    if not (
        sim_metrics(plain[1]) == sim_metrics(fingerprinted[1]) == sim_metrics(traced[1])
    ):
        problems.append("sim metrics differ between runs of one seed")
    out, wall_traced = traced[1], traced[3]

    calls = tracer.method_calls
    snap = out.snapshot
    reads = out.log.started
    overlaps = {"GPFS.read": snap.get("gpfs.reads", 0)}
    if workload.kind == "training":
        overlaps.update({
            "HVACClient.open": snap.get("hvac.client_opens", 0),
            "HVACClient.read": reads,
            "HVACClient.close": snap.get("hvac.client_closes", 0),
        })
    for method, expected in overlaps.items():
        if calls[method] != expected:
            problems.append(f"{method} ran {calls[method]} times, counters say {expected}")
    for layer in ZERO_CALL_LAYERS[workload.kind]:
        if tracer.calls[layer]:
            problems.append(f"{layer} made {tracer.calls[layer]} calls, predicted 0")

    unattributed = wall_traced - sum(tracer.self_s[layer] for layer in LAYERS)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = tracer.calls[layer]
        metrics[f"{layer}.host_self_s"] = tracer.self_s[layer]
        metrics[f"{layer}.sim_s"] = tracer.sim_s[layer]
    metrics.update({
        "simcore.events": traced_fp.count,
        "simcore.events_per_read": traced_fp.count / reads,
        "simcore.events_per_s": traced_fp.count / plain[3],
        "simcore.host_self_s": unattributed - tracer.switches * calibrate(),
        **counter_metrics(out),
        "trace.overhead_s": wall_traced - fingerprinted[3],
    })
    return metrics, out, problems


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """The benchmark's result object for one invocation."""
    if trace:
        metrics, out, problems = measure_layers(workload, seed)
        units = PER_LAYER_UNITS
    else:
        metrics, out, problems = measure_end_to_end(workload, seed, seconds)
        units = END_TO_END_UNITS
    return {
        "correct": not problems,
        "attempted": out.log.started,
        # a read that raises aborts the simulated job, and with it the
        # benchmark (exit status 1, no result): a printed result has none
        "failed": 0,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    problems = result.pop("problems")
    print(f"{workload.name} seed={args.seed} trace={args.trace} "
          f"reads/run={result['attempted']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']!r:>24} {metric['unit']}")
    if not args.trace and workload.kind == "mdtest":
        print(f"  reference: paper Fig 3 GPFS plateau ~{PAPER_GPFS_TX_PER_S} tx/s")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
