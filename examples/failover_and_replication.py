#!/usr/bin/env python3
"""Failure handling and replication (the paper's §III-H future work).

Faults are *injected* through a declarative, seedable
:class:`repro.faults.FaultSchedule` — crash, crash-with-recovery, a
wedged (hung) server, a flaky link — and *detected* purely client-side:
every forwarded read carries a deadline, timeouts and errors strike the
server in a per-client ``FailureDetector``, suspects sit out a probation
period, and a bounded retry loop falls back to the PFS.  Nobody consults
a health oracle.

* with ``replication_factor=1`` (the prototype), losing a node's NVMe
  degrades to PFS reads — slower, but the training run survives;
* with ``replication_factor=2``, replicas absorb the failure with
  almost no PFS traffic, and recovery brings the node back cold.

    python examples/failover_and_replication.py
"""

from repro.analysis import format_table
from repro.baselines import build_hvac
from repro.cluster import SUMMIT
from repro.faults import FaultSchedule, crash, flaky_link, hang
from repro.simcore import Environment, run_all

N_NODES = 8
FILES = [(f"/gpfs/alpine/ds/f{i:03d}", 163_000) for i in range(200)]

#: tightened detection constants: deadline, strike threshold, probation
FAULTY_HVAC = dict(
    rpc_timeout=0.05, rpc_backoff_base=1e-4, rpc_backoff_cap=2e-3,
    suspect_after=2, probation_period=0.1,
)


def epoch(env, dep, tag):
    def reader(node_id):
        cli = dep.client(node_id)
        for path, size in FILES:
            yield from cli.read_file(path, size, node_id)

    procs = [env.process(reader(n)) for n in range(N_NODES)]
    return run_all(env, procs, tag)


def scenario(replication: int):
    env = Environment()
    spec = SUMMIT.with_hvac(replication_factor=replication, **FAULTY_HVAC)
    dep = build_hvac(env, spec, N_NODES)

    t_warmup = epoch(env, dep, "cold")
    t_healthy = epoch(env, dep, "warm")

    # The fault scenario, declared up front: node 3's NVMe dies now and
    # comes back (cold) after 60 ms; node 5 wedges for 40 ms without
    # crashing; the 0<->2 link turns flaky for 30 ms from 60 ms on.  Every
    # reader sits out node 5's hang on its 50 ms deadline, so an earlier
    # flaky window would carry no traffic to drop.  The injector replays
    # the schedule inside the sim clock; clients must *notice* on their own.
    dep.inject(FaultSchedule([
        crash(0.0, node=3, recover_after=0.06),
        hang(0.005, node=5, duration=0.04),
        flaky_link(0.06, 0, 2, drop_prob=0.5, duration=0.03),
    ]))
    t_faulty = epoch(env, dep, "under faults")
    fallbacks = dep.metrics.counter("hvac.client_pfs_fallback").value
    timeouts = dep.metrics.counter("hvac.client_rpc_timeouts").value
    dropped = dep.metrics.counter("fabric.dropped_messages").value

    # Probation expires, node 3 is re-probed and re-adopted cold.
    env.run(until=env.now + 0.2)
    t_recovering = epoch(env, dep, "recovering")
    t_recovered = epoch(env, dep, "recovered")
    dep.teardown()
    return (
        [t_warmup, t_healthy, t_faulty, t_recovering, t_recovered],
        fallbacks,
        timeouts,
        dropped,
    )


def main() -> None:
    rows = []
    for repl in (1, 2):
        times, fallbacks, timeouts, dropped = scenario(repl)
        rows.append([f"r={repl}", *times, fallbacks, timeouts, dropped])
    print(format_table(
        ["config", "cold (s)", "warm (s)", "under faults (s)",
         "recovering (s)", "recovered (s)", "PFS fallbacks", "RPC timeouts",
         "dropped msgs"],
        rows,
        title=(f"Epoch time across crash + hang + flaky link "
               f"({N_NODES} nodes, {len(FILES)} files/epoch/node)"),
        float_fmt="{:.4f}",
    ))
    print("\nr=1: suspects' files fall back to GPFS until probation re-probes.")
    print("r=2: replicas absorb most of the faults (paper §III-H).")
    print("Detection is timeout-only: no client ever reads server health.")


if __name__ == "__main__":
    main()
