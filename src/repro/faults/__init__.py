"""Fault injection and failure detection (paper §III-H, made honest).

The seed reproduction *asserted* resilience: tests killed a server by
hand and the client consulted an omniscient ``server.alive`` flag.  This
package replaces both sides of that oracle:

* :class:`FaultSchedule` / :class:`Injector` — a declarative, seedable
  list of fault events (crash, crash-recover, hang, flapping, NVMe
  degradation, flaky links, partitions) driven against a deployment
  inside the simulation clock;
* :class:`FailureDetector` — client-side liveness *suspicion* built only
  from observed RPC timeouts and errors, with blacklisting, probation
  and re-probing.  No component ever reads another's health flag.
"""

from .detector import FAULT_SPEC_OVERRIDES, FailureDetector
from .injector import Injector
from .schedule import (
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    crash,
    degrade,
    flaky_link,
    flap,
    hang,
    partition,
)

__all__ = [
    "crash",
    "degrade",
    "FailureDetector",
    "FAULT_KINDS",
    "FAULT_SPEC_OVERRIDES",
    "FaultEvent",
    "FaultSchedule",
    "flaky_link",
    "flap",
    "hang",
    "Injector",
    "partition",
]
