"""Sim-time race sanitizer (``repro check --races``).

The kernel orders same-timestamp events by ``(priority, seq)`` where
``seq`` is the global heap-insertion sequence.  That makes every run
bit-for-bit replayable — but when two events at the *same* ``(time,
priority)`` touch the same shared state with at least one write, the
outcome depends on nothing but insertion order: an innocuous code
change (spawning processes from a different loop, reordering setup)
silently reorders them and every downstream number moves.  No static
rule can see this; the sanitizer catches it at runtime.

Model
-----
Instrumented components declare accesses to named *shared-state cells*
via :meth:`Environment.note_access` (a no-op unless a sanitizer is
attached): server cache maps, per-server in-flight dedup slots,
per-member membership-view lattice slots, and rate-limiter tokens.
The sanitizer groups accesses by the event executing them and, when sim
time advances, reports every same-``(time, priority)`` event pair with
a write/write or read/write overlap on one cell — with both access
stacks — unless:

* one event (transitively) *scheduled* the other at the same timestamp,
  or both descend from one same-timestamp ancestor: their relative
  order is program-defined (the parent's code emitted them in textual
  order), not insertion-accidental;
* both accesses are pure writes of the same *tag* (e.g. two gossip
  digests adopting the identical ``(incarnation, state)`` for a member)
  — idempotent, so order cannot matter.

Aggregate monitor counters are deliberately **not** cells: increments
commute, so same-timestamp ordering cannot change them.

The sanitizer creates no events, draws no RNG, and never perturbs the
clock, so enabling it leaves the event-stream fingerprint unchanged
(asserted in tests/test_races.py).
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

__all__ = ["RaceReport", "RaceSanitizer", "membership_smoke"]

#: frames whose basenames are plumbing, not interesting access sites
_PLUMBING = ("races.py", "engine.py")


@dataclass(frozen=True)
class RaceReport:
    """One same-timestamp conflicting pair on one shared-state cell."""

    time: float
    priority: int
    cell: str
    a_seq: int
    a_label: str
    a_modes: str  #: "r", "w", or "rw"
    a_sites: tuple[str, ...]
    b_seq: int
    b_label: str
    b_modes: str
    b_sites: tuple[str, ...]

    @property
    def kind(self) -> str:
        return f"{'w' if 'w' in self.a_modes else 'r'}/{'w' if 'w' in self.b_modes else 'r'}"

    def describe(self) -> str:
        lines = [
            f"same-timestamp race @ t={self.time!r} (priority "
            f"{self.priority}) on cell '{self.cell}' [{self.kind}]",
            f"  event A: seq={self.a_seq} {self.a_label} "
            f"[{self.a_modes}]",
        ]
        lines.extend(f"    at {s}" for s in self.a_sites)
        lines.append(
            f"  event B: seq={self.b_seq} {self.b_label} [{self.b_modes}]"
        )
        lines.extend(f"    at {s}" for s in self.b_sites)
        lines.append(
            "  relative order is decided only by heap insertion sequence "
            f"(seq {self.a_seq} < {self.b_seq})"
        )
        return "\n".join(lines)


class _EventAccesses:
    """Access set of one executing event: cell -> [modes, tags, sites]."""

    __slots__ = ("seq", "label", "cells")

    def __init__(self, seq: int, label: str):
        self.seq = seq
        self.label = label
        # cell -> [modes:set[str], tags:set, sites:dict[mode, stack]]
        self.cells: dict[str, list] = {}


class RaceSanitizer:
    """Attach with ``env.attach_sanitizer(...)``; read :attr:`reports`.

    Call :meth:`finish` after the run (the last timestamp's group is
    only analyzable once no more events can join it).
    """

    def __init__(self, max_reports: int = 100, stack_depth: int = 4):
        self.max_reports = max_reports
        self.stack_depth = stack_depth
        self.reports: list[RaceReport] = []
        self._time: float | None = None
        self._cur: _EventAccesses | None = None
        self._cur_priority = 0
        #: priority -> finished events with non-empty access sets
        self._groups: dict[int, list[_EventAccesses]] = {}
        #: child seq -> parent seq, for events scheduled at delay 0
        #: (same-timestamp causality; cleared when time advances)
        self._parents: dict[int, int] = {}
        #: report dedup across repeats of the same structural conflict
        self._seen: set[tuple] = set()

    # -- engine hooks -------------------------------------------------------
    def begin_event(self, time: float, priority: int, seq: int, label: str) -> None:
        if self._time is not None and time != self._time:
            self._flush()
        self._time = time
        self._cur = _EventAccesses(seq, label)
        self._cur_priority = priority

    def end_event(self) -> None:
        cur = self._cur
        if cur is not None and cur.cells:
            self._groups.setdefault(self._cur_priority, []).append(cur)
        self._cur = None

    def note_schedule(self, child_seq: int, delay: float) -> None:
        if self._cur is not None and delay == 0.0:
            self._parents[child_seq] = self._cur.seq

    def note(self, cell: str, mode: str, tag=None) -> None:
        cur = self._cur
        if cur is None:
            return  # driver code outside the event loop: program-ordered
        rec = cur.cells.get(cell)
        if rec is None:
            rec = cur.cells[cell] = [set(), set(), {}]
        rec[0].add(mode)
        rec[1].add(tag)
        if mode not in rec[2]:
            rec[2][mode] = self._capture_sites()

    def finish(self) -> None:
        """Analyze the final timestamp's group."""
        self.end_event()
        self._flush()

    # -- analysis -----------------------------------------------------------
    def _capture_sites(self) -> tuple[str, ...]:
        sites: list[str] = []
        frame = sys._getframe(2)
        while frame is not None and len(sites) < self.stack_depth:
            base = os.path.basename(frame.f_code.co_filename)
            if base not in _PLUMBING:
                sites.append(f"{base}:{frame.f_lineno} in {frame.f_code.co_name}")
            frame = frame.f_back
        return tuple(sites)

    def _root(self, seq: int) -> int:
        while seq in self._parents:
            seq = self._parents[seq]
        return seq

    @staticmethod
    def _conflict(a: list, b: list) -> bool:
        """Do two per-event access records on one cell conflict?"""
        a_w, b_w = "w" in a[0], "w" in b[0]
        if not (a_w or b_w):
            return False  # read/read
        if (
            a[0] == {"w"}
            and b[0] == {"w"}
            and None not in a[1]
            and None not in b[1]
            and a[1] == b[1]
        ):
            return False  # idempotent: same-tag pure writes commute
        return True

    def _flush(self) -> None:
        groups, self._groups = self._groups, {}
        parents_used = self._parents
        self._parents = {}
        if self._time is None:
            return
        for priority in sorted(groups):
            events = groups[priority]
            if len(events) < 2:
                continue
            # cell -> [(event, record)]
            by_cell: dict[str, list] = {}
            for ev in events:
                for cell, rec in ev.cells.items():
                    by_cell.setdefault(cell, []).append((ev, rec))
            self._parents = parents_used  # _root needs this timestamp's forest
            for cell in sorted(by_cell):
                users = by_cell[cell]
                if len(users) < 2:
                    continue
                for i in range(len(users) - 1):
                    for j in range(i + 1, len(users)):
                        (ea, ra), (eb, rb) = users[i], users[j]
                        if not self._conflict(ra, rb):
                            continue
                        if self._root(ea.seq) == self._root(eb.seq):
                            continue  # causally/program ordered
                        self._report(priority, cell, ea, ra, eb, rb)
            self._parents = {}

    def _report(self, priority, cell, ea, ra, eb, rb) -> None:
        a_sites = tuple(s for _m, s in sorted(ra[2].items()))[:1]
        b_sites = tuple(s for _m, s in sorted(rb[2].items()))[:1]
        key = (cell, ea.label, eb.label, a_sites, b_sites)
        if key in self._seen or len(self.reports) >= self.max_reports:
            return
        self._seen.add(key)
        self.reports.append(
            RaceReport(
                time=self._time,
                priority=priority,
                cell=cell,
                a_seq=ea.seq,
                a_label=ea.label,
                a_modes="".join(sorted(ra[0])),
                a_sites=a_sites[0] if a_sites else (),
                b_seq=eb.seq,
                b_label=eb.label,
                b_modes="".join(sorted(rb[0])),
                b_sites=b_sites[0] if b_sites else (),
            )
        )


# ---------------------------------------------------------------------------
def membership_smoke(
    seed: int = 0,
    n_nodes: int = 4,
    n_files: int = 12,
    sanitizer: RaceSanitizer | None = None,
    trace=None,
):
    """The crash-burst → outage → recover → repair scenario behind
    ``repro check --races`` (and the sanitizer-clean gate in tests).

    Returns the :class:`~repro.simcore.Environment` after teardown.
    """
    from ..experiments import compare
    from ..experiments.membership import MEMBERSHIP_MODES, MEMBERSHIP_SPEC_OVERRIDES
    from ..faults import FaultSchedule, crash

    # the membership experiment's full stack, plus a throttled repair
    # stream so the limiter token (the likeliest same-timestamp cell) is
    # actually exercised
    spec = compare.fault_spec(
        None,
        **MEMBERSHIP_SPEC_OVERRIDES,
        **MEMBERSHIP_MODES["gossip+remap+repair"],
        repair_bandwidth=50e6,
    )
    env, dep, _ = compare.build(
        spec, n_nodes, seed, trace=trace, sanitizer=sanitizer
    )
    files = compare.files(n_files, 20_000)
    if dep.repair is not None:
        dep.repair.attach_manifest(files)

    compare.epoch(env, dep, n_nodes, files)  # cold
    compare.epoch(env, dep, n_nodes, files)  # warm
    victims = [0, 1]  # adjacent pair: some files lose every replica
    dep.inject(FaultSchedule([crash(0.0, v) for v in victims]))
    compare.epoch(env, dep, n_nodes, files)  # outage
    for v in victims:
        dep.recover_node(v)  # same-instant burst recovery
    env.run(until=env.now + 2 * spec.hvac.probation_period)
    compare.drain_repair(env, dep)
    compare.epoch(env, dep, n_nodes, files)  # recovered
    dep.teardown()
    if sanitizer is not None:
        sanitizer.finish()
    return env
