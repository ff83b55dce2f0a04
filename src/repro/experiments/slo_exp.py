"""SLO scenario: the same epoch with and without a mid-epoch crash.

This is the telemetry subsystem's end-to-end driver (and the ``repro
slo`` CLI command).  It runs the resilience workload twice with a
:class:`~repro.obs.SpanRecorder` attached — once clean, once with a
crash landing ``fault_time`` seconds into the measured epoch — rolls
both span timelines into :class:`~repro.obs.SLOReport`\\ s over the
*same* absolute window grid, and renders the side-by-side degradation
dashboard: p50/p95/p99 read latency per client, degraded-read fraction
per window, and delivered bytes split across NVMe-local / remote-RPC /
PFS-fallback paths.

Because both runs share the seed and the warm phase, every divergence
in the dashboard is attributable to the injected fault.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import degradation_dashboard
from ..cluster import ClusterSpec
from ..faults import FaultSchedule, crash
from ..obs import SLOReport, SpanRecorder, bucket_times
from . import compare

#: detector transition kinds, in lifecycle order (strip row order)
_DETECTOR_KINDS = ("suspect", "probation_expired", "reprobe_ok", "reprobe_fail")

__all__ = ["SLOScenarioResult", "slo_scenario"]


@dataclass
class SLOScenarioResult(compare.Comparison):
    """Baseline + faulted SLO reports over one shared window grid."""

    REPORT = "dashboard"

    n_nodes: int
    n_files: int
    fault_time: float
    fault_node: int
    baseline: SLOReport
    faulted: SLOReport
    #: the raw span timelines, keyed by run label (JSONL export)
    recorders: dict[str, SpanRecorder]
    #: per-run ``(t, client_node, kind, server_id)`` failure-detector
    #: transitions, keyed by run label; same grid as the SLO windows
    detector_transitions: dict[str, list[tuple]]

    @property
    def labels(self) -> tuple[str, str]:
        return ("baseline", f"crash@{self.fault_time:g}s")

    def _detector_strips(self) -> str:
        """One count-strip per (run, transition kind) on the SLO window
        grid, so suspicion onset / probation expiry / re-probe outcomes
        line up column-for-column with the degraded-fraction rows."""
        rep = self.baseline  # both reports share the absolute grid
        rows: list[tuple[str, list[int]]] = []
        for label in self.labels:
            for kind in _DETECTOR_KINDS:
                times = [
                    t for t, _node, k, _sid
                    in self.detector_transitions.get(label, [])
                    if k == kind
                ]
                if not times:
                    continue
                rows.append((
                    f"{label}/{kind}",
                    bucket_times(times, rep.window, rep.t0, rep.t1),
                ))
        if not rows:
            return ""
        return compare.strip_block("failure-detector transitions", rows)

    def render(self) -> str:
        base_label, fault_label = self.labels
        dash = degradation_dashboard(
            {base_label: self.baseline, fault_label: self.faulted},
            title=(f"SLO degradation dashboard ({self.n_nodes} nodes, "
                   f"{self.n_files} files/epoch/node, "
                   f"crash node {self.fault_node})"),
        )
        strips = self._detector_strips()
        return dash + ("\n\n" + strips if strips else "")

    def logs(self) -> dict[str, tuple[str, str]]:
        """One span-timeline JSONL per run."""
        logs = {}
        for label, rec in self.recorders.items():
            safe = label.replace("@", "_at_").replace(".", "_")
            text = "".join(line + "\n" for line in rec.to_jsonl_lines())
            logs[f"spans[{label}]"] = (f"spans_{safe}.jsonl", text)
        return logs


def slo_scenario(
    n_nodes: int = 4,
    n_files: int = 32,
    file_size: int = 25_000,
    fault_time: float = 0.002,
    fault_node: int = 1,
    windows: int = 12,
    spec: ClusterSpec | None = None,
    seed: int = 0,
) -> SLOScenarioResult:
    """Run the baseline/crash pair and aggregate both into SLO windows.

    Each run: cold epoch to warm the cache (excluded from the SLO
    range), then the measured epoch, with the crash injected
    ``fault_time`` seconds in on the faulted run.  Windows are aligned
    to the measured epoch's start and sized so ``windows`` buckets
    cover the *slower* run — identical absolute buckets for both
    reports, which is what makes the dashboard rows comparable.
    """
    compare.require_scale("slo_scenario", n_nodes, 2, windows)  # one to crash
    spec = compare.fault_spec(spec)
    files = compare.files(n_files, file_size)
    fault_node = fault_node % n_nodes

    def run(schedule: FaultSchedule | None):
        rec = SpanRecorder()
        env, dep, _ = compare.build(spec, n_nodes, seed, spans=rec)
        compare.epoch(env, dep, n_nodes, files)  # warm the cache
        t0 = env.now
        if schedule is not None:
            dep.inject(schedule)
        compare.epoch(env, dep, n_nodes, files)
        t1 = env.now
        transitions = sorted(
            (t, node, kind, sid)
            for node, cli in dep._clients.items()
            for t, kind, sid in cli.detector.transitions
        )
        dep.teardown()
        return rec, t0, t1, transitions

    rec_base, base_t0, base_t1, trans_base = run(None)
    rec_fault, fault_t0, fault_t1, trans_fault = run(
        FaultSchedule([crash(fault_time, fault_node)])
    )

    # Identical seeds + identical warm phases: both measured epochs
    # start at the same instant; the faulted one just ends later.
    origin = min(base_t0, fault_t0)
    horizon = max(base_t1, fault_t1)

    result = SLOScenarioResult(
        n_nodes=n_nodes,
        n_files=n_files,
        fault_time=fault_time,
        fault_node=fault_node,
        baseline=compare.slo_over(rec_base, origin, horizon, windows),
        faulted=compare.slo_over(rec_fault, origin, horizon, windows),
        recorders={},
        detector_transitions={},
    )
    base_label, fault_label = result.labels
    result.recorders = {base_label: rec_base, fault_label: rec_fault}
    result.detector_transitions = {
        base_label: trans_base, fault_label: trans_fault
    }
    return result
