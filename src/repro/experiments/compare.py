"""Shared rig, report layout and artifacts of the mode-comparison drivers.

``resilience``, ``slo``, ``membership``, ``tenancy`` and ``prefetch``
each replay one seeded scenario under several configurations.  This
module owns what they share; a driver supplies its ``ModeOutcome``
fields, per-mode run loop, ``rows()``, ``dominates()`` and entry point.
The process names spawned here (``epoch.n{n}``, ``epoch``,
``pfs-epoch``) feed the EventTrace fingerprint.
"""

from __future__ import annotations

import os

from ..analysis import count_strip, degradation_dashboard, format_table
from ..baselines import build_hvac
from ..cluster import ClusterSpec, TESTING
from ..faults import FAULT_SPEC_OVERRIDES
from ..obs import compute_slo
from ..simcore import Environment, run_all

__all__ = [
    "Comparison",
    "FAULT_SPEC_OVERRIDES",
    "build",
    "counter_since",
    "drain_repair",
    "epoch",
    "fault_spec",
    "files",
    "mode_dashboard",
    "mode_log",
    "pfs_epoch",
    "render",
    "require_scale",
    "run_all",
    "slo_over",
    "strip_block",
    "table",
    "window_log",
]

def fault_spec(spec: ClusterSpec | None, **overrides) -> ClusterSpec:
    base = spec if spec is not None else TESTING
    return base.with_hvac(**{**FAULT_SPEC_OVERRIDES, **overrides})


def build(spec: ClusterSpec, n_nodes: int, seed: int, spans=None, trace=None,
          sanitizer=None):
    """A fresh ``(env, deployment, pfs)``."""
    env = Environment()
    if trace is not None:
        env.attach_trace(trace)
    if sanitizer is not None:
        env.attach_sanitizer(sanitizer)
    dep = build_hvac(env, spec, n_nodes, seed, spans=spans)
    return env, dep, dep.pfs


def files(n_files: int, file_size: int) -> list[tuple[str, int]]:
    return [(f"/pfs/ds/f{i:04d}", file_size) for i in range(n_files)]


def epoch(env, dep, n_nodes: int, files) -> float:
    """One epoch: every node reads every file through its HVAC client."""

    def reader(node):
        cli = dep.client(node)
        for path, size in files:
            yield from cli.read_file(path, size, node)

    procs = [env.process(reader(n), name=f"epoch.n{n}") for n in range(n_nodes)]
    return run_all(env, procs, "epoch")


def pfs_epoch(env, pfs, n_nodes: int, files) -> float:
    """The degradation bound: the same epoch read straight from the PFS."""

    def reader(node):
        for path, size in files:
            yield from pfs.read_file(path, size, node)

    return run_all(env, [env.process(reader(n)) for n in range(n_nodes)], "pfs-epoch")


def counter_since(dep, name: str):
    """A callable giving how much ``dep``'s counter ``name`` grew since now."""
    counter = dep.metrics.counter(name)
    start = counter.value
    return lambda: counter.value - start


def drain_repair(env, dep, max_seconds: float = 5.0) -> None:
    """Run the sim until every in-flight repair stream finishes."""
    if dep.repair is None:
        return
    deadline = env.now + max_seconds
    while dep.repair.in_flight > 0 and env.now < deadline:
        env.run(until=env.now + 1e-3)


def require_scale(who: str, n_nodes: int, min_nodes: int, windows: int) -> None:
    """The entry-point guard every comparison driver shares."""
    if n_nodes < min_nodes:
        raise ValueError(f"{who} needs >= {min_nodes} nodes")
    if windows < 1:
        raise ValueError(f"{who} needs windows >= 1, got {windows}")


def slo_over(rec, origin: float, horizon: float, windows: int):
    """``rec``'s SLO report on ``windows`` equal windows of [origin, horizon)."""
    window = max((horizon - origin) / windows, 1e-9)
    return compute_slo(rec, window, origin=origin, horizon=horizon)


def mode_log(outcomes, lines_of) -> str:
    """A determinism log: ``== mode ==`` then ``lines_of(outcome)``, per mode."""
    lines = []
    for mode, oc in outcomes.items():
        lines.append(f"== {mode} ==")
        lines.extend(lines_of(oc))
    return "\n".join(lines) + "\n"


def window_log(outcomes, windows_of) -> str:
    """A :func:`mode_log` of SLO windows: one ``[t0,t1) n= degraded= p99=``
    line per ``(prefix, window)`` of ``windows_of(slo)``."""
    return mode_log(outcomes, lambda oc: [] if oc.slo is None else [
        f"{prefix}[{w.t0:.9f},{w.t1:.9f}) n={w.n_reads} "
        f"degraded={w.degraded} p99={w.p99:.9f}"
        for prefix, w in windows_of(oc.slo)
    ])


def table(headers, rows, title: str) -> str:
    return format_table(headers, rows, title=title, float_fmt="{:.4f}")


def render(headers, rows, title: str, claim: str, dominates: bool, *blocks) -> str:
    """The mode table, the ``claim: yes/NO`` verdict, then every
    non-empty extra block (tables, the dashboard), blank-line separated."""
    out = [table(headers, rows, title), f"{claim}: {'yes' if dominates else 'NO'}"]
    out.extend(block for block in blocks if block)
    return "\n\n".join(out)


def strip_block(what: str, rows) -> str:
    """``label |strip|`` rows, ``rows`` being ``[(label, per-window counts)]``."""
    width = max((len(label) for label, _ in rows), default=0)
    lines = [f"-- {what} per window (count; '+'=10+) --"]
    lines.extend(f"{label.ljust(width)} |{count_strip(c)}|" for label, c in rows)
    return "\n".join(lines)


def mode_dashboard(outcomes, title: str, counts=None) -> str:
    """Degradation strips of every mode with an SLO report; ``counts``, a
    ``(what, rows)`` pair, adds a :func:`strip_block` under them."""
    reports = {mode: oc.slo for mode, oc in outcomes.items() if oc.slo is not None}
    dash = degradation_dashboard(reports, title=title, per_client=False)
    return dash + "\n\n" + strip_block(*counts) if counts else dash


class Comparison:
    """Base of a comparison result.  A subclass defines ``render()`` and
    ``logs()``, its determinism logs as ``{artifact name: (file name,
    text)}``; the report is written as ``{REPORT}.txt``."""

    REPORT = "report"

    def write_artifacts(self, outdir: str) -> dict[str, str]:
        """Write the report and every log; returns ``{artifact name: path}``."""
        os.makedirs(outdir, exist_ok=True)
        report = {self.REPORT: (f"{self.REPORT}.txt", self.render() + "\n")}
        paths: dict[str, str] = {}
        for key, (filename, text) in {**report, **self.logs()}.items():
            paths[key] = os.path.join(outdir, filename)
            with open(paths[key], "w", encoding="utf-8") as fh:
                fh.write(text)
        return paths
