"""Telemetry subsystem: sim-clock spans, metric scopes, SLO rollups.

Three layers, all layered on the deterministic sim clock:

* :mod:`.spans` — a zero-wall-clock span tracer.  One ``list.append``
  per event on the hot path, no kernel interaction, so enabling spans
  never changes the event-stream fingerprint of a run.
* metric scopes — hierarchical, histogram-capable views over
  :class:`repro.simcore.MetricRegistry` (see ``simcore/monitor.py``);
  HVAC clients and servers count deployment-wide ``hvac.`` aggregates,
  while caches, RPC endpoints, storage, NVMe and failure detectors
  record under their own dotted scope.
* :mod:`.slo` — rolls spans into per-client / per-server SLO
  windows: p50/p95/p99 read latency, degraded-read fraction, and
  bytes-by-path (NVMe-local / remote-RPC / PFS-fallback).

The ``repro slo`` CLI subcommand and ``analysis/dashboard.py`` render
these into the degradation dashboard.
"""

from .slo import EntitySLO, ROUTES, SLOReport, SLOWindow, bucket_times, compute_slo
from .spans import Span, SpanRecorder

__all__ = [
    "EntitySLO",
    "ROUTES",
    "SLOReport",
    "SLOWindow",
    "Span",
    "SpanRecorder",
    "bucket_times",
    "compute_slo",
]
