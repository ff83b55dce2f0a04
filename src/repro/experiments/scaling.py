"""Figures 8 & 9: training time vs node count, and normalized views.

Fig 8 (a–d): total training time for each DL application across a node
sweep, for GPFS / HVAC(1×1, 2×1, 4×1) / XFS-on-NVMe.

Fig 9a: HVAC improvement normalized to GPFS (the paper reports 7–25% up
to 256 nodes, >50% at 512/1024).
Fig 9b: HVAC overhead normalized to XFS-on-NVMe (≈25% / 14% / 9% for
1×1 / 2×1 / 4×1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis import format_series
from ..cluster import ClusterSpec, SUMMIT
from ..dl import DatasetSpec, ModelSpec
from ..model import AnalyticModel
from .harness import Scale, repeat_training, resolve_setup

__all__ = [
    "NodeScalingResult",
    "node_scaling",
    "node_scaling_analytic",
    "normalized_to_gpfs",
    "overhead_vs_xfs",
]

DEFAULT_SYSTEMS = ("gpfs", "hvac1", "hvac2", "hvac4", "xfs")


@dataclass
class NodeScalingResult:
    """Fig 8 panel data: total minutes per system per node count."""

    model_name: str
    dataset_name: str
    epochs: int
    node_counts: list[int]
    total_minutes: dict[str, list[float]] = field(default_factory=dict)
    ci_minutes: dict[str, list[float]] = field(default_factory=dict)

    def render(self) -> str:
        return format_series(
            "nodes",
            self.node_counts,
            self.total_minutes,
            title=(
                f"Fig 8 ({self.model_name}/{self.dataset_name}): "
                f"training time, minutes [{self.epochs} epochs]"
            ),
        )


def node_scaling(
    model: ModelSpec,
    dataset_spec: DatasetSpec,
    node_counts: list[int],
    scale: Scale,
    spec: ClusterSpec = SUMMIT,
    systems: tuple[str, ...] = DEFAULT_SYSTEMS,
    total_epochs: int = 10,
    batch_size: int = 0,
) -> NodeScalingResult:
    """Event-driven Fig 8 sweep (simulate cold+warm, extrapolate)."""
    result = NodeScalingResult(
        model_name=model.name,
        dataset_name=dataset_spec.name,
        epochs=total_epochs,
        node_counts=list(node_counts),
    )
    for system in systems:
        label = resolve_setup(system).label
        means, cis = [], []
        for n_nodes in node_counts:
            ci, _ = repeat_training(
                system,
                model,
                dataset_spec,
                n_nodes,
                scale,
                total_epochs=total_epochs,
                spec=spec,
                batch_size=batch_size,
            )
            means.append(ci.mean / 60.0)
            cis.append(ci.half_width / 60.0)
        result.total_minutes[label] = means
        result.ci_minutes[label] = cis
    return result


def node_scaling_analytic(
    model: ModelSpec,
    dataset_spec: DatasetSpec,
    node_counts: list[int],
    spec: ClusterSpec = SUMMIT,
    total_epochs: int = 10,
    procs_per_node: int = 6,
    batch_size: int = 0,
) -> NodeScalingResult:
    """Closed-form Fig 8 sweep — full 1→1024 range, instant."""
    result = NodeScalingResult(
        model_name=model.name,
        dataset_name=dataset_spec.name,
        epochs=total_epochs,
        node_counts=list(node_counts),
    )
    labels_instances = [("HVAC(1x1)", 1), ("HVAC(2x1)", 2), ("HVAC(4x1)", 4)]
    gpfs, xfs = [], []
    hvac: dict[str, list[float]] = {label: [] for label, _ in labels_instances}
    for n_nodes in node_counts:
        m = AnalyticModel(
            spec, model, dataset_spec, n_nodes,
            procs_per_node=procs_per_node,
            batch_size=batch_size or model.default_batch_size,
        )
        g = m.predict_gpfs().epoch_seconds
        x = m.predict_xfs().epoch_seconds
        gpfs.append(total_epochs * g / 60.0)
        xfs.append(total_epochs * x / 60.0)
        for label, inst in labels_instances:
            cold = m.predict_hvac_cold(inst).epoch_seconds
            warm = m.predict_hvac(inst).epoch_seconds
            hvac[label].append((cold + (total_epochs - 1) * warm) / 60.0)
    result.total_minutes["GPFS"] = gpfs
    for label, _ in labels_instances:
        result.total_minutes[label] = hvac[label]
    result.total_minutes["XFS-on-NVMe"] = xfs
    return result


def normalized_to_gpfs(result: NodeScalingResult) -> dict[str, list[float]]:
    """Fig 9a: percent improvement of each HVAC variant over GPFS."""
    gpfs = np.asarray(result.total_minutes["GPFS"])
    out = {}
    for label, series in result.total_minutes.items():
        if not label.startswith("HVAC"):
            continue
        out[label] = (100.0 * (1.0 - np.asarray(series) / gpfs)).tolist()
    return out


def overhead_vs_xfs(result: NodeScalingResult) -> dict[str, list[float]]:
    """Fig 9b: percent overhead of each HVAC variant vs XFS-on-NVMe."""
    xfs = np.asarray(result.total_minutes["XFS-on-NVMe"])
    out = {}
    for label, series in result.total_minutes.items():
        if not label.startswith("HVAC"):
            continue
        out[label] = (100.0 * (np.asarray(series) / xfs - 1.0)).tolist()
    return out
