"""Figure 12: impact of batch size on training time.

The paper's finding is a *negative* result worth reproducing: growing
the batch from 4 to 128 improves training time only ~2–4% (fewer
round-trips amortize per-iteration costs), and the trend is the same on
GPFS, HVAC, and XFS — batch size is not where the I/O win is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import format_series
from ..cluster import ClusterSpec, SUMMIT
from ..dl import DatasetSpec, ModelSpec
from .harness import Scale, resolve_setup, run_training

__all__ = ["BatchSizeResult", "batch_size_scaling"]


@dataclass
class BatchSizeResult:
    """Fig 12 panel: total minutes per system per batch size."""

    model_name: str
    n_nodes: int
    epochs: int
    batch_sizes: list[int]
    total_minutes: dict[str, list[float]] = field(default_factory=dict)

    def improvement_range(self, label: str) -> float:
        """Percent improvement from the smallest to the largest batch."""
        series = self.total_minutes[label]
        return 100.0 * (1.0 - series[-1] / series[0])

    def render(self) -> str:
        return format_series(
            "batch",
            self.batch_sizes,
            self.total_minutes,
            title=(
                f"Fig 12 ({self.model_name}, {self.n_nodes} nodes, "
                f"{self.epochs} epochs): training time vs batch size, minutes"
            ),
        )


def batch_size_scaling(
    model: ModelSpec,
    dataset_spec: DatasetSpec,
    batch_sizes: list[int],
    scale: Scale,
    n_nodes: int = 512,
    total_epochs: int = 80,
    spec: ClusterSpec = SUMMIT,
    systems: tuple[str, ...] = ("gpfs", "hvac1", "hvac2", "hvac4", "xfs"),
) -> BatchSizeResult:
    result = BatchSizeResult(
        model_name=model.name,
        n_nodes=n_nodes,
        epochs=total_epochs,
        batch_sizes=list(batch_sizes),
    )
    for system in systems:
        label = resolve_setup(system).label
        series = []
        for batch in batch_sizes:
            res = run_training(
                system,
                model,
                dataset_spec,
                n_nodes,
                scale,
                spec=spec,
                batch_size=batch,
            )
            series.append(res.extrapolate_total(total_epochs) / 60.0)
        result.total_minutes[label] = series
    return result
