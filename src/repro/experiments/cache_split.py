"""Figure 13: impact of local/remote cache split on HVAC(1×1).

The paper *manually controls* what share of the (cached) dataset sits
on the training node versus remote nodes and finds a negligible
difference — Mercury bulk transfers over Infiniband make remote NVMe
nearly as close as local.

Faithful to that methodology, this is a controlled microbenchmark, not
a full re-sharding training run: every rank owns a fixed shard of the
dataset (so the forced placement stays warm across epochs), reads it in
a fresh shuffled order each epoch with DL-style compute pacing, and the
*second* (fully cached) epoch is measured under each L%/R% split.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import format_table
from ..baselines import build_hvac
from ..cluster import ClusterSpec, SUMMIT
from ..dl import DatasetSpec, ModelSpec, SyntheticDataset
from ..simcore import Environment, RandomStreams, run_all
from .harness import Scale

__all__ = ["CacheSplitResult", "cache_split"]

DEFAULT_SPLITS = (1.0, 0.75, 0.5, 0.25, 0.0)


@dataclass
class CacheSplitResult:
    """Warm-epoch time per L%/R% configuration."""

    model_name: str
    n_nodes: int
    local_fractions: list[float]
    epoch_seconds: list[float] = field(default_factory=list)

    def max_relative_spread(self) -> float:
        """(max − min) / min over the splits — paper: 'negligible'."""
        lo, hi = min(self.epoch_seconds), max(self.epoch_seconds)
        return (hi - lo) / lo if lo > 0 else 0.0

    def render(self) -> str:
        rows = [
            [f"L{int(100 * f)}%/R{int(100 * (1 - f))}%", t]
            for f, t in zip(self.local_fractions, self.epoch_seconds)
        ]
        return format_table(
            ["split", "warm epoch (s)"],
            rows,
            title=(
                f"Fig 13 ({self.model_name}, {self.n_nodes} nodes): "
                "cached-epoch time vs local/remote split, HVAC(1x1)"
            ),
        )


def cache_split(
    model: ModelSpec,
    dataset_spec: DatasetSpec,
    scale: Scale,
    n_nodes: int = 512,
    batch_size: int = 80,
    local_fractions: tuple[float, ...] = DEFAULT_SPLITS,
    spec: ClusterSpec = SUMMIT,
    seed: int = 0,
) -> CacheSplitResult:
    """Warm-epoch time under forced L%/R% placements."""
    result = CacheSplitResult(
        model_name=model.name,
        n_nodes=n_nodes,
        local_fractions=list(local_fractions),
    )
    n_ranks = n_nodes * scale.procs_per_node
    sample = min(dataset_spec.n_train_files, n_ranks * scale.files_per_rank)
    per_sample_compute = 1.0 / model.samples_per_sec_per_gpu

    for fraction in local_fractions:
        env = Environment()
        dataset, _ = SyntheticDataset.scaled(dataset_spec, sample, seed=seed)
        dep = build_hvac(env, spec, n_nodes, seed, local_fraction=fraction)
        rand = RandomStreams(seed)
        sim_batch = scale.sim_batch_size

        def rank_epoch(rank: int, epoch: int):
            node = rank // scale.procs_per_node
            client = dep.client(node)
            shard = list(range(rank, len(dataset), n_ranks))  # fixed shard
            order = rand.child(f"r{rank}e{epoch}").shuffled("o", len(shard))
            for start in range(0, len(order), sim_batch):
                chunk = order[start : start + sim_batch]
                for j in chunk:
                    idx = shard[int(j)]
                    yield from client.read_file(
                        dataset.path(idx), dataset.size(idx), node
                    )
                yield env.timeout(len(chunk) * per_sample_compute)

        def epoch(e: int) -> float:
            procs = [
                env.process(rank_epoch(r, e), name=f"r{r}") for r in range(n_ranks)
            ]
            return run_all(env, procs, "epoch")

        epoch(0)  # warm-up: populate the forced placement
        result.epoch_seconds.append(epoch(1))  # measured: fully cached
        dep.teardown()
    return result
