"""MDTest: the metadata/transaction benchmark of paper §II-C (Figs 3–4).

MDTest is an MPI program where every rank performs ``<open, read,
close>`` transactions on (pre-created) files and the aggregate
transactions/second is reported.  The paper runs it with 32 KB files
(metadata-bound regime) and 8 MB files (bandwidth-bound regime) to show
the widening gap between GPFS and node-local XFS as nodes scale.

Ranks here loop for a fixed measurement window over private file sets,
mirroring MDTest's unique-directory-per-rank default (no shared-file
contention — the contention that matters is inside the storage system).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator

from ..simcore import Environment, run_all
from ..storage.base import FileBackend

__all__ = ["MDTestConfig", "MDTestResult", "run_mdtest"]


@dataclass(frozen=True)
class MDTestConfig:
    """One MDTest invocation."""

    n_nodes: int
    ranks_per_node: int = 6
    file_size: int = 32 * 1024
    files_per_rank: int = 32
    #: measurement window; ranks that finish their files early re-loop
    #: until the window closes (MDTest -W style stonewalling)
    window_seconds: float = 0.0  # 0 → single pass over files_per_rank

    def __post_init__(self):
        if self.n_nodes < 1 or self.ranks_per_node < 1:
            raise ValueError("need at least one rank")
        if self.file_size < 1 or self.files_per_rank < 1:
            raise ValueError("file_size and files_per_rank must be >= 1")

    @property
    def n_ranks(self) -> int:
        return self.n_nodes * self.ranks_per_node


@dataclass
class MDTestResult:
    """Aggregate outcome of one run."""

    config: MDTestConfig
    system_label: str
    transactions: int
    elapsed: float

    @property
    def tx_per_sec(self) -> float:
        return self.transactions / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def read_bandwidth(self) -> float:
        """Aggregate bytes/s delivered."""
        return self.transactions * self.config.file_size / self.elapsed


def run_mdtest(
    env: Environment,
    config: MDTestConfig,
    backend_for_node: Callable[[int], FileBackend],
    system_label: str = "storage",
) -> MDTestResult:
    """Execute MDTest; returns aggregate transactions/second."""
    done_counts = [0] * config.n_ranks
    t0 = env.now
    deadline = t0 + config.window_seconds if config.window_seconds > 0 else None

    def rank_proc(rank: int) -> Generator:
        node_id = rank // config.ranks_per_node
        backend = backend_for_node(node_id)
        while True:
            for i in range(config.files_per_rank):
                path = f"/gpfs/mdtest/rank{rank}/file{i}"
                yield from backend.read_file(path, config.file_size, node_id)
                done_counts[rank] += 1
                if deadline is not None and env.now >= deadline:
                    return
            if deadline is None:
                return

    procs = [
        env.process(rank_proc(r), name=f"mdtest.r{r}") for r in range(config.n_ranks)
    ]
    elapsed = run_all(env, procs, "mdtest")
    return MDTestResult(
        config=config,
        system_label=system_label,
        transactions=sum(done_counts),
        elapsed=elapsed,
    )
