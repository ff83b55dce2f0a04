"""Ablation: segment-level caching for large files (§III-E / conclusion).

The paper caches at file granularity and notes that "to ensure an even
load-distribution among HVAC servers for datasets with highly skewed
file sizes, segment-level caching can be implemented"; the conclusion
lists "data layout options for large files across multiple nodes" as
future work.  This bench measures both effects of the implemented
extension: warm read latency for DeepCAM-sized files, and byte-level
load balance under a skewed dataset.
"""

import pytest

from repro.analysis import format_table, gini
from repro.baselines import build_hvac
from repro.cluster import SUMMIT
from repro.simcore import Environment, run_all


def _read_all(env, dep, files, n_nodes):
    def reader(node):
        cli = dep.client(node)
        for path, size in files:
            yield from cli.read_file(path, size, node)

    procs = [env.process(reader(n)) for n in range(n_nodes)]
    return run_all(env, procs, "sweep")


def _run():
    n_nodes = 8
    big_files = [(f"/d/vol{i}", 96 * 1024 * 1024) for i in range(12)]
    out = {}
    for label, hvac_kw in (
        ("file-granular", {}),
        ("segment-striped", dict(
            stripe_large_files=True,
            stripe_threshold=32 * 1024 * 1024,
            stripe_segment=16 * 1024 * 1024,
        )),
    ):
        env = Environment()
        spec = SUMMIT.with_hvac(**hvac_kw)
        dep = build_hvac(env, spec, n_nodes)
        _read_all(env, dep, big_files, n_nodes)          # populate
        warm = _read_all(env, dep, big_files, n_nodes)   # measure
        loads = [s.cache.used_bytes for s in dep.servers]
        out[label] = (warm, gini(loads))
        dep.teardown()
    return out


@pytest.mark.benchmark(group="ablation")
def test_ablation_segment_striping(benchmark, capsys):
    out = benchmark.pedantic(_run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table(
            ["layout", "warm sweep (s)", "byte-load gini"],
            [[k, t, g] for k, (t, g) in out.items()],
            title="Ablation: segment-level caching for 96 MiB files, 8 nodes",
        ))

    t_plain, g_plain = out["file-granular"]
    t_striped, g_striped = out["segment-striped"]
    # Parallel segment fetches cut warm read time for large files...
    assert t_striped < t_plain
    # ...and spread bytes more evenly across servers.
    assert g_striped <= g_plain
