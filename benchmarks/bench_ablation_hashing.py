"""Ablation: hash scheme (mod-N vs consistent) and replication (§III-E/H).

Two design choices DESIGN.md calls out:

* **Hash scheme** — mod-N (the prototype) vs a consistent-hash ring:
  identical balance in steady state, but consistent hashing moves ~1/n
  of files on allocation growth where mod-N moves almost all.
* **Replication factor** — the paper's proposed future work: r=2 doubles
  cache traffic on insert but keeps serving through a node failure with
  no PFS fallback.
"""

import pytest

from repro.analysis import format_table, gini
from repro.baselines import build_hvac
from repro.cluster import TESTING
from repro.core import ConsistentHashPlacement, ModuloPlacement, placement_histogram
from repro.simcore import Environment


def _run_hash_comparison():
    paths = [f"/img/{i}.jpg" for i in range(60_000)]
    out = {}
    for name, cls in (("mod", ModuloPlacement), ("consistent", ConsistentHashPlacement)):
        p64 = cls(64)
        p65 = cls(65)
        counts = placement_histogram(p64, paths)
        moved = sum(p64.home(x) != p65.home(x) for x in paths) / len(paths)
        out[name] = (gini(counts), moved)
    return out


def _run_replication():
    results = {}
    for repl in (1, 2):
        env = Environment()
        spec = TESTING.with_hvac(replication_factor=repl)
        dep = build_hvac(env, spec, 4)
        files = [(f"/d/f{i}", 20_000) for i in range(40)]

        def epoch(results_out):
            for node in range(4):
                cli = dep.client(node)
                for path, size in files:
                    yield from cli.read_file(path, size, node)

        env.run(env.process(epoch(None)))
        dep.fail_node(1)
        env.run(env.process(epoch(None)))
        results[repl] = dep.metrics.counter("hvac.client_pfs_fallback").value
        dep.teardown()
    return results


@pytest.mark.benchmark(group="ablation")
def test_ablation_hash_scheme(benchmark, capsys):
    out = benchmark.pedantic(_run_hash_comparison, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table(
            ["scheme", "gini @64 servers", "files moved on +1 server"],
            [[k, g, m] for k, (g, m) in out.items()],
            title="Ablation: hash scheme (balance & reshuffle cost)",
        ))
    # Both balance well...
    assert out["mod"][0] < 0.1
    assert out["consistent"][0] < 0.15
    # ...but only consistent hashing avoids mass movement on growth.
    assert out["mod"][1] > 0.8
    assert out["consistent"][1] < 0.25


@pytest.mark.benchmark(group="ablation")
def test_ablation_replication_failover(benchmark, capsys):
    fallbacks = benchmark.pedantic(_run_replication, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print(format_table(
            ["replication", "PFS fallbacks after node failure"],
            [[r, n] for r, n in fallbacks.items()],
            title="Ablation: replication factor vs failure degradation",
        ))
    # r=1: a failed node forces PFS fallbacks; r=2: replicas absorb it.
    assert fallbacks[1] > 0
    assert fallbacks[2] == 0
