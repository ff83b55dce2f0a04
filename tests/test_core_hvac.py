"""Integration tests for HVAC client/server/deployment over the full stack."""

import pytest

from repro.cluster import Allocation, TESTING
from repro.core import HVACDeployment
from repro.simcore import Environment
from repro.storage import GPFS


def build(n_nodes=4, instances=1, spec=None, seed=0, **hvac_overrides):
    env = Environment()
    spec = (spec or TESTING).with_hvac(
        instances_per_node=instances, **hvac_overrides
    )
    alloc = Allocation(env, spec, n_nodes=n_nodes)
    pfs = GPFS(
        env,
        spec.pfs,
        n_client_nodes=n_nodes,
        client_link_bandwidth=spec.network.nic_bandwidth,
    )
    dep = HVACDeployment(alloc, pfs, seed=seed)
    return env, dep, pfs


def read_all(env, dep, files, node_ids):
    """Run one 'epoch': every listed node reads every file; returns per-node times."""
    times = {}

    def reader(node_id):
        cli = dep.client(node_id)
        t0 = env.now
        for path, size in files:
            yield from cli.read_file(path, size, node_id)
        times[node_id] = env.now - t0

    procs = [env.process(reader(n)) for n in node_ids]

    def waiter():
        for p in procs:
            yield p

    env.run(env.process(waiter()))
    return times


FILES = [(f"/data/f{i}", 40_000) for i in range(30)]


class TestBasicOperation:
    def test_first_epoch_populates_cache(self):
        env, dep, pfs = build()
        read_all(env, dep, FILES, [0])
        assert dep.total_cached_files == len(FILES)
        assert dep.total_cached_bytes == sum(s for _, s in FILES)

    def test_second_epoch_serves_from_cache(self):
        env, dep, pfs = build()
        read_all(env, dep, FILES, [0])
        opens_before = pfs.metrics.counter("gpfs.opens").value
        read_all(env, dep, FILES, [0])
        # No new PFS traffic in the cached epoch.
        assert pfs.metrics.counter("gpfs.opens").value == opens_before
        assert dep.metrics.counter("hvac.cache_hits").value == len(FILES)

    def test_cached_epoch_is_faster(self):
        env, dep, _ = build()
        t1 = read_all(env, dep, FILES, [0])[0]
        t2 = read_all(env, dep, FILES, [0])[0]
        assert t2 < t1 / 2

    def test_each_file_fetched_from_pfs_once(self):
        """The shared-queue mutex prevents repeated copies (paper §III-D)."""
        env, dep, pfs = build(n_nodes=4)
        read_all(env, dep, FILES, [0, 1, 2, 3])
        assert pfs.metrics.counter("gpfs.opens").value == len(FILES)
        assert dep.metrics.counter("hvac.dedup_waits").value > 0

    def test_files_distributed_across_servers(self):
        env, dep, _ = build(n_nodes=4)
        read_all(env, dep, FILES, [0])
        per_server = [s.cache.n_files for s in dep.servers]
        assert sum(per_server) == len(FILES)
        assert sum(1 for c in per_server if c > 0) >= 3  # spread out

    def test_multiple_instances_per_node(self):
        env, dep, _ = build(n_nodes=2, instances=4)
        assert dep.n_servers == 8
        assert len(dep.servers_on_node(1)) == 4
        read_all(env, dep, FILES, [0, 1])
        assert dep.total_cached_files == len(FILES)

    def test_client_is_cached_per_node(self):
        env, dep, _ = build()
        assert dep.client(0) is dep.client(0)
        assert dep.client(0) is not dep.client(1)


class TestInstancesReduceOverhead:
    def test_more_instances_faster_cached_epoch(self):
        """Fig 9b mechanism: instances divide the serial mover overhead."""
        many_files = [(f"/d/f{i}", 20_000) for i in range(60)]
        times = {}
        for inst in (1, 4):
            env, dep, _ = build(n_nodes=2, instances=inst)
            read_all(env, dep, many_files, [0, 1])  # warm
            t = read_all(env, dep, many_files, [0, 1])
            times[inst] = max(t.values())
        assert times[4] < times[1]


class TestEvictionUnderPressure:
    def test_dataset_larger_than_cache_still_served(self):
        # TESTING NVMe = 10 MB/node; 0.9 fraction → 9 MB budget.
        big_files = [(f"/d/g{i}", 1_000_000) for i in range(25)]  # 25 MB
        env, dep, pfs = build(n_nodes=2)
        read_all(env, dep, big_files, [0])
        assert dep.total_cached_bytes <= 2 * 9_000_000
        evictions = sum(
            c.value
            for name, c in dep.metrics.counters.items()
            if name.endswith("evictions")
        )
        assert evictions > 0
        # Re-reading works (partial hits, misses re-fetch).
        read_all(env, dep, big_files, [0])

    def test_minio_policy_stable_under_pressure(self):
        big_files = [(f"/d/g{i}", 1_000_000) for i in range(25)]
        env, dep, _ = build(n_nodes=2, eviction_policy="minio")
        read_all(env, dep, big_files, [0])
        cached_first = {
            p for p, _ in big_files
            if any(s.cache.contains(p) for s in dep.servers)
        }
        read_all(env, dep, big_files, [0])
        cached_second = {
            p for p, _ in big_files
            if any(s.cache.contains(p) for s in dep.servers)
        }
        assert cached_first == cached_second


class TestFailover:
    def test_node_failure_falls_back_to_pfs_without_replication(self):
        env, dep, pfs = build(n_nodes=2)
        read_all(env, dep, FILES, [0])
        dep.fail_node(1)
        # Everything still readable — degraded, not dead (§III-H goal).
        read_all(env, dep, FILES, [0])
        assert dep.metrics.counter("hvac.client_pfs_fallback").value > 0

    def test_replication_serves_through_failure(self):
        env, dep, pfs = build(n_nodes=4, replication_factor=2)
        read_all(env, dep, FILES, [0, 1, 2, 3])
        before = dep.metrics.counter("hvac.client_pfs_fallback").value
        dep.fail_node(2)
        read_all(env, dep, FILES, [0])
        # Failover to replicas — never forced to the PFS-direct path.
        assert dep.metrics.counter("hvac.client_pfs_fallback").value == before

    def test_recovery_restores_service(self):
        env, dep, _ = build(n_nodes=2)
        read_all(env, dep, FILES, [0])
        dep.fail_node(0)
        dep.recover_node(0)
        for s in dep.servers_on_node(0):
            assert s.alive
            assert s.cache.n_files == 0  # cold restart
        read_all(env, dep, FILES, [0])


class TestTeardown:
    def test_teardown_purges_everything(self):
        env, dep, _ = build(n_nodes=2)
        read_all(env, dep, FILES, [0])
        assert dep.total_cached_bytes > 0
        dep.teardown()
        assert dep.total_cached_bytes == 0
        for node in dep.allocation:
            assert node.nvme.used_bytes == 0

    def test_placement_size_mismatch_rejected(self):
        from repro.core import ModuloPlacement

        env = Environment()
        alloc = Allocation(env, TESTING, n_nodes=2)
        pfs = GPFS(env, TESTING.pfs, 2, 1e9)
        with pytest.raises(ValueError):
            HVACDeployment(alloc, pfs, placement=ModuloPlacement(99))


class TestLocalitySplit:
    def test_local_split_places_locally(self):
        env = Environment()
        alloc = Allocation(env, TESTING, n_nodes=4)
        pfs = GPFS(env, TESTING.pfs, 4, 1e9)
        dep = HVACDeployment.with_locality_split(alloc, pfs, local_fraction=1.0)
        read_all(env, dep, FILES, [2])
        # With 100% locality every file ends up on node 2's servers.
        for s in dep.servers:
            if s.node_id != 2:
                assert s.cache.n_files == 0

    def test_hit_rate_accounting(self):
        env, dep, _ = build()
        read_all(env, dep, FILES, [0])
        assert dep.hit_rate() == 0.0
        read_all(env, dep, FILES, [0])
        assert dep.hit_rate() == pytest.approx(0.5)


class TestGranularAPI:
    def test_open_read_close_sequence(self):
        env, dep, _ = build()
        cli = dep.client(0)
        got = []

        def proc():
            h = yield from cli.open("/data/x", 5000, 0)
            n = yield from cli.read(h, 5000)
            yield from cli.close(h)
            got.append((n, h.closed))

        env.run(env.process(proc()))
        assert got == [(5000, True)]

    def test_read_after_close_raises(self):
        env, dep, _ = build()
        cli = dep.client(0)

        def proc():
            h = yield from cli.open("/data/x", 100, 0)
            yield from cli.close(h)
            yield from cli.read(h, 100)

        with pytest.raises(ValueError):
            env.run(env.process(proc()))

    def test_partial_reads_accumulate(self):
        env, dep, _ = build()
        cli = dep.client(0)
        got = []

        def proc():
            h = yield from cli.open("/data/x", 100, 0)
            n1 = yield from cli.read(h, 60)
            n2 = yield from cli.read(h, 60)
            got.append((n1, n2, h.offset))
            yield from cli.close(h)

        env.run(env.process(proc()))
        assert got == [(60, 40, 100)]
