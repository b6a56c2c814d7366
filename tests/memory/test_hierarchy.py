"""Tests for the cache hierarchy walk."""

import pytest

from repro.memory.cache import CacheConfig
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy


def tiny_hierarchy(l1_latency=2, l2_latency=6, l3_latency=15, memory=50):
    return MemoryHierarchy(
        HierarchyConfig(
            l1d=CacheConfig(name="L1D", size_bytes=256, ways=2, hit_latency=l1_latency, mshrs=4),
            l2=CacheConfig(name="L2", size_bytes=1024, ways=2, hit_latency=l2_latency, mshrs=4),
            l3=CacheConfig(name="L3", size_bytes=4096, ways=2, hit_latency=l3_latency, mshrs=4),
            memory_latency=memory,
            prefetch_degree=0,
        )
    )


class TestLatencies:
    def test_cold_miss_pays_all_levels(self):
        hierarchy = tiny_hierarchy()
        ready = hierarchy.load_access(pc=0x400, address=0x10000, cycle=0)
        # Tag checks at each level + memory: 2 + 6 + 15 + 50
        assert ready == 2 + 6 + 15 + 50

    def test_second_access_is_l1_hit(self):
        hierarchy = tiny_hierarchy()
        hierarchy.load_access(0x400, 0x10000, 0)
        ready = hierarchy.load_access(0x400, 0x10000, 100)
        assert ready == 102

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = tiny_hierarchy()
        hierarchy.load_access(0x400, 0x10000, 0)
        # Evict from tiny L1 (2 sets x 2 ways): lines 128 bytes apart all map
        # to L1 set 0 but spread across the L2's 8 sets.
        for i in range(1, 3):
            hierarchy.load_access(0x400, 0x10000 + i * 128, 0)
        assert not hierarchy.l1d.probe(0x10000)
        assert hierarchy.l2.probe(0x10000)
        ready = hierarchy.load_access(0x400, 0x10000, 1000)
        assert ready == 1000 + 2 + 6  # L1 tag check + L2 hit

    def test_store_fills_like_load(self):
        hierarchy = tiny_hierarchy()
        hierarchy.store_access(0x20000, 0)
        assert hierarchy.l1d.probe(0x20000)

    def test_mshr_merge_across_requests(self):
        hierarchy = tiny_hierarchy()
        line_a = 0x30000
        first = hierarchy.load_access(0x400, line_a, 0)
        assert first == 2 + 6 + 15 + 50
        # Evict A from the tiny L1 while its fill is still in flight: lines
        # 128 bytes apart share L1 set 0 but land in distinct L2/L3 sets.
        hierarchy.load_access(0x400, line_a + 128, 1)
        hierarchy.load_access(0x400, line_a + 256, 1)
        assert not hierarchy.l1d.probe(line_a)
        lower = (hierarchy.l2.stats, hierarchy.l3.stats)
        lower_before = [(stats.accesses, stats.misses) for stats in lower]
        # A second miss on A rides along with the outstanding fill: it
        # completes with that fill, never descends and refills nothing.
        ready = hierarchy.load_access(0x400, line_a, 10)
        assert ready == first
        assert hierarchy.l1d.stats.mshr_merges == 1
        assert not hierarchy.l1d.probe(line_a)
        assert [(stats.accesses, stats.misses) for stats in lower] == lower_before

    def test_mshr_ride_along_with_out_of_order_cycles(self):
        # The detailed model issues loads out of order, so miss cycles are
        # not monotonic. A fill retired by a later-cycle miss stays retired
        # for an earlier-cycle one; a fill not yet retired still merges.
        merging = tiny_hierarchy()
        assert merging.load_access(0x400, 0x30000, 100) == 173
        merging.load_access(0x400, 0x30000 + 128, 120)
        merging.load_access(0x400, 0x30000 + 256, 120)
        assert merging.load_access(0x400, 0x30000, 50) == 173
        assert merging.l1d.stats.mshr_merges == 1

        retired = tiny_hierarchy()
        assert retired.load_access(0x400, 0x30000, 100) == 173
        retired.load_access(0x400, 0x30000 + 128, 200)  # retires A's fills
        retired.load_access(0x400, 0x30000 + 256, 200)
        # Earlier than A's fill, but its MSHR is gone: an L2 hit instead.
        assert retired.load_access(0x400, 0x30000, 150) == 150 + 2 + 6
        assert retired.l1d.stats.mshr_merges == 0
        assert retired.l1d.probe(0x30000)


class TestPrefetcherIntegration:
    def test_stride_stream_installs_lines(self):
        config = HierarchyConfig(
            l1d=CacheConfig(name="L1D", size_bytes=4096, ways=4, hit_latency=2, mshrs=8),
            l2=CacheConfig(name="L2", size_bytes=16384, ways=4, hit_latency=6, mshrs=8),
            l3=CacheConfig(name="L3", size_bytes=65536, ways=4, hit_latency=15, mshrs=8),
            memory_latency=50,
            prefetch_degree=2,
        )
        hierarchy = MemoryHierarchy(config)
        for i in range(6):
            hierarchy.load_access(0x400, 0x50000 + i * 64, cycle=i * 100)
        # After the stride is confident, the line ahead is already present.
        assert hierarchy.l1d.probe(0x50000 + 7 * 64)
        assert hierarchy.stats.prefetches > 0

    def test_prefetch_noop_when_present(self):
        hierarchy = tiny_hierarchy()
        hierarchy.load_access(0x400, 0x0, 0)
        fills_before = hierarchy.l1d.stats.prefetch_fills
        hierarchy.prefetch(0x0, 10)
        assert hierarchy.l1d.stats.prefetch_fills == fills_before


class TestPresets:
    def test_default_is_table1(self):
        config = HierarchyConfig()
        assert config.l1d.size_bytes == 48 * 1024
        assert config.l1d.ways == 12
        assert config.l1d.hit_latency == 5
        assert config.l2.size_bytes == 1280 * 1024
        assert config.l3.size_bytes == 12 * 1024 * 1024
        assert config.memory_latency == 100
        assert config.prefetch_degree == 3

    def test_nehalem_smaller(self):
        nehalem = HierarchyConfig.nehalem_like()
        default = HierarchyConfig()
        assert nehalem.l1d.size_bytes < default.l1d.size_bytes
        assert nehalem.l2.size_bytes < default.l2.size_bytes
