"""Tests for the set-associative cache model."""

import random
import zlib

import pytest

from repro.memory.cache import Cache, CacheConfig, CacheStats
from tests.reference_models import LRUState


def small_cache(ways=2, sets=4, latency=3, mshrs=2):
    return Cache(
        CacheConfig(
            name="test",
            size_bytes=ways * sets * 64,
            ways=ways,
            line_bytes=64,
            hit_latency=latency,
            mshrs=mshrs,
        )
    )


class TestConfig:
    def test_geometry(self):
        config = CacheConfig(name="l1", size_bytes=48 * 1024, ways=12, hit_latency=5)
        assert config.num_sets == 64
        assert config.offset_bits == 6

    def test_indivisible_size_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(name="bad", size_bytes=1000, ways=3)

    def test_nonpow2_line_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(name="bad", size_bytes=960, ways=1, line_bytes=60)

    def test_bad_latency(self):
        with pytest.raises(ValueError):
            CacheConfig(name="bad", size_bytes=128, ways=1, line_bytes=64, hit_latency=0)


class TestLookup:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        hit, _ = cache.lookup(0x1000, cycle=0)
        assert not hit
        cache.fill(0x1000)
        hit, ready = cache.lookup(0x1000, cycle=10)
        assert hit
        assert ready == 13  # cycle + hit latency

    def test_same_line_offsets_hit(self):
        cache = small_cache()
        cache.fill(0x1000)
        assert cache.probe(0x1038)  # same 64B line
        assert not cache.probe(0x1040)  # next line

    def test_lru_eviction(self):
        cache = small_cache(ways=2, sets=1)
        cache.fill(0x0)
        cache.fill(0x40)
        cache.fill(0x80)  # evicts 0x0 (LRU)
        assert not cache.probe(0x0)
        assert cache.probe(0x40)
        assert cache.probe(0x80)

    def test_touch_refreshes_lru(self):
        cache = small_cache(ways=2, sets=1)
        cache.fill(0x0)
        cache.fill(0x40)
        cache.lookup(0x0, cycle=0)  # 0x0 becomes MRU
        cache.fill(0x80)  # evicts 0x40
        assert cache.probe(0x0)
        assert not cache.probe(0x40)

    def test_stats(self):
        cache = small_cache()
        cache.lookup(0x0, 0)
        cache.fill(0x0)
        cache.lookup(0x0, 0)
        assert cache.stats.accesses == 2
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.miss_rate == pytest.approx(0.5)


class TestMSHRs:
    def test_merge_into_outstanding_fill(self):
        cache = small_cache(mshrs=2)
        line = cache.line_address(0x1000)
        cache.register_fill(line, ready_cycle=100)
        start, merged = cache.miss_start_cycle(line, cycle=10)
        assert merged == 100
        assert cache.stats.mshr_merges == 1

    def test_stall_when_full(self):
        cache = small_cache(mshrs=2)
        cache.register_fill(1, ready_cycle=50)
        cache.register_fill(2, ready_cycle=80)
        start, merged = cache.miss_start_cycle(3, cycle=10)
        assert merged is None
        assert start == 50  # waits for the earliest MSHR to free
        assert cache.stats.mshr_stalls == 1

    def test_prune_frees_mshrs(self):
        cache = small_cache(mshrs=1)
        cache.register_fill(1, ready_cycle=20)
        start, merged = cache.miss_start_cycle(2, cycle=30)  # fill already done
        assert merged is None
        assert start == 30

    def test_free_mshr_no_delay(self):
        cache = small_cache(mshrs=4)
        start, merged = cache.miss_start_cycle(9, cycle=7)
        assert (start, merged) == (7, None)


class _ReferenceCache:
    """The former set layout, kept as an oracle: one tag slot per way with
    recency in an :class:`LRUState`, and MSHRs retired by a full scan."""

    def __init__(self, config):
        self.config = config
        self.stats = CacheStats()
        self._sets = {}
        self._mshrs = {}

    def _slots(self, address):
        line = address // self.config.line_bytes
        index = line % self.config.num_sets
        if index not in self._sets:
            self._sets[index] = ([None] * self.config.ways, LRUState(self.config.ways))
        return line, self._sets[index]

    def probe(self, address):
        line = address // self.config.line_bytes
        entry = self._sets.get(line % self.config.num_sets)
        return entry is not None and line in entry[0]

    def lookup(self, address, cycle):
        self.stats.accesses += 1
        if self.probe(address):
            line, (tags, lru) = self._slots(address)
            lru.touch(tags.index(line))
            self.stats.hits += 1
            return True, cycle + self.config.hit_latency
        self.stats.misses += 1
        return False, cycle

    def fill(self, address):
        line, (tags, lru) = self._slots(address)
        way = tags.index(line) if line in tags else lru.victim()
        tags[way] = line
        lru.touch(way)

    def miss_start_cycle(self, line, cycle):
        for done in [key for key, ready in self._mshrs.items() if ready <= cycle]:
            del self._mshrs[done]
        if line in self._mshrs:
            self.stats.mshr_merges += 1
            return cycle, self._mshrs[line]
        if len(self._mshrs) >= self.config.mshrs:
            self.stats.mshr_stalls += 1
            return max(cycle, min(self._mshrs.values())), None
        return cycle, None

    def register_fill(self, line, ready_cycle):
        self._mshrs[line] = ready_cycle

    def checkpoint_digest(self):
        tags = sum(tag is not None for tags, _ in self._sets.values() for tag in tags)
        blob = (
            f"{self.config.name}:{len(self._sets)}:{tags}:"
            f"{self.stats.accesses}:{self.stats.hits}:{self.stats.misses}"
        )
        return zlib.crc32(blob.encode("ascii"))


class TestMatchesReferenceModel:
    """The recency-list sets and heap-retired MSHRs change the layout only:
    every observable answer must equal the reference model's."""

    @pytest.mark.parametrize(
        "ways, sets, mshrs",
        [(1, 4, 2), (4, 1, 3), (16, 2, 8), (2, 8, 1), (12, 4, 64)],
    )
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_streams_agree(self, ways, sets, mshrs, seed):
        config = CacheConfig(
            name="diff", size_bytes=ways * sets * 64, ways=ways, mshrs=mshrs,
            hit_latency=3,
        )
        cache, reference = Cache(config), _ReferenceCache(config)
        rng = random.Random(seed)
        # About three times as many lines as the cache holds, so the stream
        # mixes hits, capacity evictions and repeated misses.
        lines = rng.sample(range(1 << 20), 3 * ways * sets)
        cycle = 1000
        for _ in range(1500):
            # Mostly forward in time, with out-of-order steps backwards.
            cycle = max(0, cycle + rng.randint(-40, 60))
            address = rng.choice(lines) * 64 + rng.randrange(64)
            line = cache.line_address(address)
            action = rng.random()
            if action < 0.1:
                assert cache.probe(address) == reference.probe(address)
            elif action < 0.25:
                cache.fill(address)
                reference.fill(address)
            elif action < 0.3:
                # Re-registering an outstanding line leaves a stale heap entry.
                ready = cycle + rng.randint(-20, 200)
                cache.register_fill(line, ready)
                reference.register_fill(line, ready)
            else:
                hit = cache.lookup(address, cycle)
                assert hit == reference.lookup(address, cycle)
                if not hit[0]:
                    start = cache.miss_start_cycle(line, cycle)
                    assert start == reference.miss_start_cycle(line, cycle)
                    assert cache._mshrs == reference._mshrs
                    if start[1] is None:
                        ready = start[0] + rng.randint(1, 200)
                        cache.register_fill(line, ready)
                        reference.register_fill(line, ready)
                        cache.fill(address)
                        reference.fill(address)
            assert cache.stats == reference.stats
        assert cache.checkpoint_digest() == reference.checkpoint_digest()
        for address in (line * 64 for line in lines):
            assert cache.probe(address) == reference.probe(address)
