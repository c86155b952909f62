"""L1D cache and memory-hierarchy tests."""

import pytest

from repro.memory import CacheConfig, L1Cache, MemoryPort, MemorySystem


@pytest.fixture
def cache():
    return L1Cache(CacheConfig(line_bytes=32, n_sets=4, assoc=2, hit_latency=1),
                   MemoryPort(latency=2))


class TestConfig:
    def test_size(self):
        cfg = CacheConfig(line_bytes=32, n_sets=64, assoc=2)
        assert cfg.size_bytes == 4096
        assert cfg.line_words == 8

    @pytest.mark.parametrize("kw", [
        {"line_bytes": 12}, {"line_bytes": 2}, {"n_sets": 3},
        {"assoc": 0}, {"hit_latency": 0},
    ])
    def test_invalid(self, kw):
        with pytest.raises(ValueError):
            CacheConfig(**kw)


class TestCacheBehaviour:
    def test_cold_miss_then_hit(self, cache):
        miss = cache.read(0x100, cycle=0)
        hit = cache.read(0x104, cycle=miss)  # same 32B line
        assert miss > 1  # paid the line fill
        assert hit == miss + 1  # hit latency only
        assert cache.counters.hits == 1
        assert cache.counters.misses == 1

    def test_line_granularity(self, cache):
        cache.read(0x100, 0)
        assert cache.contains(0x11C)      # same line
        assert not cache.contains(0x120)  # next line

    def test_lru_eviction(self, cache):
        # Set index = (addr/32) % 4: these three map to set 0 (assoc 2).
        a, b, c = 0x000, 0x080, 0x100
        cache.read(a, 0)
        cache.read(b, 100)
        cache.read(c, 200)   # evicts a (LRU)
        assert not cache.contains(a)
        assert cache.contains(b)
        assert cache.contains(c)

    def test_lru_updated_on_hit(self, cache):
        a, b, c = 0x000, 0x080, 0x100
        cache.read(a, 0)
        cache.read(b, 100)
        cache.read(a, 200)   # touch a: b becomes LRU
        cache.read(c, 300)
        assert cache.contains(a)
        assert not cache.contains(b)

    def test_write_through_does_not_allocate(self, cache):
        cache.write(0x200, 0)
        assert not cache.contains(0x200)
        assert cache.counters.writes == 1

    def test_write_keeps_line_warm(self, cache):
        cache.read(0x200, 0)
        before = cache._use_counter
        cache.write(0x200, 100)
        assert cache._use_counter > before

    def test_miss_uses_port_bandwidth(self, cache):
        cache.read(0x100, 0)
        assert cache.port.counters.requests == cache.config.line_words

    def test_stats_by_requester(self, cache):
        cache.read(0x100, 0, "cpu")
        cache.read(0x100, 10, "hht")
        assert cache.counters.by_requester["cpu"] == [0, 1]  # [hits, misses]
        assert cache.counters.by_requester["hht"] == [1, 0]

    def test_hit_rate(self, cache):
        cache.read(0x100, 0)
        cache.read(0x100, 10)
        cache.read(0x100, 20)
        assert cache.counters.hit_rate == pytest.approx(2 / 3)

    def test_reset(self, cache):
        cache.read(0x100, 0)
        cache.reset()
        assert not cache.contains(0x100)
        assert cache.counters.accesses == 0


class TestMemorySystem:
    def test_uncached_read_is_port_issue(self):
        mem = MemorySystem(MemoryPort(latency=3))
        assert mem.read(0x100, 10, "cpu") == 13

    def test_cached_read_path(self, cache):
        mem = MemorySystem(cache.port, cache)
        first = mem.read(0x100, 0, "cpu")
        second = mem.read(0x100, first, "cpu")
        assert second == first + 1

    def test_uncached_seq_wide(self):
        mem = MemorySystem(MemoryPort(latency=2))
        # 8 words at 2 words/slot -> 4 slots: completes at 3 + 2.
        assert mem.read_seq(0x100, 8, 0, "hht", words_per_slot=2) == 5

    def test_cached_seq_touches_lines(self, cache):
        mem = MemorySystem(cache.port, cache)
        mem.read_seq(0x100, 16, 0, "cpu")  # 64 bytes -> two lines
        assert cache.counters.misses == 2
        mem.read_seq(0x100, 16, 100, "cpu")
        assert cache.counters.hits == 2

    def test_zero_words_noop(self, cache):
        mem = MemorySystem(cache.port, cache)
        assert mem.read_seq(0x100, 0, 7, "cpu") == 7
        # Not line-aligned: a zero-word read still touches no line.
        assert mem.read_seq(0x104, 0, 7, "cpu") == 7
        assert cache.counters.accesses == 0
        assert cache.port.counters.requests == 0

    def test_reset_cascades(self, cache):
        mem = MemorySystem(cache.port, cache)
        mem.read(0x100, 0, "cpu")
        mem.reset()
        assert cache.counters.accesses == 0
        assert cache.port.counters.requests == 0


class TestCachedSystem:
    """End-to-end: the Section 3.2 high-performance integration."""

    def _speedup_and_hit_rate(self, cache_cfg):
        from repro.analysis import run_spmv
        from repro.system import Soc, SystemConfig
        from repro.workloads import random_csr, random_dense_vector

        matrix = random_csr((64, 64), 0.5, seed=200)
        v = random_dense_vector(64, seed=201)
        cfg = SystemConfig.paper_table1()
        cfg.cache = cache_cfg
        cfg.ram_latency = 8  # DRAM-ish: the regime where caches matter
        base = run_spmv(matrix, v, accel=None, config=cfg)

        cfg2 = SystemConfig.paper_table1()
        cfg2.cache = cache_cfg
        cfg2.ram_latency = 8
        hht = run_spmv(matrix, v, accel="hht", config=cfg2)
        return base, hht

    def test_results_still_correct(self):
        base, hht = self._speedup_and_hit_rate(
            CacheConfig(line_bytes=32, n_sets=16, assoc=2)
        )
        assert base.cycles > 0 and hht.cycles > 0  # verify=True inside

    def test_cache_speeds_up_baseline(self):
        cached_base, _ = self._speedup_and_hit_rate(
            CacheConfig(line_bytes=32, n_sets=64, assoc=2)
        )
        uncached_base, _ = self._speedup_and_hit_rate(None)
        assert cached_base.cycles < uncached_base.cycles

    def test_hht_hits_the_cache(self):
        """Section 3: 'HHT will access the cache for fetching sparse data'."""
        from repro.analysis import run_spmv
        from repro.system import Soc, SystemConfig
        from repro.workloads import random_csr, random_dense_vector

        matrix = random_csr((64, 64), 0.5, seed=200)
        v = random_dense_vector(64, seed=201)
        cfg = SystemConfig.paper_table1()
        cfg.cache = CacheConfig(line_bytes=32, n_sets=64, assoc=2)
        soc = Soc(cfg)
        soc.load_csr(matrix)
        soc.load_dense_vector(v)
        soc.allocate_output(matrix.nrows)
        from repro.kernels import spmv_kernel
        soc.run(soc.assemble(spmv_kernel(accel="hht", vector=True)))
        hht_stats = soc.cache.counters.by_requester.get("hht")
        assert hht_stats is not None
        assert hht_stats[0] > 0  # the HHT's gathers hit the cache
