"""MMU/TLB model: geometry, hit/miss accounting, walk traffic, events.

Translation is identity-mapped (timing-only), so enabling the MMU must
never change results — only cycles.  Walks are charged as real requests
on the shared RAM port under the ``<core>.ptw`` requester, and the
single-core MMU run stays bit-identical across execution backends.
"""

import numpy as np
import pytest

from repro.analysis.runners import run_spmv
from repro.memory import MmuConfig, Tlb, TranslatingBus
from repro.system import Soc, SystemConfig
from repro.workloads import random_csr, random_dense_vector


def mmu_config(n_cores=1, **mmu_kwargs):
    cfg = SystemConfig.paper_table1()
    cfg.n_cores = n_cores
    cfg.mmu = MmuConfig(**mmu_kwargs)
    return cfg


class TestMmuConfig:
    def test_defaults_round_trip(self):
        cfg = SystemConfig(mmu=MmuConfig())
        assert SystemConfig.from_flat(cfg.to_flat()) == cfg

    @pytest.mark.parametrize("bad", [
        {"page_bytes": 100},   # not a power of two
        {"page_bytes": 32},    # too small
        {"tlb_entries": 0},
        {"walk_levels": 0},
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            MmuConfig(**bad)


class TestTlbUnit:
    def _tlb(self, **kwargs):
        soc = Soc()
        return Tlb(MmuConfig(**kwargs), soc.bus.mem,
                   soc.config.ram_bytes, core="cpu"), soc

    def test_miss_then_hit(self):
        tlb, _ = self._tlb()
        end = tlb.translate(0x100, cycle=0)
        assert tlb.counters.misses == 1
        assert end > 0  # the walk took time
        assert tlb.translate(0x104, cycle=end) == end  # same page: free hit
        assert tlb.counters.hits == 1

    def test_walk_charges_ptw_requester_on_the_port(self):
        tlb, soc = self._tlb(walk_levels=2)
        tlb.translate(0x2000, cycle=0)
        assert soc.stats()["soc.ram.requester.cpu.ptw"] == 2

    def test_lru_eviction(self):
        tlb, _ = self._tlb(tlb_entries=2)
        page = MmuConfig().page_bytes
        cycle = 0
        for vpn in (0, 1, 0, 2):  # touching 0 keeps it young; 1 evicts
            cycle = tlb.translate(vpn * page, cycle)
        assert tlb.counters.evictions == 1
        assert tlb.translate(0, cycle) == cycle          # still resident
        assert tlb.counters.misses == 3
        before = tlb.counters.misses
        tlb.translate(1 * page, cycle)                    # 1 was evicted
        assert tlb.counters.misses == before + 1

    def test_walk_levels_scale_walk_cycles(self):
        shallow, _ = self._tlb(walk_levels=1)
        deep, _ = self._tlb(walk_levels=3)
        shallow.translate(0, 0)
        deep.translate(0, 0)
        assert deep.counters.walk_cycles > shallow.counters.walk_cycles

    def test_reset_clears_entries_and_counters(self):
        tlb, _ = self._tlb()
        tlb.translate(0, 0)
        tlb.reset()
        assert tlb.counters.misses == 0
        tlb.translate(0, 0)
        assert tlb.counters.misses == 1  # cold again


class TestSocIntegration:
    def test_translating_bus_wraps_each_core(self):
        soc = Soc(mmu_config(n_cores=2))
        for cpu in soc.cpus:
            assert isinstance(cpu.bus, TranslatingBus)
        assert soc.cpus[0].bus.tlb is not soc.cpus[1].bus.tlb

    def test_tlb_stats_register_under_the_core(self):
        stats = Soc(mmu_config()).stats()
        assert "soc.cpu.tlb.hits" in stats
        assert "soc.cpu.tlb.walk_cycles" in stats
        multi = Soc(mmu_config(n_cores=2)).stats()
        assert "soc.cpu0.tlb.misses" in multi
        assert "soc.cpu1.tlb.misses" in multi

    def test_no_mmu_means_no_tlb_anywhere(self):
        stats = Soc().stats()
        assert not any(".tlb." in k for k in stats)


class TestTimingOverlay:
    def _operands(self):
        matrix = random_csr((30, 30), 0.5, seed=41)
        return matrix, random_dense_vector(30, seed=42)

    def test_results_identical_timing_slower(self):
        matrix, v = self._operands()
        phys = run_spmv(matrix, v)
        virt = run_spmv(matrix, v, config=mmu_config())
        assert np.array_equal(phys.y, virt.y)  # identity map: same values
        assert virt.cycles > phys.cycles       # walks cost real cycles
        stats = virt.stats
        assert stats["soc.cpu.tlb.walk_cycles"] > 0
        assert stats["soc.ram.requester.cpu.ptw"] > 0

    def test_vm_overhead_nonzero_and_bounded(self):
        matrix, v = self._operands()
        phys = run_spmv(matrix, v)
        virt = run_spmv(matrix, v, config=mmu_config())
        overhead = virt.cycles / phys.cycles - 1.0
        assert 0.0 < overhead < 0.5  # a few walks, not a meltdown

    def test_single_core_mmu_bit_identical_across_backends(self, monkeypatch):
        matrix, v = self._operands()
        runs = {}
        for backend in ("reference", "compiled"):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            run = run_spmv(matrix, v, config=mmu_config())
            runs[backend] = (run.cycles, run.instructions, dict(run.stats))
        assert runs["reference"] == runs["compiled"]

    def test_multicore_mmu_correct_on_both_backends(self, monkeypatch):
        matrix, v = self._operands()
        ref = matrix.to_dense().astype(np.float64) @ v.astype(np.float64)
        for backend in ("reference", "compiled"):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            run = run_spmv(matrix, v, config=mmu_config(n_cores=2))
            assert np.allclose(run.y, ref, rtol=1e-3, atol=1e-4)
            stats = run.stats
            assert stats["soc.cpu0.tlb.walks"] > 0
            assert stats["soc.ram.requester.cpu0.ptw"] > 0


class TestEvents:
    def test_on_tlb_walk_fires_per_miss(self):
        from repro.instrument import Probe
        from repro.kernels import spmv_kernel

        walks = []

        class WalkProbe(Probe):
            name = "walks"

            def on_tlb_walk(self, core, vpn, levels, cycle_start, cycle_end):
                walks.append((core, vpn, levels, cycle_start, cycle_end))

        matrix = random_csr((16, 16), 0.5, seed=43)
        v = random_dense_vector(16, seed=44)
        soc = Soc(mmu_config())
        soc.load_csr(matrix)
        soc.load_dense_vector(v)
        soc.allocate_output(matrix.nrows)
        result = soc.run(soc.assemble(spmv_kernel(accel=None, vector=True)),
                         probes=(WalkProbe(),))
        assert len(walks) == result.stats["soc.cpu.tlb.walks"]
        for core, vpn, levels, start, end in walks:
            assert core == "cpu"
            assert levels == 2
            assert end > start
