"""Component tree, flat stats registry, run isolation, multi-HHT, banking."""

import numpy as np
import pytest

from repro.component import SimComponent, hht_stats_view, subtree
from repro.kernels.spmv import spmv_kernel
from repro.memory import CacheConfig
from repro.system import Soc, SystemConfig
from repro.workloads import random_csr, random_dense_vector


class Leaf(SimComponent):
    def __init__(self, name):
        super().__init__(name)
        self.n = 0

    def _reset_local(self):
        self.n = 0

    def _local_stats(self):
        return {"n": self.n}


class TestSimComponent:
    def test_stats_use_dotted_paths(self):
        root = SimComponent("root")
        a = root.add_child(Leaf("a"))
        a.n = 3
        assert root.stats() == {"root.a.n": 3}

    def test_transparent_component_adds_no_segment(self):
        root = SimComponent("root")
        wrapper = root.add_child(SimComponent(""))
        leaf = wrapper.add_child(Leaf("x"))
        leaf.n = 7
        assert root.stats() == {"root.x.n": 7}

    def test_dotted_leaves_allowed(self):
        class Grouped(SimComponent):
            def _local_stats(self):
                return {"class_counts.int_alu": 5}

        assert Grouped("cpu").stats("soc") == {"soc.cpu.class_counts.int_alu": 5}

    def test_reset_recurses(self):
        root = SimComponent("root")
        a = root.add_child(Leaf("a"))
        b = root.add_child(SimComponent("")).add_child(Leaf("b"))
        a.n = b.n = 9
        root.reset()
        assert a.n == 0 and b.n == 0

    def test_subtree_strips_prefix(self):
        stats = {"soc.cpu.cycles": 10, "soc.ram.requests": 4}
        assert subtree(stats, "soc.cpu") == {"cycles": 10}


def _spmv_soc(config=None, size=24, seed=7):
    cfg = config or SystemConfig.paper_table1()
    cfg.ram_bytes = 1 << 16
    matrix = random_csr((size, size), 0.5, seed=seed)
    v = random_dense_vector(size, seed=seed + 1)
    soc = Soc(cfg)
    soc.load_csr(matrix)
    soc.load_dense_vector(v)
    soc.allocate_output(size)
    return soc, matrix, v


class TestSocRegistry:
    def test_namespaces_present(self):
        soc, _, _ = _spmv_soc()
        result = soc.run(soc.assemble(spmv_kernel(accel="hht", vector=True)))
        for key in ("soc.cpu.cycles", "soc.cpu.instructions",
                    "soc.ram.requests", "soc.ram.queue_cycles",
                    "soc.ram.busy_cycles", "soc.hht.starts",
                    "soc.hht.fifo_reads"):
            assert key in result.stats, key

    def test_legacy_views_are_derived_from_registry(self):
        soc, _, _ = _spmv_soc()
        result = soc.run(soc.assemble(spmv_kernel(accel="hht", vector=True)))
        stats = result.stats
        assert result.cpu_stats.cycles == stats["soc.cpu.cycles"]
        assert result.cpu_stats.instructions == stats["soc.cpu.instructions"]
        assert result.hht_stats["starts"] == stats["soc.hht.starts"]
        assert result.cpu_wait_cycles == stats["soc.hht.cpu_wait_cycles"]
        assert sum(result.port_requests.values()) == stats["soc.ram.requests"]
        assert result.cache_stats is None  # MCU: no L1D

    def test_cache_namespace_and_view(self):
        cfg = SystemConfig.paper_table1()
        cfg.cache = CacheConfig()
        soc, _, _ = _spmv_soc(cfg)
        result = soc.run(soc.assemble(spmv_kernel(accel=None, vector=True)))
        assert result.stats["soc.l1d.hits"] > 0
        cs = result.cache_stats
        assert cs["hits"] == result.stats["soc.l1d.hits"]
        assert "cpu" in cs["by_requester"]

    def test_tree_reset_zeroes_every_counter(self):
        soc, _, _ = _spmv_soc()
        soc.run(soc.assemble(spmv_kernel(accel="hht", vector=True)))
        soc.reset()
        assert all(v == 0 for v in soc.stats().values())


class TestRunToRunIsolation:
    @pytest.mark.parametrize("cached", [False, True])
    def test_consecutive_runs_identical(self, cached):
        cfg = SystemConfig.paper_table1()
        if cached:
            cfg.cache = CacheConfig()
        soc, matrix, v = _spmv_soc(cfg)
        program = soc.assemble(spmv_kernel(accel="hht", vector=True))
        first = soc.run(program)
        y_first = soc.read_output("y", matrix.nrows).copy()
        second = soc.run(program)
        y_second = soc.read_output("y", matrix.nrows)
        assert first.cycles == second.cycles
        assert first.stats == second.stats
        assert np.array_equal(y_first, y_second)

    def test_hht_then_baseline_sees_no_residue(self):
        # A baseline run after an HHT run must look exactly like a
        # baseline run on a fresh system.
        soc, _, _ = _spmv_soc()
        baseline = soc.assemble(spmv_kernel(accel=None, vector=True))
        soc.run(soc.assemble(spmv_kernel(accel="hht", vector=True)))
        after_hht = soc.run(baseline)
        fresh_soc, _, _ = _spmv_soc()
        fresh = fresh_soc.run(fresh_soc.assemble(spmv_kernel(accel=None, vector=True)))
        assert after_hht.cycles == fresh.cycles
        assert after_hht.stats == fresh.stats


class TestMultiHHT:
    def test_indexed_names_and_symbols(self):
        cfg = SystemConfig.paper_table1()
        cfg.n_hhts = 2
        soc = Soc(cfg)
        assert [h.name for h in soc.hhts] == ["hht0", "hht1"]
        assert "hht1_start" in soc.symbols
        assert soc.symbols["hht1_start"] != soc.symbols["hht_start"]

    def test_idle_second_hht_is_cycle_neutral(self):
        single, _, _ = _spmv_soc()
        cfg = SystemConfig.paper_table1()
        cfg.n_hhts = 2
        dual, _, _ = _spmv_soc(cfg)
        program_text = spmv_kernel(accel="hht", vector=True)
        r1 = single.run(single.assemble(program_text))
        r2 = dual.run(dual.assemble(program_text))
        assert r1.cycles == r2.cycles
        assert r2.stats["soc.hht0.starts"] == 1
        assert r2.stats["soc.hht1.starts"] == 0
        assert "hht0" in r2.port_requests

    def test_kernel_can_target_second_hht(self):
        cfg = SystemConfig.paper_table1()
        cfg.n_hhts = 2
        soc, matrix, v = _spmv_soc(cfg)
        # Redirect every MMR symbol reference to the second instance.
        text = spmv_kernel(accel="hht", vector=True).replace("hht_", "hht1_")
        result = soc.run(soc.assemble(text))
        y = soc.read_output("y", matrix.nrows)
        ref = matrix.to_dense().astype(np.float64) @ v.astype(np.float64)
        assert np.allclose(y, ref, rtol=1e-3, atol=1e-4)
        assert result.stats["soc.hht1.starts"] == 1
        assert result.stats["soc.hht0.starts"] == 0
        assert "hht1" in result.port_requests

    def test_hht_stats_view_sums_instances(self):
        stats = {
            "soc.hht0.starts": 1, "soc.hht1.starts": 2,
            "soc.hht0.fifo_reads": 10, "soc.hht1.fifo_reads": 5,
            "soc.hht0.stream.vval.reads": 99,  # per-stream keys excluded
        }
        view = hht_stats_view(stats)
        assert view["starts"] == 3
        assert view["fifo_reads"] == 15


class TestBankedSoc:
    def test_banked_registry_keys(self):
        cfg = SystemConfig.paper_table1()
        cfg.banks = 4
        soc, _, _ = _spmv_soc(cfg)
        result = soc.run(soc.assemble(spmv_kernel(accel="hht", vector=True)))
        for i in range(4):
            assert f"soc.ram.bank{i}.requests" in result.stats

    def test_banking_never_slows_the_port(self):
        flat, matrix, v = _spmv_soc()
        cfg = SystemConfig.paper_table1()
        cfg.banks = 4
        banked, _, _ = _spmv_soc(cfg)
        text = spmv_kernel(accel="hht", vector=True)
        r_flat = flat.run(flat.assemble(text))
        r_banked = banked.run(banked.assemble(text))
        assert r_banked.cycles <= r_flat.cycles
        assert (r_banked.stats["soc.ram.queue_cycles"]
                <= r_flat.stats["soc.ram.queue_cycles"])
        # Functional result unchanged by the timing topology.
        ref = matrix.to_dense().astype(np.float64) @ v.astype(np.float64)
        assert np.allclose(banked.read_output("y", matrix.nrows), ref,
                           rtol=1e-3, atol=1e-4)
