"""Timing-model tests: per-class latencies, memory stalls, statistics."""

import pytest

from repro.cpu import Cpu, CpuConfig, LatencyTable
from repro.isa import assemble
from repro.memory import Bus, MemoryPort, Ram

from .helpers import make_machine, run_asm


def cycles_of(source, **kw):
    return run_asm(source, **kw).cycle


class TestBasicLatencies:
    def test_alu_is_single_cycle(self):
        # halt contributes 1 cycle; each addi 1.
        assert cycles_of("addi a0, a0, 1") == 2
        assert cycles_of("addi a0, a0, 1\naddi a0, a0, 1") == 3

    def test_fma_latency(self):
        lat = LatencyTable()
        assert cycles_of("fmadd.s f0, f1, f2, f3") == lat.fp_fma + lat.system

    def test_vector_arithmetic_latency_table1(self):
        """Table 1: vector arithmetic latency = 4 cycles."""
        lat = LatencyTable()
        assert lat.vector_fp == 4
        base = cycles_of("vsetvli t0, x0, e32, m1")
        with_op = cycles_of("vsetvli t0, x0, e32, m1\nvfmacc.vv v1, v2, v3")
        assert with_op - base == 4


class TestMemoryTiming:
    def test_load_pays_ram_latency(self):
        fast = cycles_of("lw a0, 0x100(zero)", ram_latency=1)
        slow = cycles_of("lw a0, 0x100(zero)", ram_latency=6)
        assert slow - fast == 5

    def test_store_is_posted(self):
        """Stores retire in one cycle regardless of RAM latency."""
        fast = cycles_of("sw a0, 0x100(zero)", ram_latency=1)
        slow = cycles_of("sw a0, 0x100(zero)", ram_latency=8)
        assert fast == slow

    def test_back_to_back_loads_queue_on_port(self):
        """The single issue port serialises concurrent requests."""
        one = cycles_of("lw a0, 0x100(zero)")
        two = cycles_of("lw a0, 0x100(zero)\nlw a1, 0x104(zero)")
        assert two >= 2 * one - 2  # second load cannot hide fully

    def test_unit_stride_vector_load_pipelines(self):
        """A vector load of 8 words costs far less than 8 scalar loads."""
        scalar8 = cycles_of("\n".join(f"lw a0, {0x100 + 4 * i}(zero)" for i in range(8)))
        vector = cycles_of("vsetvli t0, x0, e32, m1\nli a1, 0x100\nvle32.v v1, (a1)")
        assert vector < scalar8 * 0.7


class TestStatistics:
    def test_instruction_count(self):
        cpu = run_asm("addi x0, x0, 0\naddi x0, x0, 0\naddi x0, x0, 0")
        assert cpu.counters.instructions == 4  # 3 no-ops + halt

    def test_class_counts(self):
        cpu = run_asm("add a0, a1, a2\nlw a3, 0x100(zero)\n"
                      "fmadd.s f4, f1, f2, f3")
        assert cpu.counters.class_counts["int_alu"] == 1
        assert cpu.counters.class_counts["scalar_load"] == 1
        assert cpu.counters.class_counts["fp_fma"] == 1

    def test_class_cycles_sum_to_total(self):
        cpu = run_asm("""
            li a0, 3
        loop:
            lw a1, 0x100(zero)
            addi a0, a0, -1
            bnez a0, loop
        """)
        assert sum(cpu.counters.class_cycles.values()) == cpu.cycle

    def test_stats_cycles_matches_cpu_cycle(self):
        cpu = run_asm("addi x0, x0, 0")
        assert cpu.counters.cycles == cpu.cycle


class TestConfigurableLatencies:
    def test_custom_latency_table(self):
        ram = Ram(1 << 12)
        bus = Bus(ram, MemoryPort(latency=2))
        lat = LatencyTable(int_alu=5)
        cpu = Cpu(bus, CpuConfig(latencies=lat))
        cpu.run(assemble("add a0, a1, a2\nhalt"))
        assert cpu.counters.class_cycles["int_alu"] == 5

    def test_a_zero_latency_class_keeps_both_keys(self):
        """A class that ran has a count key and a cycles key, even when
        its cycles are 0, and both backends (blocks, a self-loop, the
        budget tail) agree on every key."""
        src = ("li a0, 3\nloop: addi a0, a0, -1\nbnez a0, loop\n"
               "add a1, a0, a0\nhalt")
        registries = []
        for backend in ("reference", "compiled"):
            cpu = Cpu(Bus(Ram(1 << 12), MemoryPort()),
                      CpuConfig(latencies=LatencyTable(int_alu=0),
                                backend=backend))
            cpu.run(assemble(src))
            registries.append(cpu.stats())
        reference, compiled = registries
        assert reference == compiled
        assert reference["cpu.class_counts.int_alu"] == 5
        assert reference["cpu.class_cycles.int_alu"] == 0
        assert list(reference) == list(compiled)

    def test_invalid_vlmax_rejected(self):
        with pytest.raises(ValueError):
            CpuConfig(vlmax=0)
        with pytest.raises(ValueError):
            CpuConfig(vlmax=65)

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError):
            CpuConfig(frequency_hz=0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError, match="int_alu"):
            LatencyTable(int_alu=-1)


class TestReset:
    def test_reset_clears_state(self):
        cpu, _ = make_machine()
        cpu.run(assemble("li a0, 7\nhalt"))
        assert cpu.x[10] == 7
        cpu.reset()
        assert cpu.x[10] == 0
        assert cpu.cycle == 0
        assert cpu.counters.instructions == 0
