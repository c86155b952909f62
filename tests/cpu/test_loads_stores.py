"""Load/store semantics and MMIO routing."""

import numpy as np
import pytest

from repro.cpu import SimulationError
from repro.isa import assemble

from .helpers import make_machine, run_asm


class TestWordAccess:
    def test_lw_sw_round_trip(self):
        cpu = run_asm("""
            li a0, 0x100
            li a1, -123456
            sw a1, 0(a0)
            lw a2, 0(a0)
        """)
        assert cpu.x[12] == -123456

    def test_lw_with_offset(self):
        def setup(cpu, ram):
            ram.write_i32(0x108, 77)
        cpu = run_asm("li a0, 0x100\nlw a2, 8(a0)", setup=setup)
        assert cpu.x[12] == 77

    def test_lw_sign_extends(self):
        def setup(cpu, ram):
            ram.write_u32(0x100, 0xFFFFFFFF)
        cpu = run_asm("lw a2, 0x100(zero)", setup=setup)
        assert cpu.x[12] == -1

    def test_negative_offset(self):
        def setup(cpu, ram):
            ram.write_i32(0x0FC, 5)
        cpu = run_asm("li a0, 0x100\nlw a2, -4(a0)", setup=setup)
        assert cpu.x[12] == 5


class TestFloatMemory:
    def test_flw_fsw_round_trip(self):
        def setup(cpu, ram):
            ram.write_f32(0x100, 3.5)
        cpu = run_asm("""
            flw fa0, 0x100(zero)
            fsw fa0, 0x104(zero)
            flw fa1, 0x104(zero)
        """, setup=setup)
        assert cpu.f[10] == 3.5
        assert cpu.f[11] == 3.5

    def test_fsw_rounds_to_float32(self):
        def setup(cpu, ram):
            ram.write_f32(0x100, 1.0)
        cpu, ram = make_machine()
        ram.write_f32(0x100, 1.0)
        prog = assemble("""
            flw fa0, 0x100(zero)
            fsw fa0, 0x104(zero)
            halt
        """)
        cpu.run(prog)
        assert ram.read_f32(0x104) == 1.0


class TestBadAccess:
    def test_out_of_range_load_raises(self):
        from repro.memory import MemoryAccessError
        with pytest.raises(MemoryAccessError):
            run_asm("li a0, 0x20000000\nlw a1, 0(a0)")  # hole below MMIO

    def test_misaligned_word_raises(self):
        from repro.memory import MemoryAccessError
        with pytest.raises(MemoryAccessError):
            run_asm("li a0, 0x101\nlw a1, 0(a0)")


class TestInstructionBudget:
    def test_infinite_loop_detected(self):
        from repro.cpu import Cpu, CpuConfig
        from repro.memory import Bus, MemoryPort, Ram

        ram = Ram(1 << 12)
        cpu = Cpu(Bus(ram, MemoryPort()), CpuConfig(max_instructions=1000))
        with pytest.raises(SimulationError, match="budget"):
            cpu.run(assemble("loop: j loop"))

    def test_pc_out_of_range(self):
        cpu, _ = make_machine()
        with pytest.raises(SimulationError, match="PC out of range"):
            cpu.run(assemble("li a0, 0"))  # falls off the end without halt
