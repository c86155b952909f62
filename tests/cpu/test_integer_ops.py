"""Integer ALU and shift semantics."""

import pytest

from .helpers import run_asm


def regs(source, **setup_regs):
    def setup(cpu, ram):
        for name, value in setup_regs.items():
            cpu.x[int(name[1:])] = value
    return run_asm(source, setup=setup)


class TestArithmetic:
    def test_add(self):
        assert regs("add x3, x1, x2", x1=5, x2=7).x[3] == 12

    def test_add_wraps_to_32_bits(self):
        cpu = regs("add x3, x1, x2", x1=0x7FFFFFFF, x2=1)
        assert cpu.x[3] == -0x80000000

    def test_sub(self):
        assert regs("sub x3, x1, x2", x1=5, x2=7).x[3] == -2

    def test_sub_underflow_wraps(self):
        cpu = regs("sub x3, x1, x2", x1=-0x80000000, x2=1)
        assert cpu.x[3] == 0x7FFFFFFF

    def test_addi_negative(self):
        assert regs("addi x3, x1, -3", x1=10).x[3] == 7

    def test_x0_never_written(self):
        cpu = regs("add x0, x1, x2", x1=5, x2=5)
        assert cpu.x[0] == 0

    def test_x0_reads_as_zero(self):
        assert regs("add x3, x0, x0").x[3] == 0


class TestLogic:
    def test_and(self):
        assert regs("and x3, x1, x2", x1=0b1100, x2=0b1010).x[3] == 0b1000

    def test_immediates(self):
        assert regs("andi x3, x1, 0xf", x1=0xAB).x[3] == 0xB


class TestShifts:
    def test_srl_uses_low_5_bits(self):
        assert regs("srl x3, x1, x2", x1=4, x2=33).x[3] == 2

    def test_srl_logical(self):
        cpu = regs("srl x3, x1, x2", x1=-1, x2=28)
        assert cpu.x[3] == 0xF

    def test_shift_immediates(self):
        assert regs("slli x3, x1, 3", x1=2).x[3] == 16
        assert regs("srli x3, x1, 1", x1=-2).x[3] == 0x7FFFFFFF

    def test_slli_overflow_wraps(self):
        assert regs("slli x3, x1, 31", x1=2).x[3] == 0


class TestUpperImmediates:
    def test_li_large(self):
        assert regs("li x3, 0x40000000").x[3] == 0x40000000
