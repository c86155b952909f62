"""Branch and jump semantics."""

import pytest

from .helpers import run_asm


def branch_taken(op, a, b):
    """Run `op x1, x2, skip` and report whether the branch was taken."""
    def setup(cpu, ram):
        cpu.x[1] = a
        cpu.x[2] = b
    cpu = run_asm(f"""
        li a0, 0
        {op} x1, x2, skip
        li a0, 1
    skip:
    """, setup=setup)
    return cpu.x[10] == 0


class TestBranches:
    def test_beq(self):
        assert branch_taken("beq", 5, 5)
        assert not branch_taken("beq", 5, 6)

    def test_bne(self):
        assert branch_taken("bne", 5, 6)
        assert not branch_taken("bne", 5, 5)

    def test_blt_signed(self):
        assert branch_taken("blt", -1, 0)
        assert not branch_taken("blt", 0, -1)
        assert not branch_taken("blt", 3, 3)

    def test_bge_signed(self):
        assert branch_taken("bge", 0, -1)
        assert branch_taken("bge", 3, 3)
        assert not branch_taken("bge", -1, 0)

    def test_backward_branch_loop(self):
        cpu = run_asm("""
            li a0, 0
            li t0, 5
        loop:
            addi a0, a0, 2
            addi t0, t0, -1
            bnez t0, loop
        """)
        assert cpu.x[10] == 10


class TestJumps:
    def test_jal_link_register(self):
        cpu = run_asm("""
            jal ra, target
            li a0, 99
        target:
            li a1, 1
        """)
        # jal at index 0 -> ra holds byte address of index 1.
        assert cpu.x[1] == 4
        assert cpu.x[10] == 0  # skipped
        assert cpu.x[11] == 1


class TestTimingEffects:
    def test_taken_branch_costs_more(self):
        taken = run_asm("beq x0, x0, t\nt:")
        not_taken = run_asm("bne x0, x0, t\nt:")
        assert taken.cycle > not_taken.cycle

    def test_taken_branch_counted(self):
        cpu = run_asm("beq x0, x0, t\nt:")
        assert cpu.counters.taken_branches == 1
