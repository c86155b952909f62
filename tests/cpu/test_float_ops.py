"""Scalar floating-point semantics."""

import math

import pytest

from .helpers import run_asm


def fregs(source, **setup_fregs):
    def setup(cpu, ram):
        for name, value in setup_fregs.items():
            cpu.f[int(name[1:])] = value
    return run_asm(source, setup=setup)


class TestFused:
    def test_fmadd(self):
        cpu = fregs("fmadd.s f4, f1, f2, f3", f1=2.0, f2=3.0, f3=1.0)
        assert cpu.f[4] == 7.0


class TestMovesAndConversions:
    def test_fmv_w_x_bit_pattern(self):
        def setup(cpu, ram):
            cpu.x[1] = 0x40490FDB  # pi as float32 bits
        cpu = run_asm("fmv.w.x f2, x1", setup=setup)
        assert cpu.f[2] == pytest.approx(math.pi, rel=1e-6)

    def test_fmv_w_x_round_trip(self):
        # fmv.w.x then the bits back out through memory (fsw, lw).
        def setup(cpu, ram):
            cpu.x[1] = 0x3F800000  # 1.0f
        cpu = run_asm("fmv.w.x f2, x1\nfsw f2, 0x100(zero)\nlw x3, 0x100(zero)",
                      setup=setup)
        assert cpu.x[3] == 0x3F800000

    def test_fmv_w_x_zero(self):
        cpu = run_asm("fmv.w.x f2, zero")
        assert cpu.f[2] == 0.0
