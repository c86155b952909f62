"""Vector-extension semantics (SEW=32, LMUL=1)."""

import numpy as np

from .helpers import make_machine, run_asm
from repro.isa import assemble


def vload(cpu, reg, values, kind=np.float32):
    arr = np.asarray(values, dtype=kind)
    cpu.v[reg][: arr.size] = arr.view(np.uint32)


def vread(cpu, reg, n, kind=np.float32):
    return cpu.v[reg][:n].view(kind).copy()


class TestVsetvli:
    def test_requested_below_vlmax(self):
        cpu = run_asm("li a0, 5\nvsetvli t0, a0, e32, m1")
        assert cpu.vl == 5
        assert cpu.x[5] == 5

    def test_clamped_to_vlmax(self):
        cpu = run_asm("li a0, 100\nvsetvli t0, a0, e32, m1")
        assert cpu.vl == 8

    def test_x0_source_sets_vlmax(self):
        cpu = run_asm("vsetvli t0, x0, e32, m1")
        assert cpu.vl == 8

    def test_vlmax_respects_config(self):
        cpu = run_asm("vsetvli t0, x0, e32, m1", vlmax=4)
        assert cpu.vl == 4


class TestVectorLoadsStores:
    def test_partial_vl_loads_prefix(self):
        cpu, ram = make_machine()
        ram.write_array(0x200, np.arange(8, dtype=np.float32))
        prog = assemble("""
            li a0, 3
            vsetvli t0, a0, e32, m1
            li a1, 0x200
            vle32.v v1, (a1)
            halt
        """)
        cpu.run(prog)
        assert vread(cpu, 1, 3).tolist() == [0.0, 1.0, 2.0]

class TestGather:
    def test_gather_byte_offsets(self):
        cpu, ram = make_machine()
        ram.write_array(0x200, np.array([10, 20, 30, 40], dtype=np.float32))
        vload(cpu, 1, [12, 0, 4, 8], kind=np.int32)  # byte offsets
        prog = assemble("""
            li a0, 4
            vsetvli t0, a0, e32, m1
            li a1, 0x200
            vluxei32.v v2, (a1), v1
            halt
        """)
        cpu.run(prog)
        assert vread(cpu, 2, 4).tolist() == [40.0, 10.0, 20.0, 30.0]

    def test_gather_is_serialised(self):
        """Gather must cost more than a unit-stride load of the same size."""
        def run(src):
            cpu, ram = make_machine()
            ram.write_array(0x200, np.zeros(8, np.float32))
            vload(cpu, 1, [0] * 8, kind=np.int32)
            start_prog = assemble(src + "\nhalt")
            cpu.run(start_prog)
            return cpu.cycle

        unit = run("vsetvli t0, x0, e32, m1\nli a1, 0x200\nvle32.v v2, (a1)")
        gather = run("vsetvli t0, x0, e32, m1\nli a1, 0x200\nvluxei32.v v2, (a1), v1")
        assert gather > unit * 1.5


class TestVectorArithmetic:
    def test_vfmacc_accumulates(self):
        cpu, _ = make_machine()
        vload(cpu, 0, [1.0, 1.0])
        vload(cpu, 1, [2.0, 3.0])
        vload(cpu, 2, [10.0, 10.0])
        prog = assemble("""
            li a0, 2
            vsetvli t0, a0, e32, m1
            vfmacc.vv v0, v1, v2
            halt
        """)
        cpu.run(prog)
        assert vread(cpu, 0, 2).tolist() == [21.0, 31.0]

    def test_tail_undisturbed(self):
        """Elements beyond vl are not modified."""
        cpu, _ = make_machine()
        vload(cpu, 3, [1.0] * 2 + [9.0] * 6)
        vload(cpu, 1, [1.0] * 8)
        vload(cpu, 2, [1.0] * 8)
        prog = assemble("""
            li a0, 2
            vsetvli t0, a0, e32, m1
            vfmacc.vv v3, v1, v2
            halt
        """)
        cpu.run(prog)
        full = vread(cpu, 3, 8)
        assert full[:2].tolist() == [2.0, 2.0]
        assert full[2:].tolist() == [9.0] * 6


class TestScalarVectorOps:
    def test_vsll_vi(self):
        cpu, _ = make_machine()
        vload(cpu, 1, [1, 2, 3], np.int32)
        cpu.x[10] = 3
        prog = assemble("vsetvli t0, a0, e32, m1\nvsll.vi v2, v1, 2\nhalt")
        cpu.run(prog)
        assert vread(cpu, 2, 3, np.int32).tolist() == [4, 8, 12]

    def test_vmv_v_i(self):
        cpu, _ = make_machine()
        cpu.x[10] = 4
        prog = assemble("""
            vsetvli t0, a0, e32, m1
            vmv.v.i v1, 5
            halt
        """)
        cpu.run(prog)
        assert vread(cpu, 1, 4, np.int32).tolist() == [5] * 4


class TestReductions:
    def test_vfredosum(self):
        cpu, _ = make_machine()
        vload(cpu, 1, [1.0, 2.0, 3.0, 4.0])
        cpu.x[10] = 4
        cpu.f[0] = 10.0
        prog = assemble("""
            vsetvli t0, a0, e32, m1
            vfmv.s.f v4, ft0
            vfredosum.vs v4, v1, v4
            vfmv.f.s fa0, v4
            halt
        """)
        cpu.run(prog)
        assert cpu.f[10] == 20.0


class TestMoves:
    def test_vfmv_f_s_and_s_f(self):
        cpu, _ = make_machine()
        cpu.f[1] = 2.5
        prog = assemble("vfmv.s.f v3, f1\nvfmv.f.s f2, v3\nhalt")
        cpu.run(prog)
        assert cpu.f[2] == 2.5
