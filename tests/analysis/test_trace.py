"""Execution-trace tests."""

import pytest

from repro.instrument import TraceProbe, render_trace
from repro.system import Soc, SystemConfig


def trace(soc, program, **kwargs):
    """Run *program* on *soc* under a ``TraceProbe(**kwargs)``."""
    probe = TraceProbe(**kwargs)
    soc.run(program, probes=(probe,))
    return probe.entries


@pytest.fixture
def soc():
    cfg = SystemConfig.paper_table1()
    cfg.ram_bytes = 1 << 16
    return Soc(cfg)


class TestTrace:
    def test_records_every_instruction(self, soc):
        prog = soc.assemble("li a0, 1\nli a1, 2\nadd a2, a0, a1\nhalt")
        entries = trace(soc, prog)
        assert [e.op for e in entries] == ["li", "li", "add", "halt"]
        assert entries[0].seq == 1

    def test_rd_values_captured(self, soc):
        prog = soc.assemble("li a0, 5\nli a1, 7\nadd a2, a0, a1\nhalt")
        entries = trace(soc, prog)
        assert entries[2].rd_value == 12

    def test_float_values_captured(self, soc):
        prog = soc.assemble("""
            li t0, 0x40000000
            fmv.w.x fa0, t0
            fmadd.s fa1, fa0, fa0, fa0
            halt
        """)
        entries = trace(soc, prog)
        assert entries[2].rd_value == pytest.approx(6.0)

    def test_cycle_intervals_monotonic(self, soc):
        prog = soc.assemble(
            "lw a0, 0x100(zero)\nfmadd.s fa1, fa0, fa0, fa0\nhalt")
        entries = trace(soc, prog)
        for prev, cur in zip(entries, entries[1:]):
            assert cur.cycle_start == prev.cycle_end
        assert entries[0].cycles > 1  # the load paid memory latency

    def test_limit(self, soc):
        prog = soc.assemble("loop: addi a0, a0, 1\nj loop")
        entries = trace(soc, prog, limit=25)
        assert len(entries) == 25

    def test_only_filter(self, soc):
        prog = soc.assemble("""
            li t0, 3
        loop:
            addi t0, t0, -1
            bnez t0, loop
            halt
        """)
        entries = trace(soc, prog, only={"bne"})
        assert len(entries) == 3
        assert all(e.op == "bne" for e in entries)

    def test_render(self, soc):
        prog = soc.assemble("li a0, 1\nhalt")
        text = render_trace(trace(soc, prog))
        assert "li a0, 1" in text
        assert "@0" in text
        assert "-> 0x1" in text

    def test_traces_hht_kernel(self, soc):
        """A full HHT kernel traces end to end (FIFO reads included)."""
        from repro.kernels import spmv_kernel
        from repro.workloads import random_csr, random_dense_vector

        matrix = random_csr((8, 8), 0.5, seed=1)
        soc.load_csr(matrix)
        soc.load_dense_vector(random_dense_vector(8, seed=2))
        soc.allocate_output(8)
        prog = soc.assemble(spmv_kernel(accel="hht", vector=True))
        entries = trace(soc, prog, only={"vle32.v"})
        # Both the vals loads and the FIFO loads appear.
        assert len(entries) >= matrix.nrows


class TestTracedValues:
    """rd_value coverage for vector and HHT FIFO-pop instructions."""

    def test_vector_entries_have_no_rd_value(self, soc):
        prog = soc.assemble("""
            li a0, 0x100
            li a1, 0x200
            vsetvli t0, x0, e32, m1
            vle32.v v1, (a0)
            vmv.v.i v0, 0
            vfmacc.vv v0, v1, v1
            vluxei32.v v2, (a1), v0
            halt
        """)
        entries = trace(soc, prog)
        by_op = {e.op: e for e in entries}
        for op in ("vle32.v", "vluxei32.v", "vmv.v.i", "vfmacc.vv",
                   "vsetvli"):
            assert by_op[op].rd_value is None, op
        # ...while the scalar arithmetic around them still reports values.
        assert entries[0].rd_value == 0x100
        # And the rendered line for a vector op ends at the cycle span.
        line = next(l for l in render_trace(entries).splitlines()
                    if "vle32.v" in l)
        assert "->" not in line

    def test_scalar_arithmetic_values(self, soc):
        prog = soc.assemble(
            "li a0, 6\nslli a1, a0, 2\nsub a2, a1, a0\nhalt"
        )
        entries = trace(soc, prog)
        assert [e.rd_value for e in entries[:3]] == [6, 24, 18]
        assert all(isinstance(e.rd_value, int) for e in entries[:3])

    def test_hht_fifo_pop_traces_float_value(self, soc):
        """The scalar HHT kernel pops gathered vector values with
        ``flw`` from the FIFO MMIO address; those entries must carry the
        popped float, not a stale integer."""
        from repro.kernels import spmv_kernel
        from repro.workloads import random_csr, random_dense_vector

        matrix = random_csr((8, 8), 0.5, seed=3)
        vector = random_dense_vector(8, seed=4)
        soc.load_csr(matrix)
        soc.load_dense_vector(vector)
        soc.allocate_output(8)
        prog = soc.assemble(spmv_kernel(accel="hht", vector=False))
        entries = trace(soc, prog, only={"flw"})
        # Two flw per stored element: the FIFO pop and the vals load.
        assert len(entries) == 2 * matrix.nnz
        assert all(isinstance(e.rd_value, float) for e in entries)
        # The FIFO pops (even positions) replay the gathered v values:
        # every popped value is an element of the dense vector.
        pops = {e.rd_value for e in entries[::2]}
        assert pops <= {float(x) for x in vector}
        assert pops  # at least one nonzero row actually popped


class TestMultiCoreTrace:
    """A multi-core program is traced on every core, not just core 0."""

    @pytest.fixture
    def two_core(self):
        cfg = SystemConfig.paper_table1()
        cfg.n_cores = 2
        return Soc(cfg)

    def test_records_every_retired_instruction(self, two_core):
        from repro.kernels import partition_rows, spmv_multicore_kernel
        from repro.workloads import random_csr, random_dense_vector

        soc = two_core
        matrix = random_csr((16, 16), 0.5, seed=5)
        soc.load_csr(matrix)
        soc.load_dense_vector(random_dense_vector(16, seed=6))
        soc.allocate_output(16)
        for name, value in partition_rows(16, 2).items():
            soc.define_symbol(name, value)
        prog = soc.assemble(spmv_multicore_kernel(2, vector=True))
        entries = trace(soc, prog, limit=100_000)
        result = soc.run(prog)
        assert len(entries) == result.instructions
        assert [e.seq for e in entries] == list(range(1, len(entries) + 1))

    def test_values_come_from_the_retiring_core(self, two_core):
        prog = two_core.assemble("""
        core0:
            li a0, 10
            halt
        core1:
            li a0, 20
            addi a0, a0, 1
            halt
        """)
        entries = trace(two_core, prog)
        assert sorted(e.rd_value for e in entries if e.op != "halt") == [
            10, 20, 21,
        ]
