"""The typed register file and the burst contract.

``Cpu.vf``/``Cpu.vi`` are float32/int32 views of the vector registers
``Cpu.v``, built with them on every reset, and every vector handler of
both backends works through them.  ``Bus.load_burst`` hands RAM words
back without a copy, so a vector load must copy them into its register
before the next instruction can store over them.
"""

import numpy as np
import pytest

from repro.cpu import Cpu, CpuConfig
from repro.isa import assemble
from repro.kernels import spmv_kernel
from repro.kernels.loops import partition_rows, spmv_multicore_kernel
from repro.memory import Bus, MemoryPort, Ram
from repro.system import Soc, SystemConfig
from repro.workloads.synthetic import random_csr, random_dense_vector

BACKENDS = ["reference", "compiled"]
SIZE = 32


def _spmv_soc(backend: str, *, n_cores: int = 1, accel: str | None = None):
    """A Table-1 SoC loaded for the vector SpMV kernel, its program and
    the expected ``y``."""
    cfg = SystemConfig.paper_table1()
    cfg.cpu.backend = backend
    cfg.n_cores = n_cores
    matrix = random_csr((SIZE, SIZE), 0.5, seed=21)
    v = random_dense_vector(SIZE, seed=22)
    soc = Soc(cfg)
    soc.load_csr(matrix)
    soc.load_dense_vector(v)
    soc.allocate_output(SIZE)
    if n_cores > 1:
        for symbol, value in partition_rows(SIZE, n_cores).items():
            soc.define_symbol(symbol, value)
        text = spmv_multicore_kernel(n_cores, vector=True)
    else:
        text = spmv_kernel(accel=accel, vector=True)
    expected = matrix.to_dense().astype(np.float64) @ v.astype(np.float64)
    return soc, soc.assemble(text), expected


@pytest.mark.parametrize("n_cores", [1, 2])
@pytest.mark.parametrize("backend", BACKENDS)
def test_views_alias_the_registers_after_every_run(backend, n_cores):
    soc, program, _ = _spmv_soc(backend, n_cores=n_cores)
    assert len(soc.cpus) == n_cores
    for _ in range(2):
        soc.run(program)
        for cpu in soc.cpus:
            for reg, vf, vi in zip(cpu.v, cpu.vf, cpu.vi):
                assert vf.dtype == np.float32 and vi.dtype == np.int32
                assert np.shares_memory(vf, reg)
                assert np.shares_memory(vi, reg)


@pytest.mark.parametrize("accel", [None, "hht"])
@pytest.mark.parametrize("backend", BACKENDS)
def test_one_soc_runs_a_vector_kernel_twice_alike(backend, accel):
    soc, program, expected = _spmv_soc(backend, accel=accel)
    runs = []
    for _ in range(2):
        summary = soc.run(program)
        y = soc.read_output("y", SIZE)
        assert np.allclose(y, expected, rtol=1e-3, atol=1e-4)
        runs.append((summary, y))
    (first, first_y), (second, second_y) = runs
    assert second.cycles == first.cycles
    assert second.instructions == first.instructions
    assert second.stats == first.stats
    assert second_y.tobytes() == first_y.tobytes()


BURST_THEN_STORE = """\
    vsetvli t0, x0, e32, m1
    li a0, 0x100
    vle32.v v1, (a0)
    li t1, 99
    sw t1, 0(a0)
    sw t1, 28(a0)
    halt
"""


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_store_after_a_burst_leaves_the_register_alone(backend):
    ram = Ram(1 << 12)
    cpu = Cpu(Bus(ram, MemoryPort(latency=2)), CpuConfig(backend=backend))
    words = np.arange(1, 9, dtype=np.uint32)
    ram.write_array(0x100, words)
    cpu.run(assemble(BURST_THEN_STORE))
    assert cpu.v[1].tolist() == words.tolist()
    assert ram.read_u32(0x100) == ram.read_u32(0x11C) == 99
