"""The typed register file, its per-VL views and the burst contract.

``Cpu.vf``/``Cpu.vi`` are float32/int32 views of the vector registers
``Cpu.v``, built with them on every reset.  ``Cpu.vset`` holds the
views of every register's first ``vl`` words (a ``VlViews`` set), built
once per VL a run uses and again at every reset, and every VL-bound
vector op of both backends works through it.  ``Bus.load_burst``
hands RAM words back without a copy, so a vector load must copy them
into its register before the next instruction can store over them.
"""

import numpy as np
import pytest

from repro.accel.indexmac import IndexMACUnit
from repro.accel.ssr import SSRMMR, SSRUnit
from repro.cpu import Cpu, CpuConfig, SimulationError, compiled
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


def _starts_at(view: np.ndarray, array: np.ndarray) -> bool:
    """True when *view* begins at *array*'s first byte (any length)."""
    return (view.__array_interface__["data"][0]
            == array.__array_interface__["data"][0])


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
            # Every VL the run used, the row tails' too, has its set.
            assert len(cpu._vsets) > 1
            assert cpu.vset is cpu._vsets[cpu.vl]
            for vl, views in cpu._vsets.items():
                regs = zip(cpu.v, views.v, views.vf, views.vi)
                for reg, *typed in regs:
                    for view, dtype in zip(typed, (np.uint32, np.float32,
                                                   np.int32)):
                        assert view.dtype == dtype and len(view) == vl
                        assert _starts_at(view, reg)
                        assert vl == 0 or np.shares_memory(view, reg)
                assert len(views.scr) == vl
                assert _starts_at(views.scr, cpu._scr)


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


# ----------------------------------------------------------------------
# Every VL-bound op works on the first vl words and nothing else.
# ----------------------------------------------------------------------
RAM_WORDS = 0x100     # eight float32 words
SSR_INDICES = 0x200   # eight int32 element indices into RAM_WORDS


def _vector_machine(backend: str) -> Cpu:
    """A bare core with both front-end units, RAM operands, a started
    SSR stream and a distinct word in every vector register element."""
    ram = Ram(1 << 12)
    bus = Bus(ram, MemoryPort(latency=2))
    cpu = Cpu(bus, CpuConfig(backend=backend))
    ram.write_array(RAM_WORDS, np.arange(1, 9, dtype=np.float32) * 1.5)
    ram.write_array(SSR_INDICES, np.arange(7, -1, -1, dtype=np.int32))
    cpu.ssr = SSRUnit(ram, bus.mem)
    cpu.ssr.regs.update(idx_base=SSR_INDICES, val_base=RAM_WORDS, length=8)
    cpu.ssr.write_word(SSRMMR.START, 1, 0)
    cpu.indexmac = IndexMACUnit()
    for k, reg in enumerate(cpu.vf):
        reg[:] = k + np.arange(8, dtype=np.float32) / 8
    cpu.vi[1][:] = 4 * np.arange(7, -1, -1)           # byte offsets
    cpu.vi[2][:] = [0, 2, 4, 6, 1, 3, 5, 7]           # element indices
    cpu.f[0] = 2.5
    return cpu


def _state(cpu: Cpu):
    stats = {**cpu.stats(), **cpu.ssr.stats(), **cpu.indexmac.stats()}
    return [r.tobytes() for r in cpu.v], list(cpu.x), cpu.cycle, stats


def _run_at_vl(backend: str, vl: int, body: str):
    cpu = _vector_machine(backend)
    before = [r.copy() for r in cpu.v]
    cpu.run(assemble(f"""\
    li a0, {vl}
    vsetvli t0, a0, e32, m1
    li a1, {RAM_WORDS}
{body}
    halt
"""))
    return cpu, before


#: Every op that writes a vector register, writing v8.
WRITERS = [
    "vle32.v v8, (a1)",
    "vluxei32.v v8, (a1), v1",
    "vfmacc.vv v8, v3, v4",
    "vfredosum.vs v8, v3, v4",
    "vsll.vi v8, v1, 2",
    "vmv.v.i v8, 5",
    "vfmv.s.f v8, ft0",
    "vssrpop.v v8, 0",
    "vlpidx.v v8, (a1), v2",
    "vfmacidx v8, (a1), v2, v3",
]


@pytest.mark.parametrize("op", WRITERS, ids=[op.split()[0] for op in WRITERS])
def test_an_op_below_vlmax_leaves_the_tail_alone(op):
    vl = 3
    states = []
    for backend in BACKENDS:
        cpu, before = _run_at_vl(backend, vl, f"    {op}")
        assert cpu.vl == vl < cpu.vlmax
        for k, (reg, old) in enumerate(zip(cpu.v, before)):
            if k != 8:
                assert reg.tobytes() == old.tobytes(), k
        assert cpu.v[8][vl:].tolist() == before[8][vl:].tolist()
        assert cpu.v[8][:vl].tolist() != before[8][:vl].tolist()
        states.append(_state(cpu))
    assert states[0] == states[1]


def test_vl_zero_leaves_every_register_alone():
    # RVV 1.0: at vl = 0 no op writes its destination, the reduction
    # and the element-0 move vfmv.s.f included.
    body = "\n".join(f"    {op}" for op in WRITERS)
    states = []
    for backend in BACKENDS:
        cpu, before = _run_at_vl(backend, 0, body)
        assert cpu.vl == 0
        assert [r.tobytes() for r in cpu.v] == [r.tobytes() for r in before]
        states.append(_state(cpu))
    assert states[0] == states[1]
    assert states[0][2] > 0


# A VL change right before a front-end op in one compiled block: the op
# indexes the block's views, which the emitted vsetvli switched.
VSET_THEN_FRONT_END = f"""\
    li a1, {RAM_WORDS}
    li t0, 3
    vsetvli t0, t0, e32, m1
    vlpidx.v v8, (a1), v2
    li t0, 8
    vsetvli t0, t0, e32, m1
    vlpidx.v v9, (a1), v2
    li t0, 5
    vsetvli t0, t0, e32, m1
    vfmacidx v10, (a1), v2, v3
    halt
"""


def test_a_vl_change_reaches_the_front_end_ops_in_its_block(monkeypatch):
    monkeypatch.setattr(compiled, "block_cache", {})
    states = []
    for backend in BACKENDS:
        cpu = _vector_machine(backend)
        cpu.run(assemble(VSET_THEN_FRONT_END))
        assert cpu.vl == 5 and cpu.vset is cpu._vsets[5]
        states.append(_state(cpu))
    assert states[0] == states[1]
    # The compiled run was one block.
    (block,) = compiled.block_cache.values()
    assert block.n == len(assemble(VSET_THEN_FRONT_END).instructions)


#: Each front-end op, the unit it needs and the trap without that unit.
SSR_TRAP = ("SSR instruction without the 'ssr' front-end configured "
            "(add an accelerators entry with kind='ssr')")
INDEXMAC_TRAP = ("IndexMAC instruction without the 'indexmac' front-end "
                 "configured (add an accelerators entry with kind='indexmac')")
FRONT_END_OPS = {
    "fssrpop ft1, 0": ("ssr", SSR_TRAP),
    "vssrpop.v v8, 0": ("ssr", SSR_TRAP),
    "vlpidx.v v8, (a1), v2": ("indexmac", INDEXMAC_TRAP),
    "vfmacidx v8, (a1), v2, v3": ("indexmac", INDEXMAC_TRAP),
}


@pytest.mark.parametrize("op", FRONT_END_OPS,
                         ids=[op.split()[0] for op in FRONT_END_OPS])
def test_a_front_end_op_traps_on_a_cpu_without_its_unit(op, monkeypatch):
    """One shared translation of the op traps on a Cpu without the unit,
    on both paths, and then runs on a Cpu with it."""
    monkeypatch.setattr(compiled, "block_cache", {})
    monkeypatch.setattr(compiled, "step_cache", {})
    kind, message = FRONT_END_OPS[op]
    program = assemble(f"    li a1, {RAM_WORDS}\n    {op}\n    halt")
    for backend in BACKENDS:
        cpu = _vector_machine(backend)
        setattr(cpu, kind, None)
        with pytest.raises(SimulationError) as exc:
            cpu.run(program)
        assert str(exc.value) == message
    translated = (dict(compiled.block_cache), dict(compiled.step_cache))
    assert all(translated)
    # What the op writes at VL 8 on _vector_machine: RAM word k is
    # 1.5 * (k + 1), the SSR stream reads words 7..0 and v2 holds the
    # element indices 0 2 4 6 1 3 5 7.
    ram = np.arange(1, 9, dtype=np.float32) * np.float32(1.5)
    gathered = ram[[0, 2, 4, 6, 1, 3, 5, 7]]
    start = _vector_machine("reference").vf
    expected = {"fssrpop": ram[7], "vssrpop.v": ram[::-1],
                "vlpidx.v": gathered,
                "vfmacidx": start[8] + gathered * start[3]}[op.split()[0]]
    states = []
    for backend in BACKENDS:
        cpu = _vector_machine(backend)
        cpu.run(program)
        states.append(_state(cpu))
        got = cpu.f[1] if op.startswith("fssrpop") else cpu.vf[8]
        assert np.array_equal(got, expected)
    # The translations that trapped ran again, not new ones.
    for cache, trapped in zip((compiled.block_cache, compiled.step_cache),
                              translated):
        assert all(cache[key] is block for key, block in trapped.items())
    assert states[0] == states[1]
