"""Unit tests for the compiled (basic-block translation) backend.

Cross-backend *equivalence* is proven by the determinism suite and
``tests/instrument/test_cross_backend.py``; this file tests the
backend's own machinery — the process-wide block cache and when a
translation may be reused, self-loop closures, the budget/PC error
paths, and register-dataflow corner cases against the reference
interpreter.
"""

import pytest

from repro.accel.indexmac import IndexMACUnit
from repro.cpu import (
    CompiledBlock, Cpu, CpuConfig, LatencyTable, SimulationError, compiled,
)
from repro.exec import execute, spmspv_spec, spmv_spec
from repro.isa import assemble
from repro.kernels import spmv_kernel
from repro.memory import Bus, MemoryPort, Ram
from repro.system import Soc, SystemConfig
from repro.workloads.synthetic import random_csr, random_dense_vector


def make_cpu(backend: str = "compiled", *, max_instructions: int | None = None,
             ram_bytes: int = 1 << 16, **config):
    ram = Ram(ram_bytes)
    bus = Bus(ram, MemoryPort(latency=2))
    kwargs: dict = {"backend": backend, **config}
    if max_instructions is not None:
        kwargs["max_instructions"] = max_instructions
    cpu = Cpu(bus, CpuConfig(**kwargs))
    return cpu, ram


@pytest.fixture
def block_cache():
    """The process's translation cache, emptied first, so a test counts
    only the blocks it translates itself, whatever ran before it."""
    compiled.block_cache.clear()
    return compiled.block_cache


COUNT_LOOP = """\
    li t0, 0
    li t1, 50
loop:
    addi t0, t0, 1
    blt t0, t1, loop
    halt
"""


class TestBlockCache:
    def test_blocks_translated_into_process_cache(self, block_cache):
        cpu, _ = make_cpu()
        cpu.run(assemble("li a0, 5\nli a1, 7\nadd a2, a0, a1\nhalt"))
        (block,) = block_cache.values()
        assert isinstance(block, CompiledBlock)
        assert block.n == 4
        assert cpu.x[12] == 12

    def test_blocks_reused_across_runs(self, block_cache):
        cpu, _ = make_cpu()
        program = assemble(COUNT_LOOP)
        cpu.run(program)
        translated = dict(block_cache)
        cpu.run(program)
        assert block_cache == translated    # the same objects: no new ones

    def test_distinct_programs_cached_by_content(self, block_cache):
        cpu, _ = make_cpu()
        cpu.run(assemble("li a0, 1\nhalt"))
        cpu.run(assemble("li a0, 2\nhalt"))
        cpu.run(assemble("li a0, 2\nhalt"))
        assert len(block_cache) == 2

    def test_latency_change_invalidates_cache(self, block_cache):
        cpu, _ = make_cpu()
        program = assemble(COUNT_LOOP)
        cpu.run(program)
        translated = len(block_cache)
        cpu.lat.int_alu += 1  # cycle charges are baked into closures
        cpu.run(program)
        assert len(block_cache) == 2 * translated

    def test_block_cache_is_bounded(self, block_cache, monkeypatch):
        monkeypatch.setattr(compiled, "MAX_BLOCKS", 2)
        cpu, _ = make_cpu()
        for k in range(4):
            cpu.run(assemble(f"li a0, {k}\nhalt"))
            assert cpu.x[10] == k
        assert len(block_cache) == 2


class TestTranslationTelemetry:
    def test_self_loop_compiles_to_loop_block(self, block_cache):
        cpu, _ = make_cpu()
        cpu.run(assemble(COUNT_LOOP))
        assert sum(block.looping for block in block_cache.values()) == 1
        assert cpu.x[5] == 50

    def test_block_source_is_kept(self, block_cache):
        cpu, _ = make_cpu()
        cpu.run(assemble(COUNT_LOOP))
        assert block_cache, "block cache unexpectedly empty"
        for block in block_cache.values():
            assert f"def _block_{block.entry}(" in block.source


def _run_spmv_soc(backend: str, accel: str | None, size: int = 32):
    """A fresh Table-1 SoC running the vector SpMV kernel, and its run."""
    cfg = SystemConfig.paper_table1()
    cfg.cpu.backend = backend
    matrix = random_csr((size, size), 0.5, seed=3)
    soc = Soc(cfg)
    soc.load_csr(matrix)
    soc.load_dense_vector(random_dense_vector(size, seed=4))
    soc.allocate_output(size)
    summary = soc.run(soc.assemble(spmv_kernel(accel=accel, vector=True)))
    return soc, summary, soc.read_output("y", size)


VSET_LOOP = """\
    li a0, 16
    vsetvli t0, a0, e32, m1
    li t1, 3
loop:
    addi t1, t1, -1
    add a1, a1, t0
    bne t1, zero, loop
    halt
"""

# vlpidx.v (IndexMAC) looks the running Cpu's unit up and gathers
# through that Cpu's bus.
FRONT_END_PROGRAM = """\
    li a0, 0x100
    li t0, 1
    vsetvli t0, t0, e32, m1
    vmv.v.i v1, 0
    vlpidx.v v2, (a0), v1
    vfmv.f.s ft0, v2
    fsw ft0, 8(a0)
    lw a1, 8(a0)
    lw a2, 8(a0)
    halt
"""


class TestTranslationReuse:
    """A translation is shared only where it is valid: the key holds
    everything it reads, binding gives it the running Cpu's own bus, and
    a front-end op finds the running Cpu's own unit."""

    @pytest.mark.parametrize("accel", [None, "hht"])
    def test_two_socs_one_program(self, block_cache, accel):
        first, _, _ = _run_spmv_soc("compiled", accel)
        first_stats = first.stats()
        translated = dict(block_cache)
        assert translated
        _, summary, y = _run_spmv_soc("compiled", accel)
        assert block_cache == translated    # the second SoC translated nothing
        assert first.stats() == first_stats  # ... nor reached the first's bus
        _, ref, ref_y = _run_spmv_soc("reference", accel)
        assert summary.cycles == ref.cycles
        assert summary.stats == ref.stats
        assert y.tobytes() == ref_y.tobytes()

    @pytest.mark.parametrize("config", [
        {"latencies": LatencyTable(branch_taken_penalty=3)},
        {"vlmax": 4},
    ], ids=["latency", "vlmax"])
    def test_latency_table_and_vlmax_are_keyed(self, block_cache, config):
        def outcome(backend, **kwargs):
            cpu, _ = make_cpu(backend, **kwargs)
            cpu.run(assemble(VSET_LOOP))
            return list(cpu.x), cpu.cycle, cpu.counters

        base = outcome("compiled")
        assert base == outcome("reference")
        translated = len(block_cache)
        other = outcome("compiled", **config)
        assert len(block_cache) == 2 * translated   # its own translations
        assert other == outcome("reference", **config)
        assert other != base

    def test_a_shared_translation_runs_its_own_cpus_unit(self, block_cache):
        def loaded(backend, word):
            cpu, ram = make_cpu(backend)
            cpu.indexmac = IndexMACUnit()
            ram.write_u32(0x100, word)
            return cpu, ram

        first, first_ram = loaded("compiled", 0x2A)
        first.run(assemble(FRONT_END_PROGRAM))
        first_state = (list(first.x), first.cycle, first_ram.read_u32(0x108))
        translated = dict(block_cache)
        second, second_ram = loaded("compiled", 0x17)
        second.run(assemble(FRONT_END_PROGRAM))
        assert block_cache == translated
        assert (list(first.x), first.cycle,
                first_ram.read_u32(0x108)) == first_state
        ref, ref_ram = loaded("reference", 0x17)
        ref.run(assemble(FRONT_END_PROGRAM))
        assert second.x[11:13] == [0x17, 0x17]
        assert (list(second.x), second.cycle, second.counters) == \
            (list(ref.x), ref.cycle, ref.counters)
        assert second_ram.read_u32(0x108) == ref_ram.read_u32(0x108) == 0x17
        # Each run counted its gather on its own Cpu's unit.
        assert first.indexmac.gathers == second.indexmac.gathers == 1


def _compiled_config() -> SystemConfig:
    cfg = SystemConfig.paper_table1()
    cfg.cpu.backend = "compiled"
    return cfg


class TestSweepShape:
    """``execute()`` builds a new SoC for every point.  A point's operand
    layout reaches only its prologue's ``la``/``li`` immediates, so a
    point with a new layout translates one block and a point with a
    known layout translates none."""

    @pytest.mark.parametrize("make", [
        lambda s, seed: spmv_spec((64, 64), s, accel="hht", matrix_seed=seed,
                                  config=_compiled_config()),
        lambda s, seed: spmspv_spec(64, s, mode="hht_v1", matrix_seed=seed,
                                    vector_seed=seed + 1,
                                    config=_compiled_config()),
    ], ids=["spmv-hht", "spmspv-hht_v1"])
    def test_new_layout_translates_only_its_prologue(self, block_cache, make):
        def new_blocks(sparsity, seed):
            before = set(block_cache)
            execute(make(sparsity, seed))
            return [key[0] for key in block_cache if key not in before]

        assert len(new_blocks(0.5, 0)) == 6
        assert new_blocks(0.9, 0) == [0]     # the prologue, at pc 0
        assert new_blocks(0.5, 7) == []      # same layout, other values
        assert new_blocks(0.9, 7) == []


# Register-dataflow shapes a translator is tempted to special-case
# (constant operands, x0, aliased operands, same-block read-after-write);
# each must run exactly like the per-instruction reference backend.
PARITY_PROGRAMS = {
    "const_branch": """\
    li t0, -3
    li t1, 5
    bge t0, t1, skip
    li a0, 7
skip:
    beq t0, t1, end
    li a1, 1
    blt t0, t1, end
    li a0, 9
end:
    halt
""",
    "const_self_loop_budget": """\
loop:
    li t0, 1
    li t1, 2
    addi a0, a0, 1
    blt t0, t1, loop
    halt
""",
    "x0_writes": """\
    lw zero, 0x100(zero)
    add zero, zero, zero
    li zero, 5
    addi a0, zero, 1
    addi zero, zero, 3
    halt
""",
    "add_self": """\
    li a0, 0x40000000
    add a0, a0, a0
    add a0, a0, a0
    li a1, 3
    add a1, a1, a1
    halt
""",
    "store_of_block_local": """\
    li a0, 5
    li a1, 7
    add a2, a0, a1
    sw a2, 0x100(zero)
    lw a3, 0x100(zero)
    fmv.w.x ft0, a2
    fsw ft0, 0x104(zero)
    flw ft1, 0x104(zero)
    halt
""",
}


class TestReferenceParity:
    @staticmethod
    def _outcome(backend, source):
        # 52 is a whole number of iterations of the 4-instruction
        # self-loop, so a burst could end exactly on the budget.
        cpu, _ = make_cpu(backend, max_instructions=52)
        try:
            cpu.run(assemble(source))
            error = None
        except SimulationError as exc:
            error = str(exc)
        return error, list(cpu.x), list(cpu.f), cpu.cycle, cpu.counters

    @pytest.mark.parametrize("name", sorted(PARITY_PROGRAMS))
    def test_matches_reference(self, name):
        source = PARITY_PROGRAMS[name]
        ref = self._outcome("reference", source)
        assert self._outcome("compiled", source) == ref
        if name == "const_self_loop_budget":
            assert ref[0] == "instruction budget of 52 exhausted in program"
        else:
            assert ref[0] is None


class TestErrorPaths:
    """Budget and PC errors must match the reference path bit-exactly
    (message text and the state at the raise)."""

    def _run_err(self, backend, source, *, max_instructions=None):
        cpu, _ = make_cpu(backend, max_instructions=max_instructions)
        with pytest.raises(SimulationError) as exc:
            cpu.run(assemble(source))
        return str(exc.value), cpu.counters.instructions, cpu.cycle

    @pytest.mark.parametrize("budget", [1, 7, 16, 100, 101, 102, 103])
    def test_budget_exhaustion_identical(self, budget):
        # The loop body re-enters the self-loop closure; the budget may
        # land mid-burst, so every alignment of budget vs block length
        # must fall back to the per-instruction reference tail.
        ref = self._run_err("reference", COUNT_LOOP,
                            max_instructions=budget)
        com = self._run_err("compiled", COUNT_LOOP,
                            max_instructions=budget)
        assert com == ref
        assert f"instruction budget of {budget}" in ref[0]

    def test_pc_out_of_range_identical(self):
        # Falls off the end of the program (no halt).
        ref = self._run_err("reference", "li a0, 1\nli a1, 2")
        com = self._run_err("compiled", "li a0, 1\nli a1, 2")
        assert com == ref
        assert "PC out of range: 2" in ref[0]

    def test_jump_out_of_range_identical(self):
        # A label after the last instruction is one past the end.
        src = "li a0, 1\nj end\nli a1, 2\nend:"
        ref = self._run_err("reference", src)
        com = self._run_err("compiled", src)
        assert com == ref
        assert "PC out of range" in ref[0]


class TestBankedAndCachedDeference:
    """On non-Table-1 memory systems compiled blocks reach the banked
    port through the same bus calls as on the flat one."""

    def test_banked_port_not_inlined(self):
        ram = Ram(1 << 16)
        bus = Bus(ram, MemoryPort(latency=2, banks=4))
        cpu = Cpu(bus, CpuConfig(backend="compiled"))
        cpu.run(assemble(
            "li a0, 0x100\nsw a0, 0(a0)\nlw a1, 0(a0)\nhalt"
        ))
        assert cpu.x[11] == 0x100
