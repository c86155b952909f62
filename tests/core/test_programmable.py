"""Programmable-HHT engine and emit-device tests."""

import gc
import weakref

import numpy as np
import pytest

from repro.analysis.runners import run_spmv_programmable
from repro.core import (
    EmitDevice,
    EngineError,
    HHTConfig,
    ProgrammableEngine,
    helper_core_config,
)
from repro.core.programmable import EMIT_COUNT, EMIT_MVAL, EMIT_VVAL, FIRMWARE_SYMBOLS
from repro.cpu import Cpu, CpuConfig, SimulationError
from repro.formats import CSRMatrix
from repro.isa import assemble
from repro.kernels import FIRMWARES, firmware_spmv_csr
from repro.memory import Bus, MemoryPort, MemorySystem, Ram
from repro.memory.cache import CacheConfig, L1Cache
from repro.system import SystemConfig
from repro.workloads.synthetic import random_csr, random_dense_vector

from .reference_engines import ReferenceProgrammableEngine


def make_mem(kind: str = "flat") -> MemorySystem:
    """A flat port, a 4-bank port or a flat port behind an L1D."""
    port = MemoryPort(banks=4 if kind == "banks4" else 1)
    cache = L1Cache(CacheConfig(), port) if kind == "l1d" else None
    return MemorySystem(port, cache)


def make_engine(matrix: CSRMatrix, v: np.ndarray, firmware=None,
                config: HHTConfig | None = None, *,
                engine_cls=ProgrammableEngine, mem=None, helper_config=None):
    ram = Ram(1 << 16)
    addr = 0x100
    regs = {"m_num_rows": matrix.nrows, "m_num_cols": matrix.ncols}

    def place(key, arr):
        nonlocal addr
        arr = np.ascontiguousarray(arr)
        regs[key] = addr
        if arr.size:
            ram.write_array(addr, arr)
        addr += max(arr.size * 4, 4)

    place("m_rows_base", matrix.rows)
    place("m_cols_base", matrix.cols)
    place("m_vals_base", matrix.vals)
    place("v_base", np.asarray(v, np.float32))
    return engine_cls(
        config or HHTConfig(), mem or make_mem(), 0, ram, regs,
        firmware or firmware_spmv_csr(), helper_config,
    )


def drain(stream):
    """Every staged word, read fill by fill."""
    out = []
    while (piece := stream.read(stream.unconsumed)) is not None:
        out.extend(piece[1].tolist())
    return out


def drain_f32(stream):
    out = drain(stream)
    return np.array(out, np.uint32).view(np.float32).tolist() if out else []


@pytest.fixture
def simple():
    dense = np.array(
        [[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 3.0, 0.0]], np.float32
    )
    return CSRMatrix.from_dense(dense), np.array([10.0, 20.0, 30.0], np.float32)


def helper_cpu() -> Cpu:
    return Cpu(Bus(Ram(1 << 12), MemoryPort()), helper_core_config())


class TestEmitDevice:
    def test_collects_streams(self):
        """One row; its last store halts the helper."""
        cpu = helper_cpu()
        dev = EmitDevice(cpu)
        dev.write_word(EMIT_COUNT, 2, 10)
        dev.write_word(EMIT_MVAL, 0x3F800000, 11)
        dev.write_word(EMIT_VVAL, 0x40000000, 12)
        dev.write_word(EMIT_MVAL, 0x40400000, 13)
        assert (dev.count, dev.count_ready) == (2, 11)
        assert not dev.complete and not cpu.halted
        assert dev.write_word(EMIT_VVAL, 0x40800000, 14) == 15
        assert dev.mvals == [0x3F800000, 0x40400000]
        assert dev.vvals == [0x40000000, 0x40800000]
        assert dev.last_ready == 15
        assert dev.complete and cpu.halted
        dev.clear()
        assert dev.count is None and not dev.mvals and not dev.complete

    def test_empty_row_completes_at_its_count(self):
        cpu = helper_cpu()
        dev = EmitDevice(cpu)
        dev.write_word(EMIT_COUNT, 0, 7)
        assert dev.complete and cpu.halted

    def test_bad_offset_rejected(self):
        with pytest.raises(EngineError, match="emit offset"):
            EmitDevice(helper_cpu()).write_word(0xC, 1, 0)

    def test_write_only(self):
        with pytest.raises(EngineError, match="write-only"):
            EmitDevice(helper_cpu()).read_word(0, 0)
        with pytest.raises(EngineError, match="write-only"):
            EmitDevice(helper_cpu()).read_burst(0, 2, 0)

    def test_holds_no_reference_cycle_with_the_helper(self, simple):
        matrix, v = simple
        engine = make_engine(matrix, v)
        engine.step()
        helper = weakref.ref(engine.helper)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del engine
            assert helper() is None
        finally:
            if was_enabled:
                gc.enable()


class TestProgrammableEngine:
    def test_csr_firmware_streams(self, simple):
        matrix, v = simple
        engine = make_engine(matrix, v)
        while not engine.exhausted:
            engine.step()
        counts = drain(engine.count)
        assert counts == [2, 0, 1]
        assert drain_f32(engine.mval) == [1.0, 2.0, 3.0]
        assert drain_f32(engine.vval) == [10.0, 30.0, 20.0]

    def test_engine_time_tracks_helper(self, simple):
        matrix, v = simple
        engine = make_engine(matrix, v)
        engine.step()
        assert engine.time == engine.helper.cycle > 0
        assert engine.helper.counters.instructions > 0

    def test_helper_traffic_labelled_hht(self, simple):
        matrix, v = simple
        engine = make_engine(matrix, v)
        engine.step()
        assert engine.port.counters.by_requester.get("hht", 0) > 0
        assert engine.port.counters.by_requester.get("cpu", 0) == 0

    def test_empty_matrix(self):
        matrix = CSRMatrix.empty((0, 4))
        engine = make_engine(matrix, np.ones(4, np.float32))
        assert engine.exhausted
        assert engine.drained()

    def test_firmware_halting_mid_row_detected(self, simple):
        matrix, v = simple
        bad = assemble(
            "li t0, 1\nsw t0, 0(s4)\nhalt",  # promises 1 pair, emits none
            symbols=FIRMWARE_SYMBOLS,
        )
        engine = make_engine(matrix, v, firmware=bad)
        with pytest.raises(EngineError, match="middle of a row"):
            engine.step()

    def test_double_count_detected(self, simple):
        matrix, v = simple
        bad = assemble(
            "li t0, 2\nsw t0, 0(s4)\nsw t0, 0(s4)\nhalt",
            symbols=FIRMWARE_SYMBOLS,
        )
        engine = make_engine(matrix, v, firmware=bad)
        with pytest.raises(EngineError, match="second count"):
            engine.step()

    def test_capacity_gating(self, simple):
        matrix, v = simple
        engine = make_engine(matrix, v, config=HHTConfig(n_buffers=1))
        engine.pump(0)
        # One count slot: at most one row ahead.
        assert engine.count.occupied_slots == 1
        assert not engine.exhausted

    def test_helper_core_config_scalar(self):
        cfg = helper_core_config()
        assert cfg.vlmax == 1


def consume(engine):
    """Drive *engine* as the consumer kernel would: pump, read one
    buffer's worth from each stream in turn, advance the clock past it
    and pump again.  Returns every piece read, per stream."""
    pieces = {name: [] for name in engine.streams}
    now = 0
    engine.pump(now)
    guard = 0
    while not engine.drained():
        for name, stream in engine.streams.items():
            piece = stream.read(stream.buffer_elems)
            if piece is not None:
                ready, words = piece
                pieces[name].append((ready, words.tolist()))
                now = max(now, ready) + 1
            engine.pump(now)
        guard += 1
        assert guard < 10_000, "consumer failed to drain the engine"
    return pieces


def helper_state(engine):
    helper = engine.helper
    return (engine.time, engine.wait_for_buffer_cycles,
            engine.buffers_filled, helper.cycle, engine.session._pc,
            helper.counters.instructions, helper.counters.class_cycles,
            engine.mem.stats(), engine.port.next_free_slot)


def raised(engine_cls, firmware, exc=EngineError, helper_config=None):
    """The *exc* a firmware raises on *engine_cls* within 100 rows, and
    the helper's instruction count when it was raised."""
    dense = np.array([[1.0, 2.0], [0.0, 3.0]], np.float32)
    engine = make_engine(CSRMatrix.from_dense(dense),
                         np.ones(2, np.float32), firmware,
                         engine_cls=engine_cls, helper_config=helper_config)
    with pytest.raises(exc) as excinfo:
        for _ in range(100):
            engine.step()
    return str(excinfo.value), engine.helper.counters.instructions


class TestRowBoundary:
    """A row per resumed run: the helper stops at the store that
    completes the row, as one-instruction stepping did."""

    @pytest.mark.parametrize("mem", ["flat", "banks4", "l1d"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_match_per_instruction_reference(self, mem, seed):
        rng = np.random.default_rng(seed)
        dense = rng.uniform(0.1, 1.0, (12, 10)).astype(np.float32)
        dense[rng.random((12, 10)) < 0.6] = 0.0
        dense[3] = 0.0                      # an empty row
        matrix = CSRMatrix.from_dense(dense)
        v = rng.uniform(0.1, 1.0, 10).astype(np.float32)
        config = HHTConfig(n_buffers=1 + seed % 2, buffer_elems=4)
        runs = []
        for cls in (ProgrammableEngine, ReferenceProgrammableEngine):
            engine = make_engine(matrix, v, config=config, engine_cls=cls,
                                 mem=make_mem(mem))
            runs.append((consume(engine), helper_state(engine)))
        assert runs[0] == runs[1]
        assert [len(w) for _, w in runs[0][0]["count"]] == [1] * 12

    @pytest.mark.parametrize("mem", ["flat", "banks4", "l1d"])
    @pytest.mark.parametrize("fmt", sorted(FIRMWARES))
    def test_runs_match_reference_for_every_firmware(self, fmt, mem,
                                                     monkeypatch):
        matrix = random_csr((32, 32), 0.7, seed=3)
        v = random_dense_vector(32, seed=4)
        config = SystemConfig.paper_table1()
        config.banks = 4 if mem == "banks4" else 1
        config.cache = CacheConfig() if mem == "l1d" else None
        summaries = [run_spmv_programmable(matrix, v, format_name=fmt,
                                           config=config)]
        monkeypatch.setattr("repro.core.programmable.ProgrammableEngine",
                            ReferenceProgrammableEngine)
        summaries.append(run_spmv_programmable(matrix, v, format_name=fmt,
                                               config=config))
        assert summaries[0].cycles == summaries[1].cycles
        assert summaries[0].stats == summaries[1].stats

    @pytest.mark.parametrize("source, message", [
        ("li t0, 2\nsw t0, 0(s4)\nsw t0, 0(s4)\nhalt",
         "firmware emitted a second count before completing the previous "
         "row's pairs"),
        ("li t0, 1\nsw t0, 0(s4)\nhalt",
         "firmware halted in the middle of a row"),
        ("li t0, 1\nsw t0, 12(s4)\nhalt",
         "firmware stored to bad emit offset 0xc"),
    ], ids=["second-count", "halt-mid-row", "bad-offset"])
    def test_error_texts_unchanged(self, source, message):
        firmware = assemble(source, symbols=FIRMWARE_SYMBOLS, name="bad")
        for cls in (ProgrammableEngine, ReferenceProgrammableEngine):
            assert raised(cls, firmware)[0] == message

    def test_runaway_firmware_hits_budget_at_same_instruction(self):
        """Empty rows forever: every run ends at its row's store, and the
        budget still counts from the session's construction."""
        firmware = assemble("spin: sw x0, 0(s4)\nj spin",
                            symbols=FIRMWARE_SYMBOLS, name="runaway")
        helper_config = CpuConfig(vlmax=1, max_instructions=41)
        results = [raised(cls, firmware, SimulationError, helper_config)
                   for cls in (ProgrammableEngine,
                               ReferenceProgrammableEngine)]
        assert results[0] == results[1] == (
            "instruction budget of 41 exhausted in runaway", 41)

    @pytest.mark.parametrize("via", ["config", "environment"])
    def test_compiled_helper_stops_at_completing_store(self, via,
                                                       monkeypatch):
        """A compiled block would run past the store; the helper runs one
        instruction per dispatch on either backend."""
        firmware = assemble(
            "row: sw x0, 0(s4)\naddi t1, t1, 1\naddi t2, t2, 1\nj row",
            symbols=FIRMWARE_SYMBOLS, name="rows")
        if via == "config":
            helper_config = CpuConfig(vlmax=1, backend="compiled")
        else:
            monkeypatch.setenv("REPRO_BACKEND", "compiled")
            helper_config = None
        dense = np.ones((4, 2), np.float32)
        engine = make_engine(CSRMatrix.from_dense(dense),
                             np.ones(2, np.float32), firmware,
                             helper_config=helper_config)
        assert engine.helper.config.backend == "compiled"
        for row in range(3):
            engine.step()
            assert engine.session._pc == 1
            assert engine.helper.x[6] == engine.helper.x[7] == row
        assert engine.helper.counters.instructions == 1 + 4 * 2
