"""Programmable-HHT engine and emit-device tests."""

import numpy as np
import pytest

from repro.core import (
    EmitDevice,
    EngineError,
    HHTConfig,
    ProgrammableEngine,
    helper_core_config,
)
from repro.core.programmable import EMIT_COUNT, EMIT_MVAL, EMIT_VVAL, FIRMWARE_SYMBOLS
from repro.formats import CSRMatrix
from repro.isa import assemble
from repro.kernels import firmware_spmv_csr
from repro.memory import MemoryPort, Ram


def make_engine(matrix: CSRMatrix, v: np.ndarray, firmware=None,
                config: HHTConfig | None = None):
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
    return ProgrammableEngine(
        config or HHTConfig(), MemoryPort(), 0, ram, regs,
        firmware or firmware_spmv_csr(),
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


class TestEmitDevice:
    def test_collects_streams(self):
        dev = EmitDevice()
        dev.write_word(EMIT_COUNT, 2, 10)
        dev.write_word(EMIT_MVAL, 0x3F800000, 11)
        dev.write_word(EMIT_VVAL, 0x40000000, 12)
        assert list(dev.pending) == [
            ("count", 2, 11), ("mval", 0x3F800000, 12), ("vval", 0x40000000, 13),
        ]

    def test_bad_offset_rejected(self):
        with pytest.raises(EngineError, match="emit offset"):
            EmitDevice().write_word(0xC, 1, 0)

    def test_write_only(self):
        with pytest.raises(EngineError, match="write-only"):
            EmitDevice().read_word(0, 0)
        with pytest.raises(EngineError, match="write-only"):
            EmitDevice().read_burst(0, 2, 0)


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
        assert engine.time == engine.helper.cycle
        assert engine.helper_cycles > 0
        assert engine.helper_instructions > 0

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
