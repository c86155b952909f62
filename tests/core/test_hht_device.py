"""HHT device (front-end) tests: MMR protocol, FIFO reads, stalls, stats."""

import numpy as np
import pytest

from repro.core import HHT, MMR, EngineError, HHTConfig, HHTMode, StreamUnderflow
from repro.formats import CSRMatrix
from repro.memory import MemoryPort, Ram


@pytest.fixture
def machine():
    ram = Ram(1 << 16)
    port = MemoryPort(latency=2)
    hht = HHT(HHTConfig(), ram, port)
    return ram, port, hht


def program_spmv(ram, hht, matrix: CSRMatrix, v: np.ndarray, cycle=0):
    addr = 0x100
    def place(arr):
        nonlocal addr
        base = addr
        arr = np.ascontiguousarray(arr)
        if arr.size:
            ram.write_array(base, arr)
        addr += max(arr.size * 4, 4)
        return base

    hht.write_word(MMR.M_NUM_ROWS, matrix.nrows, cycle)
    hht.write_word(MMR.M_NUM_COLS, matrix.ncols, cycle)
    hht.write_word(MMR.M_ROWS_BASE, place(matrix.rows), cycle)
    hht.write_word(MMR.M_COLS_BASE, place(matrix.cols), cycle)
    hht.write_word(MMR.M_VALS_BASE, place(matrix.vals), cycle)
    hht.write_word(MMR.V_BASE, place(np.asarray(v, np.float32)), cycle)
    hht.write_word(MMR.MODE, int(HHTMode.SPMV), cycle)
    hht.write_word(MMR.START, 1, cycle)


@pytest.fixture
def simple():
    dense = np.array([[1.0, 0, 2.0], [0, 3.0, 0]], dtype=np.float32)
    return CSRMatrix.from_dense(dense), np.array([10.0, 20.0, 30.0], np.float32)


class TestMMRProtocol:
    def test_register_write_read_back(self, machine):
        _, _, hht = machine
        hht.write_word(MMR.M_NUM_ROWS, 42, 0)
        value, _ = hht.read_word(MMR.M_NUM_ROWS, 0)
        assert value == 42

    def test_unmapped_offset_rejected(self, machine):
        _, _, hht = machine
        with pytest.raises(EngineError, match="unmapped"):
            hht.write_word(0xF0, 1, 0)
        with pytest.raises(EngineError, match="unmapped"):
            hht.read_word(0xF0, 0)

    def test_fifo_read_before_start_rejected(self, machine):
        _, _, hht = machine
        with pytest.raises(EngineError, match="before START"):
            hht.read_word(MMR.VVAL_FIFO, 0)

    def test_non_4byte_elements_rejected(self, machine):
        ram, _, hht = machine
        hht.write_word(MMR.ELEM_SIZE, 8, 0)
        with pytest.raises(EngineError, match="4-byte"):
            hht.write_word(MMR.START, 1, 0)

    def test_start_with_zero_bit_is_noop(self, machine):
        _, _, hht = machine
        hht.write_word(MMR.START, 0, 0)
        assert hht.engine is None

    def test_status_register(self, machine, simple):
        ram, _, hht = machine
        matrix, v = simple
        program_spmv(ram, hht, matrix, v)
        done, _ = hht.read_word(MMR.STATUS, 100)
        assert done == 0  # values staged but not yet consumed
        hht.read_burst(MMR.VVAL_FIFO, 3, 200)
        done, _ = hht.read_word(MMR.STATUS, 300)
        assert done == 1


class TestFIFOReads:
    def test_values_match_gather(self, machine, simple):
        ram, _, hht = machine
        matrix, v = simple
        program_spmv(ram, hht, matrix, v)
        values, _ = hht.read_burst(MMR.VVAL_FIFO, 3, 50)
        got = np.array(values, np.uint32).view(np.float32)
        # cols [0, 2, 1] -> v values [10, 30, 20]
        assert got.tolist() == [10.0, 30.0, 20.0]

    def test_scalar_read(self, machine, simple):
        ram, _, hht = machine
        matrix, v = simple
        program_spmv(ram, hht, matrix, v)
        bits, _ = hht.read_word(MMR.VVAL_FIFO, 50)
        assert np.array([bits], np.uint32).view(np.float32)[0] == 10.0

    def test_early_read_stalls_until_ready(self, machine, simple):
        ram, _, hht = machine
        matrix, v = simple
        program_spmv(ram, hht, matrix, v, cycle=0)
        _, completion = hht.read_word(MMR.VVAL_FIFO, 0)
        # Data cannot be ready at cycle 0: the fill needs memory round-trips.
        assert completion > 1
        assert hht.counters.cpu_wait_cycles > 0

    def test_late_read_no_wait(self, machine, simple):
        ram, _, hht = machine
        matrix, v = simple
        program_spmv(ram, hht, matrix, v, cycle=0)
        _, completion = hht.read_word(MMR.VVAL_FIFO, 1000)
        assert completion == 1000 + hht.config.fifo_read_latency
        assert hht.counters.cpu_wait_cycles == 0

    def test_vector_read_pays_per_beat(self, machine, simple):
        ram, _, hht = machine
        matrix, v = simple
        program_spmv(ram, hht, matrix, v)
        _, completion = hht.read_burst(MMR.VVAL_FIFO, 3, 1000)
        cfg = hht.config
        assert completion == 1000 + cfg.fifo_read_latency + 2 * cfg.fifo_beat_per_elem

    def test_overread_raises_underflow(self, machine, simple):
        ram, _, hht = machine
        matrix, v = simple
        program_spmv(ram, hht, matrix, v)
        hht.read_burst(MMR.VVAL_FIFO, 3, 100)
        with pytest.raises(StreamUnderflow):
            hht.read_word(MMR.VVAL_FIFO, 200)

    def test_wrong_stream_for_mode(self, machine, simple):
        ram, _, hht = machine
        matrix, v = simple
        program_spmv(ram, hht, matrix, v)
        with pytest.raises(EngineError, match="not produced"):
            hht.read_word(MMR.COUNT_FIFO, 100)

    def test_vector_load_from_mmr_rejected(self, machine, simple):
        ram, _, hht = machine
        matrix, v = simple
        program_spmv(ram, hht, matrix, v)
        with pytest.raises(EngineError, match="non-FIFO"):
            hht.read_burst(MMR.M_NUM_ROWS, 4, 100)


class TestStatistics:
    def test_snapshot_fields(self, machine, simple):
        ram, _, hht = machine
        matrix, v = simple
        program_spmv(ram, hht, matrix, v)
        hht.read_burst(MMR.VVAL_FIFO, 3, 100)
        stats = hht.stats()
        assert stats["hht.fifo_reads"] == 1
        assert stats["hht.elements_supplied"] == 3
        assert stats["hht.starts"] == 1
        assert "hht.hht_wait_cycles" in stats
        assert "hht.buffers_filled" in stats

    def test_reset_stats(self, machine, simple):
        ram, _, hht = machine
        matrix, v = simple
        program_spmv(ram, hht, matrix, v)
        hht.read_burst(MMR.VVAL_FIFO, 3, 100)
        hht.reset()
        assert hht.stats()["hht.fifo_reads"] == 0

    def test_port_requests_attributed_to_hht(self, machine, simple):
        ram, port, hht = machine
        matrix, v = simple
        program_spmv(ram, hht, matrix, v)
        hht.read_burst(MMR.VVAL_FIFO, 3, 100)
        assert port.counters.by_requester.get("hht", 0) > 0


class TestRestart:
    def test_second_start_reinitialises(self, machine, simple):
        ram, _, hht = machine
        matrix, v = simple
        program_spmv(ram, hht, matrix, v)
        hht.read_burst(MMR.VVAL_FIFO, 3, 100)
        # Restart the same computation.
        hht.write_word(MMR.START, 1, 200)
        values, _ = hht.read_burst(MMR.VVAL_FIFO, 3, 300)
        got = np.array(values, np.uint32).view(np.float32)
        assert got.tolist() == [10.0, 30.0, 20.0]
        assert hht.stats()["hht.starts"] == 2
