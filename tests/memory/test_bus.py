"""Bus routing and device-mapping tests."""

import numpy as np
import pytest

from repro.core import HHT, HHT_BASE, MMR, EngineError, HHTConfig, HHTMode
from repro.core.hht import _FIFO_STREAMS
from repro.memory import MMIO_BASE, Bus, MemoryAccessError, MemoryPort, Ram
from repro.workloads import random_csr, random_sparse_vector


class StubDevice:
    """Records accesses; returns offset-derived values with +5 latency."""

    def __init__(self):
        self.writes = []

    def read_word(self, offset, cycle):
        return offset * 2, cycle + 5

    def write_word(self, offset, value, cycle):
        self.writes.append((offset, value))
        return cycle + 1

    def read_burst(self, offset, count, cycle):
        return [offset + i for i in range(count)], cycle + 5 + count


@pytest.fixture
def system():
    ram = Ram(4096)
    bus = Bus(ram, MemoryPort(latency=2))
    device = StubDevice()
    bus.attach_device(MMIO_BASE, 0x100, device)
    return bus, ram, device


class TestRamRouting:
    def test_load_word(self, system):
        bus, ram, _ = system
        ram.write_u32(100 * 4, 42)
        value, completion = bus.load_word(400, cycle=7)
        assert value == 42
        assert completion == 9  # latency 2

    def test_store_word(self, system):
        bus, ram, _ = system
        bus.store_word(0x10, 99, cycle=0)
        assert ram.read_u32(0x10) == 99

    def test_load_burst(self, system):
        bus, ram, _ = system
        for i in range(4):
            ram.write_u32(0x20 + 4 * i, i + 1)
        values, completion = bus.load_burst(0x20, 4, cycle=0)
        assert values.tolist() == [1, 2, 3, 4]
        assert completion == 5  # beats 0..3, last completes at 3+2

    def test_empty_burst_is_u32_array(self, system):
        bus, _, _ = system
        values, completion = bus.load_burst(0x20, 0, cycle=3)
        assert values.dtype == np.uint32 and values.size == 0
        assert completion == 3

    def test_burst_beyond_ram_rejected(self, system):
        bus, _, _ = system
        with pytest.raises(MemoryAccessError, match="exceeds"):
            bus.load_burst(4096 - 8, 4, cycle=0)


class TestDeviceRouting:
    def test_device_read(self, system):
        bus, _, _ = system
        value, completion = bus.load_word(MMIO_BASE + 8, cycle=10)
        assert value == 16
        assert completion == 15

    def test_device_write(self, system):
        bus, _, device = system
        bus.store_word(MMIO_BASE + 4, 123, cycle=0)
        assert device.writes == [(4, 123)]

    def test_device_burst(self, system):
        """A device that lists no FIFOs gets every burst as read_burst."""
        bus, _, device = system
        assert not hasattr(device, "fifo_readers")
        values, completion = bus.load_burst(MMIO_BASE, 3, cycle=0)
        assert values == [0, 1, 2]
        assert completion == 0 + 5 + 3

    def test_unmapped_address(self, system):
        bus, _, _ = system
        with pytest.raises(MemoryAccessError, match="no device"):
            bus.load_word(MMIO_BASE + 0x1000, cycle=0)

    def test_device_access_does_not_use_ram_port(self, system):
        bus, _, _ = system
        bus.load_word(MMIO_BASE, cycle=0)
        assert bus.port.counters.requests == 0


class TestDeviceLookup:
    """The bus bisects a sorted base list; cover every lookup regime."""

    @pytest.fixture
    def multi(self):
        bus = Bus(Ram(4096), MemoryPort(latency=2))
        devices = [StubDevice() for _ in range(3)]
        # Attach out of order: the sorted insert must still route right.
        bus.attach_device(MMIO_BASE + 0x400, 0x100, devices[2])
        bus.attach_device(MMIO_BASE, 0x100, devices[0])
        bus.attach_device(MMIO_BASE + 0x200, 0x100, devices[1])
        return bus, devices

    def test_bases_kept_sorted(self, multi):
        bus, _ = multi
        assert bus._device_bases == sorted(bus._device_bases)

    @pytest.mark.parametrize("index,base_off", [(0, 0x0), (1, 0x200), (2, 0x400)])
    def test_routes_to_correct_device(self, multi, index, base_off):
        bus, devices = multi
        bus.store_word(MMIO_BASE + base_off + 8, 77, cycle=0)
        assert devices[index].writes == [(8, 77)]
        for i, dev in enumerate(devices):
            if i != index:
                assert dev.writes == []

    def test_last_word_of_region(self, multi):
        bus, devices = multi
        bus.store_word(MMIO_BASE + 0x2FC, 1, cycle=0)
        assert devices[1].writes == [(0xFC, 1)]

    def test_gap_between_devices_unmapped(self, multi):
        bus, _ = multi
        with pytest.raises(MemoryAccessError, match="no device"):
            bus.load_word(MMIO_BASE + 0x100, cycle=0)

    def test_below_first_device_unmapped(self):
        bus = Bus(Ram(4096), MemoryPort(latency=2))
        bus.attach_device(MMIO_BASE + 0x100, 0x10, StubDevice())
        with pytest.raises(MemoryAccessError, match="no device"):
            bus.load_word(MMIO_BASE + 0x50, cycle=0)

    def test_past_last_device_unmapped(self, multi):
        bus, _ = multi
        with pytest.raises(MemoryAccessError, match="no device"):
            bus.load_word(MMIO_BASE + 0x500, cycle=0)


class TestAttachment:
    def test_below_mmio_base_rejected(self, system):
        bus, _, _ = system
        with pytest.raises(ValueError, match="MMIO_BASE"):
            bus.attach_device(0x1000, 0x10, StubDevice())

    def test_overlap_rejected(self, system):
        bus, _, _ = system
        with pytest.raises(ValueError, match="overlaps"):
            bus.attach_device(MMIO_BASE + 0x80, 0x100, StubDevice())

    def test_adjacent_devices_allowed(self, system):
        bus, _, _ = system
        bus.attach_device(MMIO_BASE + 0x100, 0x10, StubDevice())
        value, _ = bus.load_word(MMIO_BASE + 0x104, cycle=0)
        assert value == 8


def _variant1_hht(bus: Bus, base: int, seed: int) -> HHT:
    """An HHT attached at *base* and started in SpMSpV variant 1, which
    feeds all three FIFOs (count, matrix values, vector values)."""
    matrix = random_csr((16, 16), 0.5, seed=seed)
    sv = random_sparse_vector(16, 0.5, seed=seed + 1)
    hht = HHT(HHTConfig(), bus.ram, bus.mem, name=f"hht@{base:x}")
    bus.attach_device(base, MMR.REGION_SIZE, hht)
    addr = 0x100 + 0x2000 * (base - HHT_BASE) // MMR.REGION_SIZE

    def place(arr):
        nonlocal addr
        start = addr
        arr = np.ascontiguousarray(arr)
        bus.ram.write_array(start, arr)
        addr += max(arr.size * 4, 4)
        return start

    for reg, value in (
        (MMR.M_NUM_ROWS, matrix.nrows),
        (MMR.M_NUM_COLS, matrix.ncols),
        (MMR.M_ROWS_BASE, place(matrix.rows)),
        (MMR.M_COLS_BASE, place(matrix.cols)),
        (MMR.M_VALS_BASE, place(matrix.vals)),
        (MMR.V_NNZ, sv.nnz),
        (MMR.V_IDX_BASE, place(sv.indices)),
        (MMR.V_VALS_BASE, place(sv.padded_values())),
        (MMR.MODE, int(HHTMode.SPMSPV_ALIGNED)),
        (MMR.START, 1),
    ):
        hht.write_word(reg, value, 0)
    return hht


def _drain_variant1(read, rows: int = 16):
    """Every row's count, then its matrix/vector values eight at a time,
    through ``read(offset, count, cycle)``; returns each read's words
    and completion."""
    out = []
    cycle = 0
    for _ in range(rows):
        words, cycle = read(MMR.COUNT_FIFO, 1, cycle)
        out.append((words.tolist(), cycle))
        left = int(words[0])
        while left:
            chunk = min(8, left)
            for offset in (MMR.MVAL_FIFO, MMR.VVAL_FIFO):
                words, cycle = read(offset, chunk, cycle)
                out.append((offset, words.tolist(), cycle))
            left -= chunk
    return out


class TestFifoRouting:
    """``Bus.load_word`` and ``Bus.load_burst`` serve a listed FIFO
    address by calling the device's reader directly; every other address
    keeps the device lookup and ``read_word``/``read_burst``, with their
    errors."""

    @staticmethod
    def _bus():
        return Bus(Ram(1 << 16), MemoryPort(latency=2))

    def test_bus_fifo_loads_match_fifo_read_on_a_twin(self):
        bus, twin_bus = self._bus(), self._bus()
        hht = _variant1_hht(bus, HHT_BASE, seed=31)
        twin = _variant1_hht(twin_bus, HHT_BASE, seed=31)
        routed = _drain_variant1(
            lambda off, n, cycle: bus.load_burst(HHT_BASE + off, n, cycle))
        direct = _drain_variant1(
            lambda off, n, cycle: twin._fifo_read(_FIFO_STREAMS[off], n, cycle))
        assert {entry[0] for entry in routed if len(entry) == 3} == {
            MMR.MVAL_FIFO, MMR.VVAL_FIFO}
        assert routed == direct
        assert hht.stats() == twin.stats()
        assert bus.stats() == twin_bus.stats()
        assert hht.counters.fifo_reads == len(routed)

    def test_fifo_load_skips_the_device_lookup(self, monkeypatch):
        bus = self._bus()
        hht = _variant1_hht(bus, HHT_BASE, seed=31)

        def lookup(addr):
            raise AssertionError(f"device lookup for 0x{addr:08x}")

        monkeypatch.setattr(bus, "_find_device", lookup)
        words, _ = bus.load_burst(HHT_BASE + MMR.COUNT_FIFO, 1, 0)
        assert hht.counters.fifo_reads == 1
        assert words.dtype == np.uint32

    def test_scalar_fifo_load_matches_fifo_read_without_lookup(
            self, monkeypatch):
        """An ``lw`` of COUNT or an ``flw`` of VVAL is a one-element FIFO
        read: the same word and completion as ``_fifo_read`` on a twin,
        and no device lookup."""
        bus, twin_bus = self._bus(), self._bus()
        hht = _variant1_hht(bus, HHT_BASE, seed=31)
        twin = _variant1_hht(twin_bus, HHT_BASE, seed=31)

        def lookup(addr):
            raise AssertionError(f"device lookup for 0x{addr:08x}")

        monkeypatch.setattr(bus, "_find_device", lookup)
        cycle = twin_cycle = 0
        for offset in (MMR.COUNT_FIFO, MMR.VVAL_FIFO):
            value, cycle = bus.load_word(HHT_BASE + offset, cycle)
            words, twin_cycle = twin._fifo_read(_FIFO_STREAMS[offset], 1,
                                                twin_cycle)
            assert type(value) is int
            assert (value, cycle) == (int(words[0]), twin_cycle)
        assert hht.counters.fifo_reads == 2
        assert hht.stats() == twin.stats()
        assert bus.stats() == twin_bus.stats()

    def test_non_fifo_hht_offset_rejected(self):
        bus = self._bus()
        _variant1_hht(bus, HHT_BASE, seed=31)
        with pytest.raises(EngineError,
                           match="vector load from non-FIFO HHT offset 0x00"):
            bus.load_burst(HHT_BASE + MMR.M_NUM_ROWS, 4, 0)

    def test_unmapped_address_rejected(self):
        bus = self._bus()
        _variant1_hht(bus, HHT_BASE, seed=31)
        with pytest.raises(MemoryAccessError, match="no device mapped"):
            bus.load_burst(HHT_BASE + MMR.REGION_SIZE + MMR.VVAL_FIFO, 4, 0)

    def test_each_fifo_reaches_its_own_hht(self):
        bus = self._bus()
        second_base = HHT_BASE + MMR.REGION_SIZE
        first = _variant1_hht(bus, HHT_BASE, seed=31)
        second = _variant1_hht(bus, second_base, seed=41)
        bus.load_burst(second_base + MMR.COUNT_FIFO, 1, 0)
        assert (first.counters.fifo_reads, second.counters.fifo_reads) == (0, 1)
        bus.load_burst(HHT_BASE + MMR.COUNT_FIFO, 1, 0)
        assert (first.counters.fifo_reads, second.counters.fifo_reads) == (1, 1)
