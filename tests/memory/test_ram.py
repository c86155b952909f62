"""Functional RAM tests."""

import numpy as np
import pytest

from repro.memory import MemoryAccessError, Ram


class TestWordAccess:
    def test_u32_round_trip(self):
        ram = Ram(1024)
        ram.write_u32(64, 0xDEADBEEF)
        assert ram.read_u32(64) == 0xDEADBEEF

    def test_i32_sign(self):
        ram = Ram(1024)
        ram.write_i32(0, -5)
        assert ram.read_i32(0) == -5
        assert ram.read_u32(0) == 0xFFFFFFFB

    def test_f32_round_trip(self):
        ram = Ram(1024)
        ram.write_f32(8, 3.14159)
        assert ram.read_f32(8) == pytest.approx(3.14159, rel=1e-6)

    def test_u32_write_wraps(self):
        ram = Ram(1024)
        ram.write_u32(0, 0x1_0000_0001)
        assert ram.read_u32(0) == 1

    def test_misaligned_rejected(self):
        ram = Ram(1024)
        with pytest.raises(MemoryAccessError, match="misaligned"):
            ram.read_u32(2)
        with pytest.raises(MemoryAccessError, match="misaligned"):
            ram.write_u32(1, 0)

    def test_out_of_range_rejected(self):
        ram = Ram(1024)
        with pytest.raises(MemoryAccessError, match="out of range"):
            ram.read_u32(1024)
        with pytest.raises(MemoryAccessError):
            ram.read_u32(-4)


class TestArrays:
    def test_write_read_f32(self):
        ram = Ram(1024)
        data = np.linspace(0, 1, 10, dtype=np.float32)
        ram.write_array(128, data)
        assert np.array_equal(ram.read_array(128, 10), data)

    def test_write_read_i32(self):
        ram = Ram(1024)
        data = np.array([-1, 0, 7], dtype=np.int32)
        ram.write_array(0, data)
        assert np.array_equal(ram.read_array(0, 3, np.int32), data)

    def test_read_array_is_copy(self):
        ram = Ram(64)
        ram.write_array(0, np.ones(4, np.float32))
        out = ram.read_array(0, 4)
        out[0] = 99
        assert ram.read_f32(0) == 1.0

    def test_64bit_dtype_rejected(self):
        ram = Ram(64)
        with pytest.raises(MemoryAccessError, match="32-bit"):
            ram.write_array(0, np.zeros(2, np.float64))

    def test_overflow_rejected(self):
        ram = Ram(16)
        with pytest.raises(MemoryAccessError, match="exceeds"):
            ram.write_array(8, np.zeros(4, np.float32))


class TestConstruction:
    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            Ram(0)
        with pytest.raises(ValueError):
            Ram(10)  # not a multiple of 4

    def test_fill(self):
        ram = Ram(16)
        ram.write_u32(0, 123)
        ram.fill(0)
        assert ram.read_u32(0) == 0
