"""Byte-addressable RAM backing store with fast typed word views.

The functional half of the memory system (the timing half lives in
:mod:`repro.memory.port`).  Storage is one ``uint8`` numpy buffer with
``uint32``/``int32``/``float32`` views sharing the same bytes, so aligned
word accesses — the overwhelmingly common case in the kernels — cost one
numpy scalar index.
"""

from __future__ import annotations

import numpy as np


class MemoryAccessError(Exception):
    """Raised on out-of-range or misaligned accesses."""


class Ram:
    """Functional RAM: little-endian, word-aligned fast paths."""

    def __init__(self, size_bytes: int):
        if size_bytes <= 0 or size_bytes % 4 != 0:
            raise ValueError(f"RAM size must be a positive multiple of 4, got {size_bytes}")
        self.size = int(size_bytes)
        self._bytes = np.zeros(self.size, dtype=np.uint8)
        self._u32 = self._bytes.view(np.uint32)
        self._i32 = self._bytes.view(np.int32)
        self._f32 = self._bytes.view(np.float32)

    # ------------------------------------------------------------------
    # Word access (aligned)
    # ------------------------------------------------------------------
    def _word_index(self, addr: int) -> int:
        if addr & 3:
            raise MemoryAccessError(f"misaligned word access at 0x{addr:08x}")
        if not (0 <= addr < self.size):
            raise MemoryAccessError(f"word access out of range at 0x{addr:08x}")
        return addr >> 2

    def read_u32(self, addr: int) -> int:
        return int(self._u32[self._word_index(addr)])

    def read_i32(self, addr: int) -> int:
        return int(self._i32[self._word_index(addr)])

    def read_f32(self, addr: int) -> float:
        return float(self._f32[self._word_index(addr)])

    def write_u32(self, addr: int, value: int) -> None:
        self._u32[self._word_index(addr)] = np.uint32(value & 0xFFFFFFFF)

    def write_i32(self, addr: int, value: int) -> None:
        self._i32[self._word_index(addr)] = np.int32(value)

    def write_f32(self, addr: int, value: float) -> None:
        self._f32[self._word_index(addr)] = np.float32(value)

    # ------------------------------------------------------------------
    # Sub-word access (for lb/lh/sb/sh completeness)
    # ------------------------------------------------------------------
    def read_u8(self, addr: int) -> int:
        if not (0 <= addr < self.size):
            raise MemoryAccessError(f"byte access out of range at 0x{addr:08x}")
        return int(self._bytes[addr])

    def write_u8(self, addr: int, value: int) -> None:
        if not (0 <= addr < self.size):
            raise MemoryAccessError(f"byte access out of range at 0x{addr:08x}")
        self._bytes[addr] = np.uint8(value & 0xFF)

    def read_u16(self, addr: int) -> int:
        if addr & 1:
            raise MemoryAccessError(f"misaligned halfword access at 0x{addr:08x}")
        if not (0 <= addr + 1 < self.size):
            raise MemoryAccessError(f"halfword access out of range at 0x{addr:08x}")
        return int(self._bytes[addr]) | (int(self._bytes[addr + 1]) << 8)

    def write_u16(self, addr: int, value: int) -> None:
        if addr & 1:
            raise MemoryAccessError(f"misaligned halfword access at 0x{addr:08x}")
        if not (0 <= addr + 1 < self.size):
            raise MemoryAccessError(f"halfword access out of range at 0x{addr:08x}")
        self._bytes[addr] = np.uint8(value & 0xFF)
        self._bytes[addr + 1] = np.uint8((value >> 8) & 0xFF)

    # ------------------------------------------------------------------
    # Bulk array access (used by the loader and result extraction)
    # ------------------------------------------------------------------
    def write_array(self, addr: int, array: np.ndarray) -> None:
        """Copy a 1-D 32-bit numpy array into memory at *addr* (aligned)."""
        arr = np.ascontiguousarray(array)
        if arr.dtype.itemsize != 4:
            raise MemoryAccessError(f"write_array requires a 32-bit dtype, got {arr.dtype}")
        idx = self._word_index(addr)
        if idx + arr.size > self._u32.size:
            raise MemoryAccessError(
                f"array of {arr.size} words at 0x{addr:08x} exceeds RAM size"
            )
        self._u32[idx : idx + arr.size] = arr.view(np.uint32)

    def read_array(self, addr: int, count: int, dtype=np.float32) -> np.ndarray:
        """Read *count* 32-bit words at *addr* as a copy with the given dtype."""
        dtype = np.dtype(dtype)
        if dtype.itemsize != 4:
            raise MemoryAccessError(f"read_array requires a 32-bit dtype, got {dtype}")
        idx = self._word_index(addr)
        if idx + count > self._u32.size:
            raise MemoryAccessError(
                f"array of {count} words at 0x{addr:08x} exceeds RAM size"
            )
        return self._u32[idx : idx + count].view(dtype).copy()

    def read_words(self, addrs: list[int]) -> np.ndarray:
        """The u32 words at aligned, in-range byte addresses *addrs*."""
        return self._u32[[addr >> 2 for addr in addrs]]

    def fill(self, value: int = 0) -> None:
        self._bytes[:] = np.uint8(value & 0xFF)
