"""System bus: routes CPU/HHT accesses to RAM or memory-mapped devices.

Address layout (32-bit physical space):

* ``[0, ram_size)`` — on-chip RAM (Table 1: 1 MB by default, configurable).
* ``[MMIO_BASE, ...)`` — memory-mapped devices; the HHT's configuration
  registers and its CPU-side FIFO load addresses live here (Section 3.1:
  "programming is performed by writing to a set of memory-mapped
  registers").

RAM accesses pay for an issue slot on the shared :class:`MemoryPort`;
device accesses are handled by the device, which returns its own
completion cycle (the HHT front-end uses this to stall CPU loads until a
buffer is ready).  A device that serves stream FIFOs lists them at
attach time (``fifo_readers``), and a load of either width from one of
those addresses — ``lw``/``flw`` or ``vle32.v`` — goes straight to the
device's reader.

Multi-word RAM traffic (loads only: the kernels store one word at a
time) moves numpy word slices and is timed by the :class:`MemorySystem`
shapes (sequential reads, pipelined and chained gathers), one call each.
A burst load returns the words without a copy, so its caller copies
them out before the next store.
A gather with any element outside RAM — or misaligned, or on a
translating bus — is loaded element by element through ``load_word``
by :func:`load_each`, so devices and faults see the exact reference
order.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Sequence
from typing import Protocol

import numpy as np

from ..component import SimComponent
from .cache import L1Cache
from .hierarchy import MemorySystem
from .port import MemoryPort, present_chained, present_pipelined
from .ram import MemoryAccessError, Ram

#: Base of the memory-mapped I/O region.
MMIO_BASE = 0x4000_0000


class MMIODevice(Protocol):
    """Protocol for bus-attached devices (implemented by the HHT FE)."""

    def read_word(self, offset: int, cycle: int) -> tuple[int, int]:
        """Return ``(u32_value, completion_cycle)`` for a load at *offset*."""
        ...

    def write_word(self, offset: int, value: int, cycle: int) -> int:
        """Handle a store; return its completion cycle."""
        ...

    def read_burst(self, offset: int, count: int,
                   cycle: int) -> tuple[np.ndarray, int]:
        """Return ``(u32 words, completion_cycle)`` for a *count*-element
        vector load at *offset* that is not a listed FIFO."""
        ...


#: ``(read, stream)``: a device's FIFO reader, called as
#: ``read(stream, count, cycle)`` like ``read_burst`` (``count`` is 1 for
#: a scalar load).  A device with FIFOs lists them as
#: ``fifo_readers() -> {offset: FifoReader}``.
FifoReader = tuple[Callable[[str, int, int], tuple[np.ndarray, int]], str]


def load_each(load_word: Callable, addrs: Sequence[int], cycle: int,
              requester: str | None,
              step: int | None = None) -> tuple[np.ndarray, int]:
    """Per-element gather through *load_word*: pipelined
    (:func:`present_pipelined`) with *step*, chained
    (:func:`present_chained`) without; returns ``(u32 words,
    completion)``."""
    values: list[int] = []

    def access(addr: int, at: int, requester: str | None) -> int:
        value, done = load_word(addr, at, requester)
        values.append(value)
        return done

    if step is None:
        done = present_chained(access, addrs, cycle, requester)
    else:
        done = present_pipelined(access, addrs, 0, len(addrs), cycle,
                                 requester, step)
    return np.array(values, dtype=np.uint32), done


class Bus(SimComponent):
    """Routes word accesses by address and charges port timing for RAM.

    ``default_requester`` labels port traffic when the caller does not —
    the main CPU's bus uses "cpu"; the programmable HHT's helper core
    gets its own bus labelled after its HHT so contention accounting
    stays right.

    As a component the bus is transparent (empty name): its memory
    system's port and cache register directly under the parent's path.
    Devices are *not* bus children — the SoC owns them.
    """

    def __init__(
        self,
        ram: Ram,
        port: MemoryPort,
        default_requester: str = "cpu",
        cache: L1Cache | None = None,
    ):
        super().__init__("")
        self.ram = ram
        self.port = port
        self.mem = MemorySystem(port, cache)
        self.add_child(self.mem)
        self.default_requester = default_requester
        # Sorted by base so lookups can bisect.
        self._devices: list[tuple[int, int, MMIODevice]] = []
        self._device_bases: list[int] = []
        # Absolute FIFO address -> reader: a load of either width from a
        # FIFO skips the bisect and the device's offset decode.
        self._fifos: dict[int, FifoReader] = {}

    def attach_device(self, base: int, size: int, device: MMIODevice) -> None:
        """Map *device* at ``[base, base+size)``; must not overlap RAM/devices."""
        if base < MMIO_BASE:
            raise ValueError(
                f"device base 0x{base:08x} must be >= MMIO_BASE 0x{MMIO_BASE:08x}"
            )
        for other_base, other_size, _ in self._devices:
            if base < other_base + other_size and other_base < base + size:
                raise ValueError(
                    f"device at 0x{base:08x} overlaps existing device at 0x{other_base:08x}"
                )
        idx = bisect_right(self._device_bases, base)
        self._devices.insert(idx, (base, size, device))
        self._device_bases.insert(idx, base)
        fifo_readers = getattr(device, "fifo_readers", None)
        if fifo_readers is not None:
            for offset, reader in fifo_readers().items():
                self._fifos[base + offset] = reader

    def _find_device(self, addr: int) -> tuple[int, MMIODevice]:
        idx = bisect_right(self._device_bases, addr) - 1
        if idx >= 0:
            base, size, device = self._devices[idx]
            if addr < base + size:
                return addr - base, device
        raise MemoryAccessError(f"no device mapped at 0x{addr:08x}")

    # ------------------------------------------------------------------
    # Word access with timing
    # ------------------------------------------------------------------
    def load_word(self, addr: int, cycle: int, requester: str | None = None) -> tuple[int, int]:
        """Load a 32-bit word; returns ``(u32_value, completion_cycle)``."""
        requester = requester or self.default_requester
        if addr < self.ram.size:
            completion = self.mem.read(addr, cycle, requester)
            return self.ram.read_u32(addr), completion
        fifo = self._fifos.get(addr)
        if fifo is not None:
            read, stream = fifo
            values, completion = read(stream, 1, cycle)
            return int(values[0]), completion
        offset, device = self._find_device(addr)
        return device.read_word(offset, cycle)

    def store_word(self, addr: int, value: int, cycle: int, requester: str | None = None) -> int:
        """Store a 32-bit word; returns the completion cycle."""
        requester = requester or self.default_requester
        if addr < self.ram.size:
            completion = self.mem.write(addr, cycle, requester)
            self.ram.write_u32(addr, value)
            return completion
        offset, device = self._find_device(addr)
        return device.write_word(offset, value, cycle)

    def load_burst(
        self, addr: int, count: int, cycle: int, requester: str | None = None
    ) -> tuple[np.ndarray, int]:
        """Unit-stride vector load of *count* words.

        RAM bursts pipeline through the port (one issue slot per beat);
        device bursts go to the device so it can apply FIFO pop
        semantics and buffer-ready stalls: a listed FIFO address calls
        its reader directly, any other address ``read_burst``.  Either
        way the result is ``(uint32 words, completion)``, and the words
        are not a copy: they may alias RAM or a device's buffer, so the
        caller copies them into its register before anything else runs.
        """
        if count <= 0:
            return np.empty(0, np.uint32), cycle
        ram = self.ram
        if addr < ram.size:
            if addr + 4 * count > ram.size:
                raise MemoryAccessError(
                    f"burst of {count} words at 0x{addr:08x} exceeds RAM"
                )
            completion = self.mem.read_seq(
                addr, count, cycle, requester or self.default_requester)
            if addr & 3:
                raise MemoryAccessError(
                    f"misaligned word access at 0x{addr:08x}")
            word = addr >> 2
            return ram._u32[word : word + count], completion
        fifo = self._fifos.get(addr)
        if fifo is not None:
            read, stream = fifo
            return read(stream, count, cycle)
        offset, device = self._find_device(addr)
        return device.read_burst(offset, count, cycle)

    def _ram_words(self, addrs: Sequence[int]) -> bool:
        """True when every address is an aligned word inside RAM."""
        if not addrs:
            return True
        bits = 0
        for addr in addrs:
            bits |= addr
        return not bits & 3 and max(addrs) < self.ram.size

    def gather(
        self, addrs: Sequence[int], cycle: int, requester: str | None = None,
        *, step: int = 1,
    ) -> tuple[np.ndarray, int]:
        """Pipelined indexed load, element ``i`` presented at
        ``cycle + step * i``; returns ``(u32 words, latest completion)``."""
        requester = requester or self.default_requester
        if self._ram_words(addrs):
            done = self.mem.gather(addrs, 0, len(addrs), cycle, requester,
                                   step)
            return self.ram.read_words(addrs), done
        return load_each(self.load_word, addrs, cycle, requester, step)

    def gather_chain(
        self, addrs: Sequence[int], cycle: int, requester: str | None = None,
    ) -> tuple[np.ndarray, int]:
        """Chained indexed load (each element presented one cycle after
        the previous response); returns ``(u32 words, cycle after the
        last response)``."""
        requester = requester or self.default_requester
        if self._ram_words(addrs):
            done = self.mem.gather_chain(addrs, cycle, requester)
            return self.ram.read_words(addrs), done
        return load_each(self.load_word, addrs, cycle, requester)
