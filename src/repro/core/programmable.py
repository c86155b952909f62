"""Programmable HHT: a tiny RISC-V helper core as the back-end engine.

The paper's conclusion proposes it directly: *"To provide flexibility of
sparse data representations (e.g., CSR, COO, Bit vector, SMASH), it may
be worth considering a programmable HHT, using a simple RISCV like core.
Such a HHT core can be even simpler than traditional 32-bit integer
RISCV."*  Section 6 also reports programming their HHT for the SMASH
hierarchical-bitmap format, noting that "HHT is performing more work
than the CPU, causing CPU to idle".

This module implements that design point: the back-end is a scalar
integer RV32 core (no vector unit, no floating point — it only moves
bits) executing *firmware* from :mod:`repro.kernels.firmware`.  The
firmware walks whatever representation it was written for and emits
``(count, matrix-value, vector-value)`` stream elements by storing to
the emit MMIO addresses; the front-end buffers them exactly like the
ASIC engines' output, so the primary CPU consumes the same FIFO protocol
regardless of which firmware — or which matrix format — is behind it.

Firmware ABI (set by the engine before the first instruction):

====== ================================================================
reg    meaning
====== ================================================================
a0     M_NUM_ROWS
a1     M_ROWS_BASE        (format-specific metadata pointer #1)
a2     M_COLS_BASE        (format-specific metadata pointer #2)
a3     M_VALS_BASE        (packed non-zero values)
a4     V_BASE             (dense vector)
a5     M_NUM_COLS
a6     AUX0               (format-specific, e.g. bitmap / level-0 base)
a7     AUX1               (format-specific, e.g. level-1 base)
s2     AUX2
s3     AUX3
s4     EMIT_COUNT address
s5     EMIT_MVAL  address
s6     EMIT_VVAL  address
====== ================================================================

Per row the firmware must emit the row's pair count first (to
``EMIT_COUNT``), then exactly that many value pairs (``EMIT_MVAL`` +
``EMIT_VVAL``), mirroring the variant-1 FIFO protocol.

The helper core runs a whole row per call into its session
(:meth:`~repro.instrument.session.SimSession.interpret`, one instruction
per dispatch on either backend).  The emit device collects the row and,
at the store that completes it, sets the helper's ``halted``, so the
run ends right after that store; the engine pushes the row and resumes
the session for the next one.  The instruction budget counts from the
session's construction, across rows.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..cpu.core import Cpu
from ..cpu.timing import CpuConfig, LatencyTable
from ..instrument.session import SimSession
from ..isa.program import Program
from ..memory.bus import Bus
from ..memory.hierarchy import MemorySystem
from ..memory.ram import Ram
from .config import HHTConfig
from .engines import BackEndEngine, EngineError

#: Where the emit device sits in the *helper core's* address space.
HELPER_EMIT_BASE = 0x6000_0000

#: Emit-register offsets relative to HELPER_EMIT_BASE.
EMIT_COUNT = 0x0
EMIT_MVAL = 0x4
EMIT_VVAL = 0x8

#: Symbols the firmware assembler needs (absolute emit addresses).
FIRMWARE_SYMBOLS = {
    "emit_count": HELPER_EMIT_BASE + EMIT_COUNT,
    "emit_mval": HELPER_EMIT_BASE + EMIT_MVAL,
    "emit_vval": HELPER_EMIT_BASE + EMIT_VVAL,
}


def helper_core_config() -> CpuConfig:
    """The reduced helper core: scalar, integer-centric, in-order.

    The paper sizes it as "very few integer instructions, very few
    integer registers, very small caches" — behaviourally it is our Cpu
    with the vector width pinned to 1; the firmware only uses the
    integer subset.
    """
    return CpuConfig(vlmax=1, latencies=LatencyTable())


class EmitDevice:
    """MMIO device the firmware stores stream elements to.

    It collects one row: the count, then the value pairs, each word with
    the cycle it becomes FE-visible (one cycle after its store issues).
    The store that completes the row sets the helper core's ``halted``,
    so the helper's run ends right after that store; the engine takes
    the row, clears the device and resumes the run.
    """

    def __init__(self, helper: Cpu):
        # A proxy: the helper's bus holds this device, so a reference
        # would make a cycle, and only the cyclic collector could free
        # the SoC.
        self._helper = weakref.proxy(helper)
        self.clear()

    def clear(self) -> None:
        """Start a new row."""
        self.count: int | None = None
        self.count_ready = 0
        self.mvals: list[int] = []
        self.vvals: list[int] = []
        self.last_ready = 0
        self.complete = False

    def write_word(self, offset: int, value: int, cycle: int) -> int:
        bits = value & 0xFFFFFFFF
        ready = cycle + 1
        if offset == EMIT_COUNT:
            if self.count is not None:
                raise EngineError(
                    "firmware emitted a second count before completing "
                    "the previous row's pairs"
                )
            self.count = bits
            self.count_ready = ready
        elif offset == EMIT_MVAL:
            self.mvals.append(bits)
        elif offset == EMIT_VVAL:
            self.vvals.append(bits)
        else:
            raise EngineError(f"firmware stored to bad emit offset 0x{offset:x}")
        self.last_ready = ready
        if len(self.mvals) == self.count == len(self.vvals):
            self.complete = True
            self._helper.halted = True
        return ready

    def read_word(self, offset: int, cycle: int) -> tuple[int, int]:
        raise EngineError("emit registers are write-only")

    def read_burst(self, offset: int, count: int, cycle: int):
        raise EngineError("emit registers are write-only")


class ProgrammableEngine(BackEndEngine):
    """Back-end engine that executes firmware on the helper core."""

    def __init__(
        self,
        config: HHTConfig,
        mem: MemorySystem,
        start_cycle: int,
        ram: Ram,
        regs: dict[str, int],
        firmware: Program,
        helper_config: CpuConfig | None = None,
        requester: str = "hht",
    ):
        super().__init__(config, mem, start_cycle, requester)
        self.firmware = firmware

        # The helper core shares the timing hierarchy (port + L1D): in
        # the cached integration "HHT will access the cache" (Section 3).
        helper_bus = Bus(
            ram, self.mem.port, default_requester=requester,
            cache=self.mem.cache,
        )
        self.helper = Cpu(helper_bus, helper_config or helper_core_config())
        self.helper.cycle = start_cycle
        self.emit_device = EmitDevice(self.helper)
        helper_bus.attach_device(HELPER_EMIT_BASE, 0x10, self.emit_device)

        # Firmware ABI register file image.
        x = self.helper.x
        x[10] = regs["m_num_rows"]
        x[11] = regs["m_rows_base"]
        x[12] = regs["m_cols_base"]
        x[13] = regs["m_vals_base"]
        x[14] = regs["v_base"]
        x[15] = regs["m_num_cols"]
        x[16] = regs.get("aux0", 0)
        x[17] = regs.get("aux1", 0)
        x[18] = regs.get("aux2", 0)
        x[19] = regs.get("aux3", 0)
        x[20] = FIRMWARE_SYMBOLS["emit_count"]   # s4
        x[21] = FIRMWARE_SYMBOLS["emit_mval"]    # s5
        x[22] = FIRMWARE_SYMBOLS["emit_vval"]    # s6
        # Resumed once per row under this engine's clock.
        self.session = SimSession(self.helper, firmware)

        self.count = self._make_stream("count", config.n_buffers, 1)
        self.mval = self._make_stream("mval", config.n_buffers, config.buffer_elems)
        self.vval = self._make_stream("vval", config.n_buffers, config.buffer_elems)

        if regs["m_num_rows"] == 0:
            self.exhausted = True

    def step(self) -> None:
        """Run the firmware until it has produced one complete row unit."""
        helper = self.helper
        # A blocked engine resumes at self.time (set by pump()).
        if helper.cycle < self.time:
            helper.cycle = self.time
        row = self.emit_device
        row.clear()
        helper.halted = False
        # One instruction per dispatch on either backend: a compiled
        # block could run past the store that completes the row.
        self.session.interpret()
        self.time = helper.cycle
        if not row.complete:
            # The firmware halted.
            if row.count is None and not row.mvals and not row.vvals:
                # Clean halt at a row boundary: input exhausted.
                self.exhausted = True
                return
            raise EngineError("firmware halted in the middle of a row")

        count = row.count
        overhead = self.config.fill_overhead
        self.count.push(row.count_ready + overhead, count)
        self.count.stats.elements_supplied += 1
        if count:
            ready = row.last_ready + overhead
            self.mval.push_group(ready, np.array(row.mvals, np.uint32))
            self.vval.push_group(ready, np.array(row.vvals, np.uint32))
            self.mval.stats.elements_supplied += count
            self.vval.stats.elements_supplied += count
        self.buffers_filled += 1
