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
"""

from __future__ import annotations

from collections import deque

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

_STREAM_BY_OFFSET = {EMIT_COUNT: "count", EMIT_MVAL: "mval", EMIT_VVAL: "vval"}


def helper_core_config() -> CpuConfig:
    """The reduced helper core: scalar, integer-centric, in-order.

    The paper sizes it as "very few integer instructions, very few
    integer registers, very small caches" — behaviourally it is our Cpu
    with the vector width pinned to 1; the firmware only uses the
    integer subset.
    """
    return CpuConfig(vlmax=1, latencies=LatencyTable())


class EmitDevice:
    """MMIO device the firmware stores stream elements to."""

    def __init__(self):
        self.pending: deque[tuple[str, int, int]] = deque()

    def write_word(self, offset: int, value: int, cycle: int) -> int:
        stream = _STREAM_BY_OFFSET.get(offset)
        if stream is None:
            raise EngineError(f"firmware stored to bad emit offset 0x{offset:x}")
        # The element is FE-visible one cycle after the store issues.
        self.pending.append((stream, value & 0xFFFFFFFF, cycle + 1))
        return cycle + 1

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
        self.emit_device = EmitDevice()

        # The helper core shares the timing hierarchy (port + L1D): in
        # the cached integration "HHT will access the cache" (Section 3).
        helper_bus = Bus(
            ram, self.mem.port, default_requester=requester,
            cache=self.mem.cache,
        )
        helper_bus.attach_device(HELPER_EMIT_BASE, 0x10, self.emit_device)
        self.helper = Cpu(helper_bus, helper_config or helper_core_config())
        self.helper.cycle = start_cycle

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
        # Stepped one instruction at a time under this engine's clock.
        self.session = SimSession(self.helper, firmware)

        self.count = self._make_stream("count", config.n_buffers, 1)
        self.mval = self._make_stream("mval", config.n_buffers, config.buffer_elems)
        self.vval = self._make_stream("vval", config.n_buffers, config.buffer_elems)

        self._finished = False
        if regs["m_num_rows"] == 0:
            self.exhausted = True
            self._finished = True

    @property
    def helper_cycles(self) -> int:
        """Helper-core cycles consumed so far (for energy accounting)."""
        return self.helper.cycle

    @property
    def helper_instructions(self) -> int:
        return self.helper.counters.instructions

    def step(self) -> None:
        """Run the firmware until it has produced one complete row unit."""
        helper = self.helper
        # A blocked engine resumes at self.time (set by pump()).
        if helper.cycle < self.time:
            helper.cycle = self.time

        pending = self.emit_device.pending
        count_val: int | None = None
        count_ready = 0
        mvals: list[int] = []
        vvals: list[int] = []
        last_ready = helper.cycle

        step = self.session.step
        while True:
            alive = step()
            while pending:
                stream, bits, ready = pending.popleft()
                last_ready = ready
                if stream == "count":
                    if count_val is not None:
                        raise EngineError(
                            "firmware emitted a second count before completing "
                            "the previous row's pairs"
                        )
                    count_val, count_ready = bits, ready
                elif stream == "mval":
                    mvals.append(bits)
                else:
                    vvals.append(bits)
            if count_val is not None and len(mvals) == count_val == len(vvals):
                break
            if not alive:
                if count_val is None and not mvals and not vvals:
                    # Clean halt at a row boundary: input exhausted.
                    self.exhausted = True
                    self._finished = True
                    self.time = helper.cycle
                    return
                raise EngineError("firmware halted in the middle of a row")

        overhead = self.config.fill_overhead
        self.count.push(count_ready + overhead, count_val)
        self.count.stats.elements_supplied += 1
        if count_val:
            ready = last_ready + overhead
            self.mval.push_group(ready, np.array(mvals, np.uint32))
            self.vval.push_group(ready, np.array(vvals, np.uint32))
            self.mval.stats.elements_supplied += count_val
            self.vval.stats.elements_supplied += count_val
        self.buffers_filled += 1
        self.time = helper.cycle
        if helper.halted:
            self.exhausted = True
            self._finished = True
