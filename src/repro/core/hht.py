"""The Hardware Helper Thread device: front-end + control + back-end glue.

This is the bus-visible half of the accelerator (Section 3.1): software
configures the MMRs, sets START, and then streams values from the fixed
FIFO addresses.  Loads that find no ready buffer stall the CPU (counted as
*CPU wait cycles*, Figures 6-7); the back-end pauses when all buffers are
full (*HHT wait cycles*).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..component import SimComponent, StatsDict
from ..memory.hierarchy import MemorySystem
from ..memory.port import MemoryPort
from ..memory.ram import Ram
from .config import HHT_BASE, MMR, HHTConfig, HHTMode
from .engines import (
    BackEndEngine,
    EngineError,
    SpMSpVAlignedEngine,
    SpMSpVValueEngine,
    SpMVGatherEngine,
)
from .stream import StreamUnderflow

_FIFO_STREAMS = {
    MMR.VVAL_FIFO: "vval",
    MMR.MVAL_FIFO: "mval",
    MMR.COUNT_FIFO: "count",
}

_ENGINES = {
    HHTMode.SPMV: SpMVGatherEngine,
    HHTMode.SPMSPV_ALIGNED: SpMSpVAlignedEngine,
    HHTMode.SPMSPV_VALUES: SpMSpVValueEngine,
}


@dataclass
class HHTStats:
    """Aggregate statistics over one kernel run."""

    cpu_wait_cycles: int = 0
    fifo_reads: int = 0
    elements_supplied: int = 0
    starts: int = 0

    def snapshot(self, engine: BackEndEngine | None) -> dict[str, int]:
        data = {
            "cpu_wait_cycles": self.cpu_wait_cycles,
            "fifo_reads": self.fifo_reads,
            "elements_supplied": self.elements_supplied,
            "starts": self.starts,
            "hht_wait_cycles": engine.wait_for_buffer_cycles if engine else 0,
            "buffers_filled": engine.buffers_filled if engine else 0,
        }
        return data


class HHT(SimComponent):
    """Memory-side accelerator exposed as an MMIO device.

    The component *name* doubles as the requester label charged on the
    shared memory port, so multi-HHT systems ("hht0", "hht1", ...) keep
    per-device contention accounting.
    """

    #: SimSession attaches its event sink to components advertising this
    #: (buffer_fill / fifo_read probe events).
    publishes_stream_events = True

    def __init__(self, config: HHTConfig, ram: Ram,
                 mem: MemorySystem | MemoryPort, name: str = "hht"):
        super().__init__(name)
        self.config = config
        self.ram = ram
        self.mem = mem if isinstance(mem, MemorySystem) else MemorySystem(mem)
        self.port = self.mem.port
        self.regs: dict[str, int] = {
            "m_num_rows": 0,
            "m_rows_base": 0,
            "m_cols_base": 0,
            "m_vals_base": 0,
            "v_base": 0,
            "v_nnz": 0,
            "v_idx_base": 0,
            "v_vals_base": 0,
            "v_map_base": 0,
            "elem_size": 4,
            "mode": int(HHTMode.SPMV),
            "m_num_cols": 0,
            "aux0": 0,
            "aux1": 0,
            "aux2": 0,
            "aux3": 0,
        }
        self.engine: BackEndEngine | None = None
        self.firmware = None  # Program for PROGRAMMABLE mode
        self.helper_config = None
        self.counters = HHTStats()
        # Event sink for fifo_read events, propagated to the engine at
        # START for its buffer_fill events.  Installed by a SimSession
        # when a probe subscribed; the session owns the lifecycle, so
        # reset() leaves it alone.
        self.probe_sink = None

    def _reset_local(self) -> None:
        """Clear counters and drop the finished engine (regs and firmware
        survive — they model configuration state, not run state)."""
        self.counters = HHTStats()
        self.engine = None

    def _local_stats(self) -> StatsDict:
        out: StatsDict = dict(self.counters.snapshot(self.engine))
        engine = self.engine
        if engine is not None:
            for sname, stream in engine.streams.items():
                out[f"stream.{sname}.reads"] = stream.stats.reads
                out[f"stream.{sname}.cpu_wait_cycles"] = (
                    stream.stats.cpu_wait_cycles
                )
                out[f"stream.{sname}.elements_supplied"] = (
                    stream.stats.elements_supplied
                )
        return out

    def load_firmware(self, firmware, helper_config=None) -> None:
        """Install helper-core firmware for PROGRAMMABLE mode (Section 7).

        The firmware cannot travel through a 32-bit MMR, so — like a real
        system loading helper-core instruction memory ahead of time — it
        is installed out of band before START is written.
        """
        self.firmware = firmware
        self.helper_config = helper_config

    _REG_BY_OFFSET = {
        MMR.M_NUM_ROWS: "m_num_rows",
        MMR.M_ROWS_BASE: "m_rows_base",
        MMR.M_COLS_BASE: "m_cols_base",
        MMR.M_VALS_BASE: "m_vals_base",
        MMR.V_BASE: "v_base",
        MMR.V_NNZ: "v_nnz",
        MMR.V_IDX_BASE: "v_idx_base",
        MMR.V_VALS_BASE: "v_vals_base",
        MMR.V_MAP_BASE: "v_map_base",
        MMR.ELEM_SIZE: "elem_size",
        MMR.MODE: "mode",
        MMR.M_NUM_COLS: "m_num_cols",
        MMR.AUX0: "aux0",
        MMR.AUX1: "aux1",
        MMR.AUX2: "aux2",
        MMR.AUX3: "aux3",
    }

    # ------------------------------------------------------------------
    # MMIODevice protocol
    # ------------------------------------------------------------------
    def write_word(self, offset: int, value: int, cycle: int) -> int:
        if offset == MMR.START:
            if value & 1:
                self._start(cycle)
            return cycle + 1
        name = self._REG_BY_OFFSET.get(offset)
        if name is None:
            raise EngineError(f"write to unmapped HHT offset 0x{offset:02x}")
        self.regs[name] = int(value)
        return cycle + 1

    def read_word(self, offset: int, cycle: int) -> tuple[int, int]:
        if offset == MMR.STATUS:
            done = int(self.engine is not None and self.engine.drained())
            return done, cycle + 1
        stream = _FIFO_STREAMS.get(offset)
        if stream is not None:
            values, completion = self._fifo_read(stream, 1, cycle)
            return int(values[0]), completion
        name = self._REG_BY_OFFSET.get(offset)
        if name is not None:
            return self.regs[name] & 0xFFFFFFFF, cycle + 1
        raise EngineError(f"read from unmapped HHT offset 0x{offset:02x}")

    def read_burst(self, offset: int, count: int,
                   cycle: int) -> tuple[np.ndarray, int]:
        stream = _FIFO_STREAMS.get(offset)
        if stream is None:
            raise EngineError(
                f"vector load from non-FIFO HHT offset 0x{offset:02x}"
            )
        return self._fifo_read(stream, count, cycle)

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def _start(self, cycle: int) -> None:
        mode = HHTMode(self.regs["mode"])
        if self.regs["elem_size"] != 4:
            raise EngineError("only 4-byte elements are supported (SEW=32)")
        if mode is HHTMode.PROGRAMMABLE:
            from .programmable import ProgrammableEngine

            if self.firmware is None:
                raise EngineError(
                    "PROGRAMMABLE mode requires load_firmware() before START"
                )
            self.engine = ProgrammableEngine(
                self.config, self.mem, cycle, self.ram, self.regs,
                self.firmware, self.helper_config, requester=self.name,
            )
            self.engine.probe_sink = self.probe_sink
            self.counters.starts += 1
            self.engine.pump(cycle)
            return
        engine_cls = _ENGINES[mode]
        self.engine = engine_cls(
            self.config, self.mem, cycle, self.ram, self.regs,
            requester=self.name,
        )
        self.engine.probe_sink = self.probe_sink
        self.counters.starts += 1
        # Prefetch: the BE begins filling buffers immediately (Section 3.1,
        # "N >= 2 permits the HHT to prefetch and store buffers ahead").
        self.engine.pump(cycle)

    def _fifo_read(self, stream_name: str, count: int,
                   cycle: int) -> tuple[np.ndarray, int]:
        engine = self.engine
        if engine is None:
            raise EngineError("FIFO read before START")
        stream = engine.streams.get(stream_name)
        if stream is None:
            raise EngineError(
                f"stream {stream_name!r} is not produced in mode "
                f"{HHTMode(self.regs['mode']).name}"
            )
        values = None
        last_ready = cycle
        need = count
        while need:
            piece = stream.read(need)
            if piece is None:
                if engine.exhausted:
                    raise StreamUnderflow(
                        f"CPU read past end of {stream_name!r} stream"
                    )
                before = engine.buffers_filled
                engine.pump(cycle)
                if engine.buffers_filled == before and not stream.unconsumed:
                    raise EngineError(
                        f"FIFO deadlock on {stream_name!r}: back-end blocked "
                        "while the stream is empty (kernel protocol violation)"
                    )
                continue
            ready, words = piece
            if ready > last_ready:
                last_ready = ready
            # Fills are row-aligned, so the kernels' reads never span
            # two; a read that does is concatenated.
            values = (words if values is None
                      else np.concatenate((values, words)))
            need -= words.size
        wait = max(0, last_ready - cycle)
        cfg = self.config
        completion = (
            max(cycle, last_ready)
            + cfg.fifo_read_latency
            + cfg.fifo_beat_per_elem * (count - 1)
        )
        # Consumption recycles buffer slots once the last element has left
        # the buffer into the read datapath (one FE cycle after the data
        # was available) — with N=1 this forces fill/drain alternation.
        engine.pump(max(cycle, last_ready) + cfg.fifo_read_latency)
        self.counters.cpu_wait_cycles += wait
        self.counters.fifo_reads += 1
        self.counters.elements_supplied += count
        stream.stats.reads += 1
        stream.stats.cpu_wait_cycles += wait
        sink = self.probe_sink
        if sink is not None:
            sink.fifo_read(self.name, stream_name, cycle, wait, count)
        return values, completion
