"""Sparse stream semantic registers (SSR) front-end.

Models the (sparse) SSR approach (arxiv 2011.08070, 2305.05559): a small
address-generation unit next to the core turns designated register reads
into implicit *indexed* streamed loads.  Software programs the stream
(index array, value array, optional indirection map, length) through
MMRs, then consumes it with ``fssrpop`` (scalar) / ``vssrpop.v``
(vector) instead of issuing explicit gather loads.

Unlike the HHT — a memory-side engine with deep wide-burst buffers —
the SSR unit sits on the CPU side of the shared port and issues one
*word* request per index plus the dependent value request, pipelined
across elements up to a fixed ``lookahead`` window.  That removes the
baseline's serialised address-generate/load/use chain but keeps the
per-element port traffic, which is exactly the design point the bake-off
is meant to expose between the vector baseline and the HHT.

Two stream shapes cover the repo's kernels:

* ``indexed`` — elements are ``value[idx[k]]`` (SpMV's ``v[cols[k]]``);
* ``indirect`` — elements are ``value[map[idx[k]]]`` with a position map
  whose 0 entries mean "absent" and hit the padding slot ``value[0]``
  (SpMSpV's sparse-vector lookup); the value fetch is charged only for
  map hits, mirroring the HHT's value engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..component import SimComponent, StatsDict
from ..core.engines import EngineError
from ..core.stream import StreamUnderflow
from ..memory.hierarchy import MemorySystem
from ..memory.ram import Ram
from .base import AcceleratorConfig, AcceleratorFrontEnd, BuildContext

_U32 = 0xFFFFFFFF

#: Element addressing: value[idx[k]] directly.
SSR_MODE_INDEXED = 0
#: Element addressing: value[map[idx[k]]] (0 map entries = padding slot).
SSR_MODE_INDIRECT = 1


class SSRMMR:
    """Register offsets of one SSR unit's MMIO window."""

    IDX_BASE = 0x00
    VAL_BASE = 0x04
    MAP_BASE = 0x08
    LENGTH = 0x0C
    MODE = 0x10
    START = 0x14
    STATUS = 0x18
    REGION_SIZE = 0x100


_REG_BY_OFFSET = {
    SSRMMR.IDX_BASE: "idx_base",
    SSRMMR.VAL_BASE: "val_base",
    SSRMMR.MAP_BASE: "map_base",
    SSRMMR.LENGTH: "length",
    SSRMMR.MODE: "mode",
}


@dataclass
class SSRStats:
    """Counters over one kernel run (shape mirrors ``HHTStats``)."""

    cpu_wait_cycles: int = 0
    pops: int = 0
    elements_supplied: int = 0
    starts: int = 0


class SSRUnit(SimComponent):
    """One stream unit: MMR-configured, consumed via the pop instructions.

    The component name doubles as the requester label on the shared
    memory port, like the HHT's.
    """

    #: SimSession attaches its event sink to components with this marker.
    publishes_stream_events = True
    #: No back-end engine object (events come from the unit itself).
    engine = None

    def __init__(self, ram: Ram, mem: MemorySystem, name: str = "ssr",
                 lookahead: int = 4):
        super().__init__(name)
        self.ram = ram
        self.mem = mem
        self.port = mem.port
        self.lookahead = max(1, int(lookahead))
        self.regs: dict[str, int] = {
            "idx_base": 0,
            "val_base": 0,
            "map_base": 0,
            "length": 0,
            "mode": SSR_MODE_INDEXED,
        }
        self.probe_sink = None
        self._reset_local()

    def _reset_local(self) -> None:
        """Clear counters and stream state (regs survive, like the HHT's)."""
        self.counters = SSRStats()
        self._started = False
        self._issued = 0
        self._popped = 0
        self._gen_time = 0
        self._ready: list[int] = []      # per-element data-ready cycle
        self._data: list[int] = []       # per-element value bit patterns

    def _local_stats(self) -> StatsDict:
        c = self.counters
        return {
            "cpu_wait_cycles": c.cpu_wait_cycles,
            "pops": c.pops,
            "elements_supplied": c.elements_supplied,
            "starts": c.starts,
        }

    # ------------------------------------------------------------------
    # MMIODevice protocol
    # ------------------------------------------------------------------
    def write_word(self, offset: int, value: int, cycle: int) -> int:
        if offset == SSRMMR.START:
            if value & 1:
                self._start(cycle)
            return cycle + 1
        name = _REG_BY_OFFSET.get(offset)
        if name is None:
            raise EngineError(f"write to unmapped SSR offset 0x{offset:02x}")
        self.regs[name] = int(value)
        return cycle + 1

    def read_word(self, offset: int, cycle: int) -> tuple[int, int]:
        if offset == SSRMMR.STATUS:
            done = int(self._started and self._popped >= self.regs["length"])
            return done, cycle + 1
        name = _REG_BY_OFFSET.get(offset)
        if name is not None:
            return self.regs[name] & _U32, cycle + 1
        raise EngineError(f"read from unmapped SSR offset 0x{offset:02x}")

    def read_burst(self, offset: int, count: int, cycle: int):
        raise EngineError(
            "SSR streams are consumed with fssrpop/vssrpop.v, not vector "
            f"loads (offset 0x{offset:02x})"
        )

    # ------------------------------------------------------------------
    # Stream generation
    # ------------------------------------------------------------------
    def _start(self, cycle: int) -> None:
        if self.regs["mode"] not in (SSR_MODE_INDEXED, SSR_MODE_INDIRECT):
            raise EngineError(f"unknown SSR mode {self.regs['mode']}")
        self._started = True
        self._issued = 0
        self._popped = 0
        self._gen_time = cycle
        self._ready = []
        self._data = []
        self.counters.starts += 1
        # Prefetch: start filling the lookahead window immediately.
        self._advance(self.lookahead)

    def _advance(self, target: int) -> None:
        """Issue element fetches until *target* elements are in flight.

        Per element: the index word is fetched, then the dependent value
        word (and, in indirect mode, the map word in between).  The
        address generator moves to the next element as soon as the
        port accepted the index request, so successive elements' port
        slots pipeline — the dependent-load latency is overlapped
        instead of serialised as in ``vluxei32.v``.
        """
        n = self.regs["length"]
        if target > n:
            target = n
        if self._issued >= target:
            return
        mem_read = self.mem.read
        ram = self.ram
        name = self.name
        indirect = self.regs["mode"] == SSR_MODE_INDIRECT
        idx_base = self.regs["idx_base"]
        val_base = self.regs["val_base"]
        map_base = self.regs["map_base"]
        port_latency = self.port.latency
        while self._issued < target:
            k = self._issued
            t = self._gen_time
            idx_addr = (idx_base + 4 * k) & _U32
            t_idx = mem_read(idx_addr, t, name)
            index = ram.read_i32(idx_addr)
            if indirect:
                map_addr = (map_base + 4 * index) & _U32
                t_meta = mem_read(map_addr, t_idx, name)
                pos = ram.read_i32(map_addr)
                if pos > 0:
                    t_val = mem_read((val_base + 4 * pos) & _U32, t_meta, name)
                else:
                    t_val = t_meta  # padding slot: no value fetch charged
                bits = ram.read_u32(val_base + 4 * max(pos, 0))
            else:
                val_addr = (val_base + 4 * index) & _U32
                t_val = mem_read(val_addr, t_idx, name)
                bits = ram.read_u32(val_addr)
            self._ready.append(t_val)
            self._data.append(bits)
            self._issued += 1
            # Next index address generates the following cycle, or when
            # the port actually accepted this one (back-pressure).
            self._gen_time = max(t + 1, t_idx - port_latency)

    # ------------------------------------------------------------------
    # Pop interface (called by the fssrpop / vssrpop.v instructions)
    # ------------------------------------------------------------------
    def pop(self, stream: int, count: int, cycle: int) -> tuple[list[int], int]:
        """Consume *count* elements; returns (bit patterns, completion)."""
        if stream != 0:
            raise EngineError(f"SSR stream {stream} is not configured")
        if not self._started:
            raise EngineError("SSR pop before START")
        end = self._popped + count
        if end > self.regs["length"]:
            raise StreamUnderflow("CPU read past end of the SSR stream")
        self._advance(end)
        first = self._popped
        values = self._data[first:end]
        last_ready = cycle
        for t in self._ready[first:end]:
            if t > last_ready:
                last_ready = t
        self._popped = end
        # Popped elements free window slots: keep the generator ahead.
        self._advance(end + self.lookahead)
        wait = max(0, last_ready - cycle)
        completion = max(cycle, last_ready) + 1 + (count - 1)
        c = self.counters
        c.cpu_wait_cycles += wait
        c.pops += 1
        c.elements_supplied += count
        sink = self.probe_sink
        if sink is not None:
            sink.fifo_read(self.name, "ssr", cycle, wait, count)
        return values, completion


class SSRFrontEnd(AcceleratorFrontEnd):
    kind = "ssr"
    instances_label = "SSR"

    def build(self, ctx: BuildContext) -> int:
        unit = SSRUnit(
            ctx.ram, ctx.mem, name=ctx.name, lookahead=ctx.spec.lookahead
        )
        ctx.bus.attach_device(ctx.mmio_base, SSRMMR.REGION_SIZE, unit)
        ctx.add_component(unit)
        if ctx.index == 0:
            # The pop instructions read the first unit's stream.
            ctx.cpu.ssr = unit
        for suffix, offset in (
            ("base", 0),
            ("idx_base", SSRMMR.IDX_BASE),
            ("val_base", SSRMMR.VAL_BASE),
            ("map_base", SSRMMR.MAP_BASE),
            ("length", SSRMMR.LENGTH),
            ("mode", SSRMMR.MODE),
            ("start", SSRMMR.START),
            ("status", SSRMMR.STATUS),
        ):
            ctx.symbols[f"{ctx.symbol_prefix}_{suffix}"] = ctx.mmio_base + offset
        return SSRMMR.REGION_SIZE

    def summary_lines(self, config, spec: AcceleratorConfig):
        return [
            ("SSR", "Stream semantic registers (indexed loads)"),
            ("", f"Stream lookahead = {spec.lookahead} Elements"),
        ]

    def gates(self, config, spec: AcceleratorConfig) -> int:
        from ..power.area import ssr_gates

        return ssr_gates(lookahead=spec.lookahead)
