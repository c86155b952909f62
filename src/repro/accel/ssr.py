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

Like the HHT engines, the unit plans its stream at START, with numpy,
from the MMRs and a RAM snapshot: every element's request addresses and
value bits.  Generating an element then only charges its requests on the
port, and a pop slices the planned words.  An MMR write after START does
not reach the running stream.  An element whose index, map or value
word is misaligned or outside RAM still raises the RAM's
``MemoryAccessError`` when it is generated, after the requests that
precede the refused word.  ``tests/accel/reference_ssr.py`` keeps the
per-element loop the plan replaced, and ``tests/accel/test_ssr_plan.py``
holds the plan to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

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
        # The plan (see _plan).
        self._length = 0
        self._words: list[int] = []      # per-element value bit patterns
        # Per-element request addresses (int64; -1: no value fetch).
        self._idx_addr = self._dep_addr = np.empty(0, np.int64)
        self._val_addr: np.ndarray | None = None
        self._fault: tuple[list[int], int] | None = None

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
            done = int(self._started and self._popped >= self._length)
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
        self.counters.starts += 1
        self._plan()
        # Prefetch: start filling the lookahead window immediately.
        self._advance(self.lookahead)

    def _plan(self) -> None:
        """Each element's port requests in issue order, and its value
        bits, from the MMRs and a RAM snapshot (the kernels never modify
        the operands while a stream runs).  The plan stops at the first
        element with a word the RAM refuses; ``_fault`` keeps that
        element's requests up to the refused word, and the word's
        address."""
        regs = self.regs
        ram = self.ram
        size = ram.size
        n = self._length = regs["length"]
        # Of any size/4 + 1 elements at least one index word is outside
        # RAM, so no stream needs more planned.
        k = np.arange(min(n, (size >> 2) + 1), dtype=np.int64)

        def words(addrs: np.ndarray, view: np.ndarray):
            """``(word at each address, refused)``; 0 where refused."""
            refused = (addrs & 3 != 0) | (addrs < 0) | (addrs >= size)
            word = view[np.where(refused, 0, addrs >> 2)]
            return word.astype(np.int64), refused

        idx_addr = (regs["idx_base"] + 4 * k) & _U32
        index, refused = words(idx_addr, ram._i32)
        # (port address or -1 for none, RAM address, refused) per request.
        stages = [(idx_addr, idx_addr, refused)]
        val_base = regs["val_base"]
        indirect = regs["mode"] == SSR_MODE_INDIRECT
        if indirect:
            map_addr = (regs["map_base"] + 4 * index) & _U32
            pos, refused = words(map_addr, ram._i32)
            stages.append((map_addr, map_addr, refused))
            # A map miss (pos <= 0) reads the padding slot value[0] and
            # charges no value fetch.
            val_addr = val_base + 4 * np.maximum(pos, 0)
            charged = np.where(pos > 0, (val_base + 4 * pos) & _U32, -1)
        else:
            val_addr = charged = (val_base + 4 * index) & _U32
        bits, refused = words(val_addr, ram._u32)
        stages.append((charged, val_addr, refused))

        bad = np.flatnonzero(np.logical_or.reduce([s[2] for s in stages]))
        ok = int(bad[0]) if bad.size else k.size
        self._fault = None
        if bad.size:
            charges: list[int] = []
            for port_addr, ram_addr, refused in stages:
                if port_addr[ok] >= 0:
                    charges.append(int(port_addr[ok]))
                if refused[ok]:
                    self._fault = (charges, int(ram_addr[ok]))
                    break
        self._idx_addr = idx_addr[:ok]
        self._dep_addr = stages[1][0][:ok]
        self._val_addr = stages[2][0][:ok] if indirect else None
        self._words = bits[:ok].tolist()

    def _advance(self, target: int) -> None:
        """Generate elements until *target* are in flight.

        Per element: the index word is fetched, then the dependent value
        word (and, in indirect mode, the map word in between).  The
        address generator moves to the next element as soon as the
        port accepted the index request, so successive elements' port
        slots pipeline — the dependent-load latency is overlapped
        instead of serialised as in ``vluxei32.v``.  The words are
        planned; only the requests are charged here, in the planned
        order.
        """
        if target > self._length:
            target = self._length
        first = self._issued
        if first >= target:
            return
        planned = len(self._words)
        stop = target if target < planned else planned
        read = self.mem.read
        name = self.name
        ready = self._ready
        latency = self.port.latency
        t = self._gen_time
        vals = (repeat(-1) if self._val_addr is None
                else self._val_addr[first:stop].tolist())
        for idx, dep, val in zip(self._idx_addr[first:stop].tolist(),
                                 self._dep_addr[first:stop].tolist(), vals):
            t_idx = read(idx, t, name)
            done = read(dep, t_idx, name)
            if val >= 0:
                done = read(val, done, name)
            ready.append(done)
            # Next index address generates the following cycle, or when
            # the port actually accepted this one (back-pressure).
            t += 1
            if t_idx - latency > t:
                t = t_idx - latency
        self._issued = stop
        self._gen_time = t
        if target > planned:
            charges, addr = self._fault
            for request in charges:
                t = read(request, t, name)
            self.ram.read_u32(addr)  # raises the RAM's error

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
        if end > self._length:
            raise StreamUnderflow("CPU read past end of the SSR stream")
        self._advance(end)
        first = self._popped
        values = self._words[first:end]
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
