"""Probes: pluggable observers of a :class:`~repro.instrument.SimSession`.

A probe subclasses :class:`Probe` and overrides only the events it cares
about; the session detects overridden methods and builds per-event hook
chains, so an event nobody subscribed to costs the emitter a single
``is None`` test and the interpreter loop nothing at all.

Shipped probes:

* :class:`TraceProbe` — per-instruction execution trace (the engine
  behind ``repro trace``);
* :class:`PcProfileProbe` — per-instruction-index cycle attribution
  (the engine behind :func:`repro.analysis.profile.profile_spmv`);
* :class:`TimelineProbe` — HHT stream-occupancy / buffer-fill timeline
  plus FIFO-read stall events;
* :class:`ContentionProbe` — shared-memory-port issue histogram binned
  over time, per requester.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instructions import Instr, s32


class ProbeHalt(Exception):
    """Raised by a probe to stop the session early (e.g. trace limit)."""


class Probe:
    """Base class: every event defaults to a no-op.

    The session only calls methods a subclass actually overrides, so an
    un-overridden event has zero per-event cost.  ``payload()`` is what
    :class:`~repro.system.soc.RunSummary` carries home under this probe's
    ``name``; return ``None`` (the default) to stay out of the result.
    """

    name = "probe"

    #: Cycle stride for :meth:`on_sample`.  A probe that overrides
    #: ``on_sample`` must set this to a positive cycle count; the
    #: session then fires the hook at the first checkpoint after the
    #: CPU clock crosses a multiple of it.  Checkpoints ride the
    #: instruction-budget compare the run loop already pays (every
    #: ``stride/8`` instructions), so cyclic sampling adds no
    #: per-instruction work — far cheaper than ``on_instruction``.
    sample_every = 0

    # -- session lifecycle --------------------------------------------
    def on_session_start(self, session) -> None:
        """Called once, after hooks are attached, before execution."""

    def on_session_end(self, session) -> None:
        """Called once when the session's run loop exits."""

    # -- events --------------------------------------------------------
    def on_instruction(self, pc: int, ins: Instr,
                       cycle_start: int, cycle_end: int) -> None:
        """One retired instruction: index, object, cycle interval."""

    def on_core_select(self, core: str) -> None:
        """A multi-core session switched to *core* (``"cpu0"`` ...);
        every following ``on_instruction`` belongs to it.  Never fired
        by a single-core session, so single-core probes are unchanged."""

    def on_tlb_walk(self, core: str, vpn: int, levels: int,
                    cycle_start: int, cycle_end: int) -> None:
        """*core*'s TLB missed on virtual page *vpn* and walked *levels*
        page-table levels on the shared port over the cycle interval."""

    def on_port_issue(self, port: str, requester: str, slot: int,
                      count: int, waited: int) -> None:
        """*count* back-to-back requests issued from *slot* on a memory
        port; every beat waited *waited* cycles for its issue slot."""

    def on_buffer_fill(self, engine) -> None:
        """An HHT back-end engine completed one ``step()`` (one buffer
        fill / row of work); inspect ``engine.streams`` for occupancy."""

    def on_fifo_read(self, hht: str, stream: str, cycle: int,
                     wait: int, count: int) -> None:
        """The CPU popped *count* elements from an HHT FIFO, stalling
        *wait* cycles for data."""

    def on_sample(self, session, cycle: int) -> None:
        """The CPU clock crossed a multiple of :attr:`sample_every`."""

    # -- result --------------------------------------------------------
    def payload(self):
        return None


@dataclass
class TraceEntry:
    """One executed instruction."""

    seq: int            # execution order
    index: int          # instruction index (PC / 4)
    op: str
    text: str
    cycle_start: int
    cycle_end: int
    rd_value: int | float | None  # destination value after execution

    @property
    def cycles(self) -> int:
        return self.cycle_end - self.cycle_start

    def render(self) -> str:
        value = ""
        if self.rd_value is not None:
            if isinstance(self.rd_value, float):
                value = f" -> {self.rd_value:.6g}"
            else:
                value = f" -> {self.rd_value:#x}"
        return (
            f"{self.seq:>6}  @{self.index:<5} {self.text:<32} "
            f"[{self.cycle_start}..{self.cycle_end}]{value}"
        )


class TraceProbe(Probe):
    """Record a :class:`TraceEntry` per retired instruction.

    ``only`` restricts *recording* to the given mnemonics (execution
    still covers everything); the session is halted once ``limit``
    entries have been recorded.
    """

    name = "trace"

    def __init__(self, *, limit: int = 10_000,
                 only: set[str] | None = None):
        self.limit = limit
        self.only = set(only) if only is not None else None
        self.entries: list[TraceEntry] = []
        #: True once the entry cap stopped the session early (the trace
        #: is a prefix of the execution, not the whole run).
        self.truncated = False
        self._seq = 0
        self._cpu = None
        self._cores: dict = {}

    def on_session_start(self, session) -> None:
        self._cpu = session.cpu
        self._cores = {cpu.name: cpu for cpu in getattr(session, "cpus", ())}
        if self.limit <= 0 or len(self.entries) >= self.limit:
            self.truncated = True
            raise ProbeHalt

    def on_core_select(self, core: str) -> None:
        # Destination values are read from the core that retired them.
        self._cpu = self._cores[core]

    def on_instruction(self, pc, ins, cycle_start, cycle_end) -> None:
        self._seq += 1
        if self.only is None or ins.op in self.only:
            cpu = self._cpu
            rd_value: int | float | None = None
            if ins.rd is not None and not ins.op.startswith("v"):
                # Every f-prefixed op with a destination writes the f file.
                if ins.op.startswith("f"):
                    rd_value = float(cpu.f[ins.rd])
                else:
                    rd_value = s32(cpu.x[ins.rd])
            self.entries.append(
                TraceEntry(
                    seq=self._seq,
                    index=pc,
                    op=ins.op,
                    text=ins.text or ins.op,
                    cycle_start=cycle_start,
                    cycle_end=cycle_end,
                    rd_value=rd_value,
                )
            )
            if len(self.entries) >= self.limit:
                self.truncated = True
                raise ProbeHalt


class PcProfileProbe(Probe):
    """Per-instruction-index execution counts and cycle totals.

    Writes straight into the CPU's :class:`~repro.cpu.core.CpuStats`
    ``pc_counts`` / ``pc_cycles`` dicts, so profiled runs publish the
    same ``soc.cpu.pc_*`` registry keys the profiling loop used to.
    """

    name = "pc_profile"

    def __init__(self):
        #: The profiled program, whose instruction indices key the counts.
        self.program = None
        self._counts: dict[int, int] | None = None
        self._cycles: dict[int, int] | None = None

    def on_session_start(self, session) -> None:
        self.program = session.program
        stats = session.cpu.counters
        self._counts = stats.pc_counts
        self._cycles = stats.pc_cycles

    def on_instruction(self, pc, ins, cycle_start, cycle_end) -> None:
        counts = self._counts
        counts[pc] = counts.get(pc, 0) + 1
        cycles = self._cycles
        cycles[pc] = cycles.get(pc, 0) + cycle_end - cycle_start


class TimelineProbe(Probe):
    """HHT activity timeline: buffer fills and CPU-side FIFO stalls.

    Each back-end ``step()`` appends a fill sample with the engine clock
    and per-stream occupancy (occupied buffer slots, unconsumed
    elements); each CPU FIFO pop appends a read event with its stall.
    """

    name = "timeline"

    def __init__(self):
        self.fills: list[dict] = []
        self.fifo_reads: list[dict] = []

    def on_buffer_fill(self, engine) -> None:
        self.fills.append({
            "hht": engine.requester,
            "t": engine.time,
            "buffers_filled": engine.buffers_filled,
            "streams": {
                name: {
                    "occupied_slots": stream.occupied_slots,
                    "unconsumed": stream.unconsumed,
                }
                for name, stream in engine.streams.items()
            },
        })

    def on_fifo_read(self, hht, stream, cycle, wait, count) -> None:
        self.fifo_reads.append({
            "hht": hht,
            "stream": stream,
            "cycle": cycle,
            "wait": wait,
            "count": count,
        })

    def payload(self):
        return {"fills": self.fills, "fifo_reads": self.fifo_reads}


class ContentionProbe(Probe):
    """Shared-port contention histogram: issue slots binned over time.

    Each issue event lands its beats in ``bins[requester][slot //
    bin_cycles]``; queue cycles accumulate per requester.  Totals match
    the port's own counters exactly (``requests`` / ``queue_cycles``
    per requester), which the tests assert.
    """

    name = "contention"

    def __init__(self, bin_cycles: int = 64):
        if bin_cycles < 1:
            raise ValueError(f"bin_cycles must be >= 1, got {bin_cycles}")
        self.bin_cycles = bin_cycles
        self.bins: dict[str, dict[int, int]] = {}
        self.requests: dict[str, int] = {}
        self.queue_cycles: dict[str, int] = {}

    def on_port_issue(self, port, requester, slot, count, waited) -> None:
        bins = self.bins.setdefault(requester, {})
        size = self.bin_cycles
        # A burst's beats occupy slot .. slot+count-1; spread them over
        # the bins those issue slots fall into.
        first_bin = slot // size
        last_bin = (slot + count - 1) // size
        if first_bin == last_bin:
            bins[first_bin] = bins.get(first_bin, 0) + count
        else:
            for i in range(count):
                b = (slot + i) // size
                bins[b] = bins.get(b, 0) + 1
        self.requests[requester] = self.requests.get(requester, 0) + count
        self.queue_cycles[requester] = (
            self.queue_cycles.get(requester, 0) + waited * count
        )

    def payload(self):
        """Histogram with *uniform* bin spacing.

        The live ``bins`` dicts are sparse (only bins that saw traffic
        exist); the payload fills every requester out over the common
        ``[first_bin, last_bin]`` range with explicit zeros, so
        downstream time-series and plots see idle windows instead of
        silently skipping them.
        """
        dense: dict[str, dict[int, int]] = {}
        if self.bins:
            lo = min(min(b) for b in self.bins.values())
            hi = max(max(b) for b in self.bins.values())
            dense = {
                req: {b: sparse.get(b, 0) for b in range(lo, hi + 1)}
                for req, sparse in self.bins.items()
            }
        return {
            "bin_cycles": self.bin_cycles,
            "requests": dict(self.requests),
            "queue_cycles": dict(self.queue_cycles),
            "bins": dense,
        }
