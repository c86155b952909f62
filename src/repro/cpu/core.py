"""The primary core's machine state.

This plays the role of the paper's extended Spike: a :class:`Cpu` holds
the architectural state of an in-order core (``x``/``f`` registers as
plain Python lists, vector registers as small ``uint32`` numpy arrays),
its clock, its per-class cycle counters and the accelerator front-end
units the SoC attached.  What each instruction does is defined once, in
:mod:`repro.cpu.compiled`, and runs as translations of this state: one
instruction per dispatch on the per-instruction path
(:mod:`repro.instrument.session`), or a basic block per dispatch on the
compiled backend.  Each instruction charges a latency from
:class:`~repro.cpu.timing.LatencyTable` and reaches the shared memory
system through the bus — including memory-mapped HHT FIFO loads, which
may stall the core until a buffer is ready.

The vector registers have ``float32``/``int32`` views (``vf``/``vi``)
built once per reset.  The views of the first ``vl`` words of every
register (:class:`VlViews`) are built once per VL a run uses, and
``vsetvli`` switches to them only when VL changes, so a vector
instruction indexes a view instead of making one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple

import numpy as np

from ..component import SimComponent, StatsDict
from ..isa.instructions import CLASSES
from ..isa.program import Program
from ..memory.bus import Bus
from .timing import CpuConfig


class SimulationError(Exception):
    """Raised on runtime faults (bad PC, instruction budget exhausted)."""


class VlViews(NamedTuple):
    """The vector registers at one VL: views of the first ``vl`` words of
    every register as ``uint32`` (``v``), ``float32`` (``vf``) and
    ``int32`` (``vi``), and of the ``vfmacc`` scratch (``scr``)."""

    v: list[np.ndarray]
    vf: list[np.ndarray]
    vi: list[np.ndarray]
    scr: np.ndarray


class _VlViewCache(dict):
    """``vl -> VlViews``, each set built the first time its VL is asked
    for; at VL = vlmax the set is the registers themselves.  It holds the
    register arrays, never the Cpu, so reference counting alone still
    frees a Cpu."""

    def __init__(self, full: VlViews):
        super().__init__({len(full.scr): full})
        self._full = full

    def __missing__(self, vl: int) -> VlViews:
        v, vf, vi, scr = self._full
        views = self[vl] = VlViews([r[:vl] for r in v], [r[:vl] for r in vf],
                                   [r[:vl] for r in vi], scr[:vl])
        return views


#: The slot of ``CpuStats.class_n`` after the last class: taken branches.
TAKEN_BRANCHES = len(CLASSES)

#: The registry leaves of the per-class counters, in ``CLASSES`` order.
_COUNT_LEAVES = tuple(f"class_counts.{klass}" for klass in CLASSES)
_CYCLE_LEAVES = tuple(f"class_cycles.{klass}" for klass in CLASSES)


@dataclass
class CpuStats:
    """Counters accumulated over one :meth:`Cpu.run`.

    Translations charge the per-class counters by index, one slot per
    class of :data:`~repro.isa.instructions.CLASSES` in its order:
    ``class_n`` counts instructions (its last slot, ``TAKEN_BRANCHES``,
    counts taken branches) and ``class_cy`` cycles.  The class dicts are
    derived from them: the classes that ran, in that order, so both have
    the same keys.
    """

    instructions: int = 0
    cycles: int = 0
    class_n: list[int] = field(
        default_factory=lambda: [0] * (TAKEN_BRANCHES + 1))
    class_cy: list[int] = field(default_factory=lambda: [0] * len(CLASSES))
    # Filled only by an attached PcProfileProbe: per-instruction-index
    # execution counts and cycle totals.
    pc_counts: dict[int, int] = field(default_factory=dict)
    pc_cycles: dict[int, int] = field(default_factory=dict)

    @property
    def class_counts(self) -> dict[str, int]:
        return {klass: n for klass, n in zip(CLASSES, self.class_n) if n}

    @property
    def class_cycles(self) -> dict[str, int]:
        return {klass: cy for klass, n, cy
                in zip(CLASSES, self.class_n, self.class_cy) if n}

    @property
    def taken_branches(self) -> int:
        return self.class_n[TAKEN_BRANCHES]


class Cpu(SimComponent):
    """In-order RV32-style core bound to a :class:`~repro.memory.bus.Bus`."""

    def __init__(self, bus: Bus, config: CpuConfig | None = None,
                 name: str = "cpu"):
        super().__init__(name)
        self.bus = bus
        self.config = config or CpuConfig()
        self.lat = self.config.latencies
        self.vlmax = self.config.vlmax
        # Accelerator front-end attachments (repro.accel): installed by
        # the SoC builder when the matching front-end is configured.
        # Their instructions trap (SimulationError) while unattached.
        self.ssr = None
        self.indexmac = None
        # The product of vfmacc.vv/vfmacidx: filled and consumed within
        # one instruction.
        self._scr = np.empty(self.vlmax, dtype=np.float32)
        self._reset_local()

    def _reset_local(self) -> None:
        self.x: list[int] = [0] * 32
        self.f: list[float] = [0.0] * 32
        self.v: list[np.ndarray] = [
            np.zeros(self.vlmax, dtype=np.uint32) for _ in range(32)
        ]
        # The typed register file: float32/int32 views of the same
        # words, rebuilt with ``v`` so they always alias it.
        self.vf: list[np.ndarray] = [r.view(np.float32) for r in self.v]
        self.vi: list[np.ndarray] = [r.view(np.int32) for r in self.v]
        # The same registers at each VL a run uses, and the set at the
        # current VL (``vset``), which every VL-bound instruction indexes.
        self._vsets = _VlViewCache(VlViews(self.v, self.vf, self.vi,
                                           self._scr))
        self.vl = self.vlmax
        self.vset = self._vsets[self.vl]
        self.cycle = 0
        self.halted = False
        self.counters = CpuStats()
        # The counter lists every translation's prologue binds: its
        # epilogue charges them by class index.
        self._cc = self.counters.class_n
        self._ccy = self.counters.class_cy

    def _local_stats(self) -> StatsDict:
        c = self.counters
        out: StatsDict = {
            "instructions": c.instructions,
            "cycles": c.cycles,
            "taken_branches": c.taken_branches,
        }
        # The classes that ran: the slots with a count.
        ran = c.class_n
        out.update(zip(compress(_COUNT_LEAVES, ran), compress(ran, ran)))
        out.update(zip(compress(_CYCLE_LEAVES, ran),
                       compress(c.class_cy, ran)))
        for pc, n in c.pc_counts.items():
            out[f"pc_counts.{pc}"] = n
        for pc, n in c.pc_cycles.items():
            out[f"pc_cycles.{pc}"] = n
        return out

    # ------------------------------------------------------------------
    # Execution (a view of one SimSession — the single canonical
    # interpreter loop lives in repro.instrument).
    # ------------------------------------------------------------------
    def run(self, program: Program, entry: int | str | None = None,
            probes: tuple = ()) -> CpuStats:
        """Execute *program* until ``halt``; returns the run's statistics."""
        from ..instrument.session import SimSession

        return SimSession(self, program, entry=entry, probes=probes).run()
