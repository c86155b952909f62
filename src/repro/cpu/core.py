"""Behavioural, cycle-approximate model of the primary core.

This plays the role of the paper's extended Spike: it executes assembled
programs (see :mod:`repro.isa`: the RV32I/F/V instructions the kernels
execute, plus the front-end ops) instruction by instruction, charging each
one a latency from :class:`~repro.cpu.timing.LatencyTable` and interacting
with the shared memory system for loads/stores — including memory-mapped
HHT FIFO loads, which may stall the core until a buffer is ready.

The interpreter is written for speed (per the HPC guides: tight dispatch,
no per-cycle loop): handlers are pre-bound per program, registers are
plain Python lists, and vector registers are small ``uint32`` numpy arrays
with ``float32``/``int32`` views (``vf``/``vi``) built once per reset.
The views of the first ``vl`` words of every register (:class:`VlViews`)
are built once per VL a run uses, and ``vsetvli`` switches to them only
when VL changes, so a vector handler indexes a view instead of making one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..component import SimComponent, StatsDict
from ..isa.instructions import INSTRUCTION_CLASS, Instr, s32
from ..isa.program import Program
from ..memory.bus import Bus
from .timing import CpuConfig

_U32 = 0xFFFFFFFF
_PACK_F = struct.Struct("<f").pack
_PACK_I = struct.Struct("<i").pack
_UNPACK_F = struct.Struct("<f").unpack

# Local alias for the public repro.isa.instructions.s32 (the handlers below
# call it on every ALU result).
_s32 = s32


def _f32bits(value: float) -> int:
    """Bit pattern (u32) of a float rounded to binary32."""
    return int.from_bytes(_PACK_F(value), "little")


def _bits_f32(bits: int) -> float:
    """Float value of a binary32 bit pattern."""
    return _UNPACK_F(bits.to_bytes(4, "little"))[0]


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


@dataclass
class CpuStats:
    """Counters accumulated over one :meth:`Cpu.run`."""

    instructions: int = 0
    cycles: int = 0
    class_counts: dict[str, int] = field(default_factory=dict)
    class_cycles: dict[str, int] = field(default_factory=dict)
    taken_branches: int = 0
    # Filled only by an attached PcProfileProbe: per-instruction-index
    # execution counts and cycle totals.
    pc_counts: dict[int, int] = field(default_factory=dict)
    pc_cycles: dict[int, int] = field(default_factory=dict)


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
        # The product of vfmacc.vv/vfmacidx (both backends): filled and
        # consumed within one instruction.
        self._scr = np.empty(self.vlmax, dtype=np.float32)
        self._reset_local()
        self._dispatch = self._build_dispatch()

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
        # current VL (``vset``), which every VL-bound handler indexes.
        self._vsets = _VlViewCache(VlViews(self.v, self.vf, self.vi,
                                           self._scr))
        self.vl = self.vlmax
        self.vset = self._vsets[self.vl]
        self.cycle = 0
        self.halted = False
        self.counters = CpuStats()
        # Hot-path aliases: _charge bumps these on every instruction, so
        # skip the counters-object indirection in the dispatch loop.
        self._class_counts = self.counters.class_counts
        self._class_cycles = self.counters.class_cycles

    def _local_stats(self) -> StatsDict:
        c = self.counters
        out: StatsDict = {
            "instructions": c.instructions,
            "cycles": c.cycles,
            "taken_branches": c.taken_branches,
        }
        for klass, n in c.class_counts.items():
            out[f"class_counts.{klass}"] = n
        for klass, n in c.class_cycles.items():
            out[f"class_cycles.{klass}"] = n
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

    def _build_dispatch(self) -> dict[str, object]:
        """Mnemonic -> plain handler function.  Each session binds the
        handlers to its Cpu, so a Cpu holds no bound method of itself
        and reference counting alone frees it."""
        table: dict[str, object] = {}
        for op in INSTRUCTION_CLASS:
            mangled = "_op_" + op.replace(".", "_")
            fn = getattr(type(self), mangled, None)
            if fn is None:
                raise SimulationError(f"missing handler {mangled} for {op!r}")
            table[op] = fn
        return table

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------
    def _charge(self, klass: str, cycles: int) -> None:
        self.cycle += cycles
        counts = self._class_counts
        if klass in counts:
            counts[klass] += 1
            self._class_cycles[klass] += cycles
        else:
            counts[klass] = 1
            self._class_cycles[klass] = cycles

    # ------------------------------------------------------------------
    # Integer ALU
    # ------------------------------------------------------------------
    def _alu3(self, ins: Instr, pc: int, value: int) -> int:
        if ins.rd:
            self.x[ins.rd] = value
        self._charge("int_alu", self.lat.int_alu)
        return pc + 1

    def _op_add(self, ins, pc):
        return self._alu3(ins, pc, _s32(self.x[ins.rs1] + self.x[ins.rs2]))

    def _op_sub(self, ins, pc):
        return self._alu3(ins, pc, _s32(self.x[ins.rs1] - self.x[ins.rs2]))

    def _op_and(self, ins, pc):
        return self._alu3(ins, pc, _s32(self.x[ins.rs1] & self.x[ins.rs2]))

    def _op_srl(self, ins, pc):
        return self._alu3(ins, pc, _s32((self.x[ins.rs1] & _U32) >> (self.x[ins.rs2] & 31)))

    def _op_addi(self, ins, pc):
        return self._alu3(ins, pc, _s32(self.x[ins.rs1] + ins.imm))

    def _op_andi(self, ins, pc):
        return self._alu3(ins, pc, _s32(self.x[ins.rs1] & ins.imm))

    def _op_slli(self, ins, pc):
        return self._alu3(ins, pc, _s32(self.x[ins.rs1] << ins.imm))

    def _op_srli(self, ins, pc):
        return self._alu3(ins, pc, _s32((self.x[ins.rs1] & _U32) >> ins.imm))

    def _op_li(self, ins, pc):
        return self._alu3(ins, pc, _s32(ins.imm))

    def _op_la(self, ins, pc):
        return self._alu3(ins, pc, _s32(ins.imm))

    # ------------------------------------------------------------------
    # Loads / stores: the memory response time comes from the bus, and a
    # load that does not complete immediately stalls the whole pipeline
    # (in-order core, Table 1).
    # ------------------------------------------------------------------
    def _load_word(self, ins) -> int:
        addr = _s32(self.x[ins.rs1] + ins.imm) & _U32
        start = self.cycle
        value, completion = self.bus.load_word(addr, start)
        cost = (completion - start) + self.lat.load_use
        self._charge("scalar_load", cost)
        return value

    def _op_lw(self, ins, pc):
        value = self._load_word(ins)
        if ins.rd:
            self.x[ins.rd] = _s32(value)
        return pc + 1

    def _op_flw(self, ins, pc):
        value = self._load_word(ins)
        self.f[ins.rd] = _bits_f32(value)
        return pc + 1

    def _op_sw(self, ins, pc):
        addr = _s32(self.x[ins.rs1] + ins.imm) & _U32
        self.bus.store_word(addr, self.x[ins.rs2] & _U32, self.cycle)
        self._charge("scalar_store", self.lat.scalar_store)
        return pc + 1

    def _op_fsw(self, ins, pc):
        addr = _s32(self.x[ins.rs1] + ins.imm) & _U32
        self.bus.store_word(addr, _f32bits(self.f[ins.rs2]), self.cycle)
        self._charge("scalar_store", self.lat.scalar_store)
        return pc + 1

    # ------------------------------------------------------------------
    # Branches / jumps
    # ------------------------------------------------------------------
    def _branch(self, ins, pc, taken: bool) -> int:
        cost = self.lat.branch
        if taken:
            cost += self.lat.branch_taken_penalty
            self.counters.taken_branches += 1
        self._charge("branch", cost)
        return ins.target if taken else pc + 1

    def _op_beq(self, ins, pc):
        return self._branch(ins, pc, self.x[ins.rs1] == self.x[ins.rs2])

    def _op_bne(self, ins, pc):
        return self._branch(ins, pc, self.x[ins.rs1] != self.x[ins.rs2])

    def _op_blt(self, ins, pc):
        return self._branch(ins, pc, self.x[ins.rs1] < self.x[ins.rs2])

    def _op_bge(self, ins, pc):
        return self._branch(ins, pc, self.x[ins.rs1] >= self.x[ins.rs2])

    def _op_jal(self, ins, pc):
        if ins.rd:
            self.x[ins.rd] = (pc + 1) * 4
        self._charge("jump", self.lat.jump)
        return ins.target

    # ------------------------------------------------------------------
    # Scalar floating point (computed in double, rounded at memory edges)
    # ------------------------------------------------------------------
    def _op_fmadd_s(self, ins, pc):
        self.f[ins.rd] = self.f[ins.rs1] * self.f[ins.rs2] + self.f[ins.rs3]
        self._charge("fp_fma", self.lat.fp_fma)
        return pc + 1

    def _op_fmv_w_x(self, ins, pc):
        self.f[ins.rd] = _UNPACK_F(_PACK_I(_s32(self.x[ins.rs1])))[0]
        self._charge("fp_alu", self.lat.fp_alu)
        return pc + 1

    # ------------------------------------------------------------------
    # Vector extension (SEW=32, LMUL=1, tail-undisturbed)
    # ------------------------------------------------------------------
    def _op_vsetvli(self, ins, pc):
        vl = self.vlmax
        if ins.rs1:
            requested = self.x[ins.rs1] & _U32
            if requested < vl:
                vl = requested
        if vl != self.vl:
            self.vl = vl
            self.vset = self._vsets[vl]
        if ins.rd:
            self.x[ins.rd] = vl
        self._charge("vector_config", self.lat.vector_config)
        return pc + 1

    def _op_vle32_v(self, ins, pc):
        addr = self.x[ins.rs1] & _U32
        start = self.cycle
        # The words may alias RAM or a FIFO fill: copy them in at once.
        values, completion = self.bus.load_burst(addr, self.vl, start)
        self.vset.v[ins.rd][...] = values
        self._charge("vector_load", (completion - start) + self.lat.load_use)
        return pc + 1

    def _op_vluxei32_v(self, ins, pc):
        """Indexed gather: element addresses = base + byte-offset vector.

        The vector unit is not pipelined (Table 1), so gather elements
        serialise: each element's request issues only after the previous
        response — the expensive metadata access pattern of Section 2.
        """
        base = self.x[ins.rs1] & _U32
        v = self.vset.v
        start = self.cycle
        # Non-pipelined vector unit: the next element's address is
        # generated only after this response returns (1 cycle).
        values, t = self.bus.gather_chain(
            [(base + o) & _U32 for o in v[ins.rs2].tolist()], start
        )
        v[ins.rd][...] = values
        self._charge("vector_gather", (t - start) + self.lat.load_use)
        return pc + 1

    # ------------------------------------------------------------------
    # Accelerator front-end instructions (repro.accel).  The SSR pops
    # read the stream unit the SoC attached; the IndexMAC pair issues
    # *pipelined* gathers — one element request per cycle, letting the
    # port overlap responses — unlike vluxei32.v's serialised chain.
    # ------------------------------------------------------------------
    def _require_ssr(self):
        unit = self.ssr
        if unit is None:
            raise SimulationError(
                "SSR instruction without the 'ssr' front-end configured "
                "(add an accelerators entry with kind='ssr')"
            )
        return unit

    def _op_fssrpop(self, ins, pc):
        unit = self._require_ssr()
        start = self.cycle
        values, completion = unit.pop(ins.imm or 0, 1, start)
        self.f[ins.rd] = _bits_f32(values[0])
        self._charge("ssr_pop", (completion - start) + self.lat.load_use)
        return pc + 1

    def _op_vssrpop_v(self, ins, pc):
        unit = self._require_ssr()
        start = self.cycle
        values, completion = unit.pop(ins.imm or 0, self.vl, start)
        self.vset.v[ins.rd][...] = values
        self._charge("ssr_pop", (completion - start) + self.lat.load_use)
        return pc + 1

    def _require_indexmac(self):
        unit = self.indexmac
        if unit is None:
            raise SimulationError(
                "IndexMAC instruction without the 'indexmac' front-end "
                "configured (add an accelerators entry with kind='indexmac')"
            )
        return unit

    def _pipelined_gather(self, base: int, indices) -> tuple[np.ndarray, int]:
        """Gather words at base + 4*index, issuing one request per cycle.

        Returns (bit patterns, last completion cycle).  Indices are
        *element* indices — the x4 scaling is part of the instruction,
        so kernels skip the baseline's vsll.vi step.
        """
        return self.bus.gather(
            [(base + 4 * i) & _U32 for i in indices.tolist()], self.cycle
        )

    def _op_vlpidx_v(self, ins, pc):
        unit = self._require_indexmac()
        vset = self.vset
        base = self.x[ins.rs1] & _U32
        gathered, latest = self._pipelined_gather(base, vset.vi[ins.rs2])
        vset.v[ins.rd][...] = gathered
        unit.gathers += 1
        unit.gathered_elements += self.vl
        self._charge(
            "vector_pgather", (latest - self.cycle) + self.lat.load_use
        )
        return pc + 1

    def _op_vfmacidx(self, ins, pc):
        unit = self._require_indexmac()
        vset = self.vset
        base = self.x[ins.rs1] & _U32
        gathered, latest = self._pipelined_gather(base, vset.vi[ins.rs2])
        vf = vset.vf
        acc = vf[ins.rd]
        acc += np.multiply(gathered.view(np.float32), vf[ins.rs3],
                           out=vset.scr)
        unit.macs += 1
        unit.gathered_elements += self.vl
        cost = (latest - self.cycle) + self.lat.load_use + self.lat.vector_fp
        self._charge("vector_mac_idx", cost)
        return pc + 1

    def _op_vfmacc_vv(self, ins, pc):
        vset = self.vset
        vf = vset.vf
        acc = vf[ins.rd]
        acc += np.multiply(vf[ins.rs1], vf[ins.rs2], out=vset.scr)
        self._charge("vector_fp", self.lat.vector_fp)
        return pc + 1

    def _op_vfredosum_vs(self, ins, pc):
        """Ordered reduction: vd[0] = vs1[0] + sum(vs2[0..vl-1]) in order."""
        vl = self.vl
        vec = self.vset.vf[ins.rs1]
        # The scalar operand and the result are element 0, at any VL.
        vf = self.vf
        acc = np.float32(vf[ins.rs2][0])
        for i in range(vl):
            acc = np.float32(acc + vec[i])
        vf[ins.rd][0] = acc
        cost = self.lat.vector_fp + self.lat.vector_reduction_per_elem * vl
        self._charge("vector_fp", cost)
        return pc + 1

    def _op_vsll_vi(self, ins, pc):
        # numpy's uint32 << drops shifted-out bits, like the hardware.
        v = self.vset.v
        np.left_shift(v[ins.rs1], ins.imm, out=v[ins.rd])
        self._charge("vector_int", self.lat.vector_int)
        return pc + 1

    def _op_vmv_v_i(self, ins, pc):
        self.vset.vi[ins.rd][...] = np.int32(ins.imm)
        self._charge("vector_int", self.lat.vector_int)
        return pc + 1

    def _op_vfmv_f_s(self, ins, pc):
        self.f[ins.rd] = float(self.vf[ins.rs1][0])
        self._charge("vector_fp", self.lat.vector_fp)
        return pc + 1

    def _op_vfmv_s_f(self, ins, pc):
        self.vf[ins.rd][0] = np.float32(self.f[ins.rs1])
        self._charge("vector_fp", self.lat.vector_fp)
        return pc + 1

    # ------------------------------------------------------------------
    # System
    # ------------------------------------------------------------------
    def _op_halt(self, ins, pc):
        self.halted = True
        self._charge("system", self.lat.system)
        return pc
