"""Behavioural, cycle-approximate model of the RV32IMF+V primary core.

This plays the role of the paper's extended Spike: it executes assembled
programs (see :mod:`repro.isa`) instruction by instruction, charging each
one a latency from :class:`~repro.cpu.timing.LatencyTable` and interacting
with the shared memory system for loads/stores — including memory-mapped
HHT FIFO loads, which may stall the core until a buffer is ready.

The interpreter is written for speed (per the HPC guides: tight dispatch,
no per-cycle loop): handlers are pre-bound per program, registers are
plain Python lists, and vector registers are small ``uint32`` numpy arrays
reinterpreted as ``float32``/``int32`` views inside vector handlers.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ..component import SimComponent, StatsDict
from ..isa.encoding import s32
from ..isa.instructions import INSTRUCTION_CLASS, Instr
from ..isa.program import Program
from ..memory.bus import Bus
from .timing import CpuConfig

_U32 = 0xFFFFFFFF
_PACK_F = struct.Struct("<f").pack
_UNPACK_I = struct.Struct("<i").unpack
_PACK_I = struct.Struct("<i").pack
_UNPACK_F = struct.Struct("<f").unpack

# Local alias for the public repro.isa.encoding.s32 (the handlers below
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

    def merge_class(self, klass: str, cycles: int) -> None:
        self.class_counts[klass] = self.class_counts.get(klass, 0) + 1
        self.class_cycles[klass] = self.class_cycles.get(klass, 0) + cycles


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
        self._reset_local()
        self._dispatch = self._build_dispatch()

    def _reset_local(self) -> None:
        self.x: list[int] = [0] * 32
        self.f: list[float] = [0.0] * 32
        self.v: list[np.ndarray] = [
            np.zeros(self.vlmax, dtype=np.uint32) for _ in range(32)
        ]
        self.vl = self.vlmax
        self.cycle = 0
        self.halted = False
        self.counters = CpuStats()
        # Hot-path aliases: _charge bumps these on every instruction, so
        # skip the counters-object indirection (and merge_class's dict.get
        # pair) in the dispatch loop.
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
    # Execution (both entry points are views of one SimSession — the
    # single canonical interpreter loop lives in repro.instrument).
    # ------------------------------------------------------------------
    def run(self, program: Program, entry: int | str | None = None,
            probes: tuple = ()) -> CpuStats:
        """Execute *program* until ``halt``; returns the run's statistics."""
        from ..instrument.session import SimSession

        return SimSession(self, program, entry=entry, probes=probes).run()

    def prepare(self, program: Program, entry: int | str | None = None) -> None:
        """Load *program* for incremental execution via :meth:`step_one`.

        Used by the programmable HHT's helper core, which must interleave
        with the rest of the system event by event under an external
        clock (the engine mutates ``cycle`` between steps).
        """
        from ..instrument.session import SimSession

        self._session = SimSession(self, program, entry=entry)

    def step_one(self) -> bool:
        """Execute one instruction; returns False once halted."""
        return self._session.step()

    @property
    def _step_pc(self) -> int:
        """Next instruction index of the prepared session (debug aid)."""
        return self._session._pc

    def _build_dispatch(self) -> dict[str, object]:
        table: dict[str, object] = {}
        for op in INSTRUCTION_CLASS:
            mangled = "_op_" + op.replace(".", "_")
            fn = getattr(self, mangled, None)
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

    def _op_or(self, ins, pc):
        return self._alu3(ins, pc, _s32(self.x[ins.rs1] | self.x[ins.rs2]))

    def _op_xor(self, ins, pc):
        return self._alu3(ins, pc, _s32(self.x[ins.rs1] ^ self.x[ins.rs2]))

    def _op_sll(self, ins, pc):
        return self._alu3(ins, pc, _s32(self.x[ins.rs1] << (self.x[ins.rs2] & 31)))

    def _op_srl(self, ins, pc):
        return self._alu3(ins, pc, _s32((self.x[ins.rs1] & _U32) >> (self.x[ins.rs2] & 31)))

    def _op_sra(self, ins, pc):
        return self._alu3(ins, pc, self.x[ins.rs1] >> (self.x[ins.rs2] & 31))

    def _op_slt(self, ins, pc):
        return self._alu3(ins, pc, int(self.x[ins.rs1] < self.x[ins.rs2]))

    def _op_sltu(self, ins, pc):
        return self._alu3(ins, pc, int((self.x[ins.rs1] & _U32) < (self.x[ins.rs2] & _U32)))

    def _op_addi(self, ins, pc):
        return self._alu3(ins, pc, _s32(self.x[ins.rs1] + ins.imm))

    def _op_andi(self, ins, pc):
        return self._alu3(ins, pc, _s32(self.x[ins.rs1] & ins.imm))

    def _op_ori(self, ins, pc):
        return self._alu3(ins, pc, _s32(self.x[ins.rs1] | ins.imm))

    def _op_xori(self, ins, pc):
        return self._alu3(ins, pc, _s32(self.x[ins.rs1] ^ ins.imm))

    def _op_slti(self, ins, pc):
        return self._alu3(ins, pc, int(self.x[ins.rs1] < ins.imm))

    def _op_sltiu(self, ins, pc):
        return self._alu3(ins, pc, int((self.x[ins.rs1] & _U32) < (ins.imm & _U32)))

    def _op_slli(self, ins, pc):
        return self._alu3(ins, pc, _s32(self.x[ins.rs1] << ins.imm))

    def _op_srli(self, ins, pc):
        return self._alu3(ins, pc, _s32((self.x[ins.rs1] & _U32) >> ins.imm))

    def _op_srai(self, ins, pc):
        return self._alu3(ins, pc, self.x[ins.rs1] >> ins.imm)

    def _op_lui(self, ins, pc):
        return self._alu3(ins, pc, _s32(ins.imm << 12))

    def _op_auipc(self, ins, pc):
        return self._alu3(ins, pc, _s32((ins.imm << 12) + pc * 4))

    def _op_li(self, ins, pc):
        return self._alu3(ins, pc, _s32(ins.imm))

    def _op_la(self, ins, pc):
        return self._alu3(ins, pc, _s32(ins.imm))

    # ------------------------------------------------------------------
    # M extension
    # ------------------------------------------------------------------
    def _op_mul(self, ins, pc):
        if ins.rd:
            self.x[ins.rd] = _s32(self.x[ins.rs1] * self.x[ins.rs2])
        self._charge("int_mul", self.lat.int_mul)
        return pc + 1

    def _op_mulh(self, ins, pc):
        if ins.rd:
            self.x[ins.rd] = _s32((self.x[ins.rs1] * self.x[ins.rs2]) >> 32)
        self._charge("int_mul", self.lat.int_mul)
        return pc + 1

    def _op_mulhu(self, ins, pc):
        if ins.rd:
            self.x[ins.rd] = _s32(((self.x[ins.rs1] & _U32) * (self.x[ins.rs2] & _U32)) >> 32)
        self._charge("int_mul", self.lat.int_mul)
        return pc + 1

    def _op_mulhsu(self, ins, pc):
        if ins.rd:
            self.x[ins.rd] = _s32((self.x[ins.rs1] * (self.x[ins.rs2] & _U32)) >> 32)
        self._charge("int_mul", self.lat.int_mul)
        return pc + 1

    def _op_div(self, ins, pc):
        a, b = self.x[ins.rs1], self.x[ins.rs2]
        if b == 0:
            q = -1
        elif a == -(2**31) and b == -1:
            q = a
        else:
            q = int(a / b)  # truncation toward zero
        if ins.rd:
            self.x[ins.rd] = _s32(q)
        self._charge("int_div", self.lat.int_div)
        return pc + 1

    def _op_divu(self, ins, pc):
        a, b = self.x[ins.rs1] & _U32, self.x[ins.rs2] & _U32
        q = _U32 if b == 0 else a // b
        if ins.rd:
            self.x[ins.rd] = _s32(q)
        self._charge("int_div", self.lat.int_div)
        return pc + 1

    def _op_rem(self, ins, pc):
        a, b = self.x[ins.rs1], self.x[ins.rs2]
        if b == 0:
            r = a
        elif a == -(2**31) and b == -1:
            r = 0
        else:
            r = a - int(a / b) * b
        if ins.rd:
            self.x[ins.rd] = _s32(r)
        self._charge("int_div", self.lat.int_div)
        return pc + 1

    def _op_remu(self, ins, pc):
        a, b = self.x[ins.rs1] & _U32, self.x[ins.rs2] & _U32
        r = a if b == 0 else a % b
        if ins.rd:
            self.x[ins.rd] = _s32(r)
        self._charge("int_div", self.lat.int_div)
        return pc + 1

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

    def _op_lh(self, ins, pc):
        addr = _s32(self.x[ins.rs1] + ins.imm) & _U32
        start = self.cycle
        _, completion = self.bus.load_word(addr & ~3, start)
        half = self.bus.ram.read_u16(addr)
        if ins.rd:
            self.x[ins.rd] = _s32(half | (0xFFFF0000 if half & 0x8000 else 0))
        self._charge("scalar_load", (completion - start) + self.lat.load_use)
        return pc + 1

    def _op_lhu(self, ins, pc):
        addr = _s32(self.x[ins.rs1] + ins.imm) & _U32
        start = self.cycle
        _, completion = self.bus.load_word(addr & ~3, start)
        if ins.rd:
            self.x[ins.rd] = self.bus.ram.read_u16(addr)
        self._charge("scalar_load", (completion - start) + self.lat.load_use)
        return pc + 1

    def _op_lb(self, ins, pc):
        addr = _s32(self.x[ins.rs1] + ins.imm) & _U32
        start = self.cycle
        _, completion = self.bus.load_word(addr & ~3, start)
        byte = self.bus.ram.read_u8(addr)
        if ins.rd:
            self.x[ins.rd] = _s32(byte | (0xFFFFFF00 if byte & 0x80 else 0))
        self._charge("scalar_load", (completion - start) + self.lat.load_use)
        return pc + 1

    def _op_lbu(self, ins, pc):
        addr = _s32(self.x[ins.rs1] + ins.imm) & _U32
        start = self.cycle
        _, completion = self.bus.load_word(addr & ~3, start)
        if ins.rd:
            self.x[ins.rd] = self.bus.ram.read_u8(addr)
        self._charge("scalar_load", (completion - start) + self.lat.load_use)
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

    def _op_sh(self, ins, pc):
        addr = _s32(self.x[ins.rs1] + ins.imm) & _U32
        self.bus.mem.write(addr, self.cycle, self.bus.default_requester)
        self.bus.ram.write_u16(addr, self.x[ins.rs2] & 0xFFFF)
        self._charge("scalar_store", self.lat.scalar_store)
        return pc + 1

    def _op_sb(self, ins, pc):
        addr = _s32(self.x[ins.rs1] + ins.imm) & _U32
        self.bus.mem.write(addr, self.cycle, self.bus.default_requester)
        self.bus.ram.write_u8(addr, self.x[ins.rs2] & 0xFF)
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

    def _op_bltu(self, ins, pc):
        return self._branch(ins, pc, (self.x[ins.rs1] & _U32) < (self.x[ins.rs2] & _U32))

    def _op_bgeu(self, ins, pc):
        return self._branch(ins, pc, (self.x[ins.rs1] & _U32) >= (self.x[ins.rs2] & _U32))

    def _op_jal(self, ins, pc):
        if ins.rd:
            self.x[ins.rd] = (pc + 1) * 4
        self._charge("jump", self.lat.jump)
        return ins.target

    def _op_jalr(self, ins, pc):
        dest = (_s32(self.x[ins.rs1] + ins.imm) & ~1) // 4
        if ins.rd:
            self.x[ins.rd] = (pc + 1) * 4
        self._charge("jump", self.lat.jump)
        return dest

    # ------------------------------------------------------------------
    # Scalar floating point (computed in double, rounded at memory edges)
    # ------------------------------------------------------------------
    def _fp2(self, ins, pc, value: float, klass: str = "fp_alu", cost: int | None = None) -> int:
        self.f[ins.rd] = value
        self._charge(klass, cost if cost is not None else self.lat.fp_alu)
        return pc + 1

    def _op_fadd_s(self, ins, pc):
        return self._fp2(ins, pc, self.f[ins.rs1] + self.f[ins.rs2])

    def _op_fsub_s(self, ins, pc):
        return self._fp2(ins, pc, self.f[ins.rs1] - self.f[ins.rs2])

    def _op_fmul_s(self, ins, pc):
        return self._fp2(ins, pc, self.f[ins.rs1] * self.f[ins.rs2])

    def _op_fdiv_s(self, ins, pc):
        b = self.f[ins.rs2]
        value = float("nan") if b == 0.0 and self.f[ins.rs1] == 0.0 else (
            float("inf") if b == 0.0 else self.f[ins.rs1] / b
        )
        return self._fp2(ins, pc, value, "fp_div", self.lat.fp_div)

    def _op_fmin_s(self, ins, pc):
        return self._fp2(ins, pc, min(self.f[ins.rs1], self.f[ins.rs2]))

    def _op_fmax_s(self, ins, pc):
        return self._fp2(ins, pc, max(self.f[ins.rs1], self.f[ins.rs2]))

    def _op_fsgnj_s(self, ins, pc):
        return self._fp2(
            ins, pc, math.copysign(abs(self.f[ins.rs1]), self.f[ins.rs2])
        )

    def _op_fsgnjn_s(self, ins, pc):
        return self._fp2(
            ins, pc, math.copysign(abs(self.f[ins.rs1]), -math.copysign(1.0, self.f[ins.rs2]))
        )

    def _op_fsgnjx_s(self, ins, pc):
        sign = math.copysign(1.0, self.f[ins.rs1]) * math.copysign(1.0, self.f[ins.rs2])
        return self._fp2(ins, pc, math.copysign(abs(self.f[ins.rs1]), sign))

    def _op_fmadd_s(self, ins, pc):
        value = self.f[ins.rs1] * self.f[ins.rs2] + self.f[ins.rs3]
        return self._fp2(ins, pc, value, "fp_fma", self.lat.fp_fma)

    def _op_fmsub_s(self, ins, pc):
        value = self.f[ins.rs1] * self.f[ins.rs2] - self.f[ins.rs3]
        return self._fp2(ins, pc, value, "fp_fma", self.lat.fp_fma)

    def _op_fnmadd_s(self, ins, pc):
        value = -(self.f[ins.rs1] * self.f[ins.rs2]) - self.f[ins.rs3]
        return self._fp2(ins, pc, value, "fp_fma", self.lat.fp_fma)

    def _op_fnmsub_s(self, ins, pc):
        value = -(self.f[ins.rs1] * self.f[ins.rs2]) + self.f[ins.rs3]
        return self._fp2(ins, pc, value, "fp_fma", self.lat.fp_fma)

    def _op_feq_s(self, ins, pc):
        if ins.rd:
            self.x[ins.rd] = int(self.f[ins.rs1] == self.f[ins.rs2])
        self._charge("fp_alu", self.lat.fp_alu)
        return pc + 1

    def _op_flt_s(self, ins, pc):
        if ins.rd:
            self.x[ins.rd] = int(self.f[ins.rs1] < self.f[ins.rs2])
        self._charge("fp_alu", self.lat.fp_alu)
        return pc + 1

    def _op_fle_s(self, ins, pc):
        if ins.rd:
            self.x[ins.rd] = int(self.f[ins.rs1] <= self.f[ins.rs2])
        self._charge("fp_alu", self.lat.fp_alu)
        return pc + 1

    def _op_fmv_x_w(self, ins, pc):
        if ins.rd:
            self.x[ins.rd] = _UNPACK_I(_PACK_F(self.f[ins.rs1]))[0]
        self._charge("fp_alu", self.lat.fp_alu)
        return pc + 1

    def _op_fmv_w_x(self, ins, pc):
        self.f[ins.rd] = _UNPACK_F(_PACK_I(_s32(self.x[ins.rs1])))[0]
        self._charge("fp_alu", self.lat.fp_alu)
        return pc + 1

    def _op_fcvt_w_s(self, ins, pc):
        if ins.rd:
            self.x[ins.rd] = _s32(int(self.f[ins.rs1]))
        self._charge("fp_alu", self.lat.fp_alu)
        return pc + 1

    def _op_fcvt_wu_s(self, ins, pc):
        if ins.rd:
            self.x[ins.rd] = _s32(max(0, int(self.f[ins.rs1])) & _U32)
        self._charge("fp_alu", self.lat.fp_alu)
        return pc + 1

    def _op_fcvt_s_w(self, ins, pc):
        self.f[ins.rd] = float(self.x[ins.rs1])
        self._charge("fp_alu", self.lat.fp_alu)
        return pc + 1

    def _op_fcvt_s_wu(self, ins, pc):
        self.f[ins.rd] = float(self.x[ins.rs1] & _U32)
        self._charge("fp_alu", self.lat.fp_alu)
        return pc + 1

    # ------------------------------------------------------------------
    # Vector extension (SEW=32, LMUL=1, tail-undisturbed)
    # ------------------------------------------------------------------
    def _op_vsetvli(self, ins, pc):
        requested = self.x[ins.rs1] & _U32
        if ins.rs1 == 0:
            vl = self.vlmax
        else:
            vl = min(requested, self.vlmax)
        self.vl = int(vl)
        if ins.rd:
            self.x[ins.rd] = self.vl
        self._charge("vector_config", self.lat.vector_config)
        return pc + 1

    def _op_vle32_v(self, ins, pc):
        addr = self.x[ins.rs1] & _U32
        start = self.cycle
        values, completion = self.bus.load_burst(addr, self.vl, start)
        self.v[ins.rd][: self.vl] = values
        self._charge("vector_load", (completion - start) + self.lat.load_use)
        return pc + 1

    def _op_vse32_v(self, ins, pc):
        addr = self.x[ins.rs1] & _U32
        self.bus.store_burst(addr, self.v[ins.rs2][: self.vl], self.cycle)
        self._charge(
            "vector_store", max(1, self.lat.vector_store_per_elem * self.vl)
        )
        return pc + 1

    def _op_vluxei32_v(self, ins, pc):
        """Indexed gather: element addresses = base + byte-offset vector.

        The vector unit is not pipelined (Table 1), so gather elements
        serialise: each element's request issues only after the previous
        response — the expensive metadata access pattern of Section 2.
        """
        base = self.x[ins.rs1] & _U32
        vl = self.vl
        start = self.cycle
        # Non-pipelined vector unit: the next element's address is
        # generated only after this response returns (1 cycle).
        values, t = self.bus.gather_chain(
            [(base + o) & _U32 for o in self.v[ins.rs2][:vl].tolist()], start
        )
        self.v[ins.rd][:vl] = values
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
        self.v[ins.rd][: self.vl] = values
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
        vl = self.vl
        base = self.x[ins.rs1] & _U32
        indices = self.v[ins.rs2][:vl].view(np.int32)
        gathered, latest = self._pipelined_gather(base, indices)
        self.v[ins.rd][:vl] = gathered
        unit.gathers += 1
        unit.gathered_elements += vl
        self._charge(
            "vector_pgather", (latest - self.cycle) + self.lat.load_use
        )
        return pc + 1

    def _op_vfmacidx(self, ins, pc):
        unit = self._require_indexmac()
        vl = self.vl
        base = self.x[ins.rs1] & _U32
        indices = self.v[ins.rs2][:vl].view(np.int32)
        gathered, latest = self._pipelined_gather(base, indices)
        b = self.v[ins.rs3][:vl].view(np.float32)
        acc = self.v[ins.rd][:vl].view(np.float32)
        acc += gathered.view(np.float32) * b
        unit.macs += 1
        unit.gathered_elements += vl
        cost = (latest - self.cycle) + self.lat.load_use + self.lat.vector_fp
        self._charge("vector_mac_idx", cost)
        return pc + 1

    def _vf_binary(self, ins, pc, fn) -> int:
        vl = self.vl
        a = self.v[ins.rs1][:vl].view(np.float32)
        b = self.v[ins.rs2][:vl].view(np.float32)
        out = self.v[ins.rd][:vl].view(np.float32)
        fn(a, b, out)
        self._charge("vector_fp", self.lat.vector_fp)
        return pc + 1

    def _op_vfadd_vv(self, ins, pc):
        return self._vf_binary(ins, pc, lambda a, b, out: np.add(a, b, out=out))

    def _op_vfsub_vv(self, ins, pc):
        return self._vf_binary(ins, pc, lambda a, b, out: np.subtract(a, b, out=out))

    def _op_vfmul_vv(self, ins, pc):
        return self._vf_binary(ins, pc, lambda a, b, out: np.multiply(a, b, out=out))

    def _op_vfmacc_vv(self, ins, pc):
        vl = self.vl
        a = self.v[ins.rs1][:vl].view(np.float32)
        b = self.v[ins.rs2][:vl].view(np.float32)
        acc = self.v[ins.rd][:vl].view(np.float32)
        acc += a * b
        self._charge("vector_fp", self.lat.vector_fp)
        return pc + 1

    def _op_vfredosum_vs(self, ins, pc):
        """Ordered reduction: vd[0] = vs1[0] + sum(vs2[0..vl-1]) in order."""
        vl = self.vl
        vec = self.v[ins.rs1][:vl].view(np.float32)
        acc = np.float32(self.v[ins.rs2][:1].view(np.float32)[0])
        for i in range(vl):
            acc = np.float32(acc + vec[i])
        self.v[ins.rd][:1].view(np.float32)[0] = acc
        cost = self.lat.vector_fp + self.lat.vector_reduction_per_elem * vl
        self._charge("vector_fp", cost)
        return pc + 1

    def _op_vfredusum_vs(self, ins, pc):
        # Unordered sum — same value here (we keep order), cheaper timing.
        vl = self.vl
        vec = self.v[ins.rs1][:vl].view(np.float32)
        acc = np.float32(self.v[ins.rs2][:1].view(np.float32)[0])
        total = np.float32(acc + vec.sum(dtype=np.float32))
        self.v[ins.rd][:1].view(np.float32)[0] = total
        cost = self.lat.vector_fp + max(1, vl.bit_length())
        self._charge("vector_fp", cost)
        return pc + 1

    def _op_vredsum_vs(self, ins, pc):
        vl = self.vl
        vec = self.v[ins.rs1][:vl].view(np.int32)
        acc = int(self.v[ins.rs2][:1].view(np.int32)[0])
        total = _s32(acc + int(vec.sum()))
        self.v[ins.rd][:1].view(np.int32)[0] = total
        self._charge("vector_int", self.lat.vector_int + max(1, vl.bit_length()))
        return pc + 1

    def _vi_binary(self, ins, pc, fn) -> int:
        vl = self.vl
        a = self.v[ins.rs1][:vl].view(np.int32)
        b = self.v[ins.rs2][:vl].view(np.int32)
        out = self.v[ins.rd][:vl].view(np.int32)
        fn(a, b, out)
        self._charge("vector_int", self.lat.vector_int)
        return pc + 1

    def _op_vadd_vv(self, ins, pc):
        return self._vi_binary(ins, pc, lambda a, b, out: np.add(a, b, out=out))

    def _op_vsub_vv(self, ins, pc):
        return self._vi_binary(ins, pc, lambda a, b, out: np.subtract(a, b, out=out))

    def _op_vmul_vv(self, ins, pc):
        return self._vi_binary(ins, pc, lambda a, b, out: np.multiply(a, b, out=out))

    def _op_vand_vv(self, ins, pc):
        return self._vi_binary(ins, pc, lambda a, b, out: np.bitwise_and(a, b, out=out))

    def _op_vor_vv(self, ins, pc):
        return self._vi_binary(ins, pc, lambda a, b, out: np.bitwise_or(a, b, out=out))

    def _op_vxor_vv(self, ins, pc):
        return self._vi_binary(ins, pc, lambda a, b, out: np.bitwise_xor(a, b, out=out))

    def _vx_binary(self, ins, pc, fn) -> int:
        vl = self.vl
        a = self.v[ins.rs1][:vl].view(np.int32)
        s = np.int32(_s32(self.x[ins.rs2]))
        out = self.v[ins.rd][:vl].view(np.int32)
        fn(a, s, out)
        self._charge("vector_int", self.lat.vector_int)
        return pc + 1

    def _op_vadd_vx(self, ins, pc):
        return self._vx_binary(ins, pc, lambda a, s, out: np.add(a, s, out=out))

    def _op_vmul_vx(self, ins, pc):
        return self._vx_binary(ins, pc, lambda a, s, out: np.multiply(a, s, out=out))

    def _op_vand_vx(self, ins, pc):
        return self._vx_binary(ins, pc, lambda a, s, out: np.bitwise_and(a, s, out=out))

    def _op_vor_vx(self, ins, pc):
        return self._vx_binary(ins, pc, lambda a, s, out: np.bitwise_or(a, s, out=out))

    def _op_vsll_vi(self, ins, pc):
        vl = self.vl
        a = self.v[ins.rs1][:vl]
        self.v[ins.rd][:vl] = (a << np.uint32(ins.imm)) & np.uint32(_U32)
        self._charge("vector_int", self.lat.vector_int)
        return pc + 1

    def _op_vsrl_vi(self, ins, pc):
        vl = self.vl
        a = self.v[ins.rs1][:vl]
        self.v[ins.rd][:vl] = a >> np.uint32(ins.imm)
        self._charge("vector_int", self.lat.vector_int)
        return pc + 1

    def _op_vadd_vi(self, ins, pc):
        vl = self.vl
        a = self.v[ins.rs1][:vl].view(np.int32)
        self.v[ins.rd][:vl].view(np.int32)[:] = a + np.int32(ins.imm)
        self._charge("vector_int", self.lat.vector_int)
        return pc + 1

    def _op_vand_vi(self, ins, pc):
        vl = self.vl
        a = self.v[ins.rs1][:vl].view(np.int32)
        self.v[ins.rd][:vl].view(np.int32)[:] = a & np.int32(ins.imm)
        self._charge("vector_int", self.lat.vector_int)
        return pc + 1

    def _op_vmv_v_i(self, ins, pc):
        self.v[ins.rd][: self.vl].view(np.int32)[:] = np.int32(ins.imm)
        self._charge("vector_int", self.lat.vector_int)
        return pc + 1

    def _op_vmv_v_x(self, ins, pc):
        self.v[ins.rd][: self.vl].view(np.int32)[:] = np.int32(_s32(self.x[ins.rs1]))
        self._charge("vector_int", self.lat.vector_int)
        return pc + 1

    def _op_vmv_s_x(self, ins, pc):
        self.v[ins.rd][:1].view(np.int32)[0] = np.int32(_s32(self.x[ins.rs1]))
        self._charge("vector_int", self.lat.vector_int)
        return pc + 1

    def _op_vid_v(self, ins, pc):
        self.v[ins.rd][: self.vl] = np.arange(self.vl, dtype=np.uint32)
        self._charge("vector_int", self.lat.vector_int)
        return pc + 1

    def _op_vfmv_f_s(self, ins, pc):
        self.f[ins.rd] = float(self.v[ins.rs1][:1].view(np.float32)[0])
        self._charge("vector_fp", self.lat.vector_fp)
        return pc + 1

    def _op_vfmv_s_f(self, ins, pc):
        self.v[ins.rd][:1].view(np.float32)[0] = np.float32(self.f[ins.rs1])
        self._charge("vector_fp", self.lat.vector_fp)
        return pc + 1

    def _op_vfmv_v_f(self, ins, pc):
        self.v[ins.rd][: self.vl].view(np.float32)[:] = np.float32(self.f[ins.rs1])
        self._charge("vector_fp", self.lat.vector_fp)
        return pc + 1

    # ------------------------------------------------------------------
    # System
    # ------------------------------------------------------------------
    def _op_halt(self, ins, pc):
        self.halted = True
        self._charge("system", self.lat.system)
        return pc

    _op_ecall = _op_halt
    _op_ebreak = _op_halt

    def _op_nopseudo(self, ins, pc):
        self._charge("system", self.lat.system)
        return pc + 1
