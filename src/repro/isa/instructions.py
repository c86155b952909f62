"""Instruction representation and the opcode syntax table.

We model the instruction set behaviourally (no binary encoding): each
instruction is an :class:`Instr` record with symbolic operands.  The
subset covers what Table 1's core provides — RV32I base, M (multiply),
F (single-precision float) and the vector extension operations the SpMV /
SpMSpV kernels need (including the indexed gather ``vluxei32.v`` that the
baseline uses, cf. Section 2's discussion of vector gather instructions).

``SYNTAX`` maps each mnemonic to an operand-pattern name understood by the
assembler; ``INSTRUCTION_CLASS`` groups mnemonics for the timing model and
the energy accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class Instr:
    """One assembled instruction (operand fields unused by an op stay None)."""

    op: str
    rd: int | None = None
    rs1: int | None = None
    rs2: int | None = None
    rs3: int | None = None
    imm: int | None = None
    target: int | None = None      # resolved branch/jump target (instruction index)
    label: str | None = None       # unresolved symbolic target (pre-resolution)
    source_line: int = 0           # 1-based line in the assembly source
    text: str = ""                 # original source text, for diagnostics
    meta: bool = False             # marked "[meta]": a metadata-overhead op

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.text or self.op


def s32(value: int) -> int:
    """Wrap an int to signed 32-bit two's complement.

    The architectural sign interpretation of a 32-bit word — shared by
    the interpreter (every ALU result) and the instrumentation layer
    (rendering destination-register values in traces).
    """
    return ((value + 0x80000000) & 0xFFFFFFFF) - 0x80000000


# ---------------------------------------------------------------------------
# Operand-pattern table.  Pattern names are interpreted by the assembler:
#   r3      op rd, rs1, rs2            (integer)
#   i2      op rd, rs1, imm
#   shifti  op rd, rs1, uimm5
#   load    op rd, imm(rs1)
#   store   op rs2, imm(rs1)
#   fload   op fd, imm(rs1)
#   fstore  op fs2, imm(rs1)
#   branch  op rs1, rs2, label
#   u       op rd, imm
#   li      op rd, imm32
#   la      op rd, symbol
#   jal     op rd, label
#   jalr    op rd, imm(rs1)
#   f3      op fd, fs1, fs2
#   f4      op fd, fs1, fs2, fs3
#   fcmp    op rd, fs1, fs2
#   fmvxw   op rd, fs1
#   fmvwx   op fd, rs1
#   vsetvli op rd, rs1, vtype-tokens
#   vload   op vd, (rs1)
#   vstore  op vs3, (rs1)
#   vgather op vd, (rs1), vs2
#   vmacidx op vd, (rs1), vs2, vs3     (indexed gather + MAC, IndexMAC)
#   fpop    op fd, imm                 (SSR stream pop, scalar)
#   vpop    op vd, imm                 (SSR stream pop, vector)
#   v3      op vd, va, vb              (element-wise, our operand order)
#   vred    op vd, vs2, vs1            (ordered reduction)
#   vx      op vd, vs2, rs1
#   vi      op vd, vs2, imm
#   vmvvi   op vd, imm
#   vmvvx   op vd, rs1
#   vfmvfs  op fd, vs2
#   vfmvsf  op vd, fs1
#   vid     op vd
#   none    op
# ---------------------------------------------------------------------------
SYNTAX: dict[str, str] = {}


def _reg(ops: str, pattern: str) -> None:
    for op in ops.split():
        SYNTAX[op] = pattern


# RV32I base integer
_reg("add sub and or xor sll srl sra slt sltu", "r3")
_reg("addi andi ori xori slti sltiu", "i2")
_reg("slli srli srai", "shifti")
_reg("lw lh lhu lb lbu", "load")
_reg("sw sh sb", "store")
_reg("beq bne blt bge bltu bgeu", "branch")
_reg("lui auipc", "u")
_reg("li", "li")
_reg("la", "la")
_reg("jal", "jal")
_reg("jalr", "jalr")
_reg("halt ecall ebreak nopseudo", "none")

# M extension
_reg("mul mulh mulhu mulhsu div divu rem remu", "r3")

# F extension (single precision)
_reg("flw", "fload")
_reg("fsw", "fstore")
_reg("fadd.s fsub.s fmul.s fdiv.s fmin.s fmax.s fsgnj.s fsgnjn.s fsgnjx.s", "f3")
_reg("fmadd.s fmsub.s fnmadd.s fnmsub.s", "f4")
_reg("feq.s flt.s fle.s", "fcmp")
_reg("fmv.x.w fcvt.w.s fcvt.wu.s", "fmvxw")
_reg("fmv.w.x fcvt.s.w fcvt.s.wu", "fmvwx")

# V extension subset
_reg("vsetvli", "vsetvli")
_reg("vle32.v", "vload")
_reg("vse32.v", "vstore")
_reg("vluxei32.v", "vgather")
_reg("vfadd.vv vfsub.vv vfmul.vv vfmacc.vv vadd.vv vsub.vv vmul.vv vand.vv vor.vv vxor.vv", "v3")
_reg("vfredosum.vs vfredusum.vs vredsum.vs", "vred")
_reg("vadd.vx vmul.vx vand.vx vor.vx", "vx")
_reg("vsll.vi vsrl.vi vadd.vi vand.vi", "vi")
_reg("vmv.v.i", "vmvvi")
_reg("vmv.v.x vmv.s.x", "vmvvx")
_reg("vfmv.f.s", "vfmvfs")
_reg("vfmv.s.f vfmv.v.f", "vfmvsf")
_reg("vid.v", "vid")

# Accelerator front-end extensions (repro.accel).  The handlers exist on
# every CPU; executing one without the owning front-end configured is a
# runtime SimulationError, mirroring an illegal-instruction trap.
_reg("fssrpop", "fpop")          # SSR: pop one stream element to fd
_reg("vssrpop.v", "vpop")        # SSR: pop vl stream elements to vd
_reg("vlpidx.v", "vgather")      # IndexMAC: pipelined indexed gather
_reg("vfmacidx", "vmacidx")      # IndexMAC: fused indexed gather + MAC


# ---------------------------------------------------------------------------
# Instruction classes for timing / energy accounting.
# ---------------------------------------------------------------------------
INSTRUCTION_CLASS: dict[str, str] = {}


def _cls(ops: str, klass: str) -> None:
    for op in ops.split():
        INSTRUCTION_CLASS[op] = klass


_cls("add sub and or xor sll srl sra slt sltu addi andi ori xori slti sltiu "
     "slli srli srai lui auipc li la", "int_alu")
_cls("mul mulh mulhu mulhsu", "int_mul")
_cls("div divu rem remu", "int_div")
_cls("lw lh lhu lb lbu flw", "scalar_load")
_cls("sw sh sb fsw", "scalar_store")
_cls("beq bne blt bge bltu bgeu", "branch")
_cls("jal jalr", "jump")
_cls("fadd.s fsub.s fmul.s fmin.s fmax.s fsgnj.s fsgnjn.s fsgnjx.s "
     "feq.s flt.s fle.s fmv.x.w fmv.w.x fcvt.w.s fcvt.wu.s fcvt.s.w fcvt.s.wu",
     "fp_alu")
_cls("fmadd.s fmsub.s fnmadd.s fnmsub.s", "fp_fma")
_cls("fdiv.s", "fp_div")
_cls("vsetvli", "vector_config")
_cls("vle32.v", "vector_load")
_cls("vse32.v", "vector_store")
_cls("vluxei32.v", "vector_gather")
_cls("vfadd.vv vfsub.vv vfmul.vv vfmacc.vv vfredosum.vs vfredusum.vs "
     "vfmv.f.s vfmv.s.f vfmv.v.f", "vector_fp")
_cls("vadd.vv vsub.vv vmul.vv vand.vv vor.vv vxor.vv vredsum.vs vadd.vx "
     "vmul.vx vand.vx vor.vx vsll.vi vsrl.vi vadd.vi vand.vi vmv.v.i "
     "vmv.v.x vmv.s.x vid.v", "vector_int")
_cls("halt ecall ebreak nopseudo", "system")
_cls("fssrpop vssrpop.v", "ssr_pop")
_cls("vlpidx.v", "vector_pgather")
_cls("vfmacidx", "vector_mac_idx")


def instruction_class(op: str) -> str:
    """Timing/energy class for a mnemonic (raises KeyError if unknown)."""
    return INSTRUCTION_CLASS[op]


ALL_MNEMONICS = frozenset(SYNTAX)
