"""Instruction representation and the opcode syntax table.

We model the instruction set behaviourally (no binary encoding): each
instruction is an :class:`Instr` record with symbolic operands.  The set
is exactly what the shipped SpMV / SpMSpV kernels and the helper-core
firmware assemble: the RV32I/F/V instructions the kernels execute
(including the indexed gather ``vluxei32.v`` that the baseline uses, cf.
Section 2's discussion of vector gather instructions) plus the four
accelerator front-end instructions.  Any other mnemonic is an
``AssemblerError`` at assembly time.

``SYNTAX`` maps each mnemonic to an operand-pattern name understood by the
assembler; ``INSTRUCTION_CLASS`` groups mnemonics for the timing model and
the energy accounting: each op's translation (:mod:`repro.cpu.compiled`)
charges its cycles to its class here, by the class's index in
``CLASSES``.
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
#   li      op rd, imm32
#   la      op rd, symbol
#   jal     op rd, label
#   f4      op fd, fs1, fs2, fs3
#   fmvwx   op fd, rs1
#   vsetvli op rd, rs1, vtype-tokens
#   vload   op vd, (rs1)
#   vgather op vd, (rs1), vs2
#   vmacidx op vd, (rs1), vs2, vs3     (indexed gather + MAC, IndexMAC)
#   fpop    op fd, imm                 (SSR stream pop, scalar)
#   vpop    op vd, imm                 (SSR stream pop, vector)
#   v3      op vd, vs1, vs2            (vfmacc.vv: vd += vs1 * vs2)
#   vred    op vd, vs2, vs1            (ordered reduction)
#   vi      op vd, vs2, imm
#   vmvvi   op vd, imm
#   vfmvfs  op fd, vs2
#   vfmvsf  op vd, fs1
#   none    op
# ---------------------------------------------------------------------------
SYNTAX: dict[str, str] = {}


def _reg(ops: str, pattern: str) -> None:
    for op in ops.split():
        SYNTAX[op] = pattern


# RV32I base integer
_reg("add sub and srl", "r3")
_reg("addi andi", "i2")
_reg("slli srli", "shifti")
_reg("lw", "load")
_reg("sw", "store")
_reg("beq bne blt bge", "branch")
_reg("li", "li")
_reg("la", "la")
_reg("jal", "jal")
_reg("halt", "none")

# F extension (single precision)
_reg("flw", "fload")
_reg("fsw", "fstore")
_reg("fmadd.s", "f4")
_reg("fmv.w.x", "fmvwx")

# V extension subset
_reg("vsetvli", "vsetvli")
_reg("vle32.v", "vload")
_reg("vluxei32.v", "vgather")
_reg("vfmacc.vv", "v3")
_reg("vfredosum.vs", "vred")
_reg("vsll.vi", "vi")
_reg("vmv.v.i", "vmvvi")
_reg("vfmv.f.s", "vfmvfs")
_reg("vfmv.s.f", "vfmvsf")

# Accelerator front-end extensions (repro.accel).  Every CPU can run
# them; executing one without the owning front-end configured is a
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


_cls("add sub and srl addi andi slli srli li la", "int_alu")
_cls("lw flw", "scalar_load")
_cls("sw fsw", "scalar_store")
_cls("beq bne blt bge", "branch")
_cls("jal", "jump")
_cls("fmv.w.x", "fp_alu")
_cls("fmadd.s", "fp_fma")
_cls("vsetvli", "vector_config")
_cls("vle32.v", "vector_load")
_cls("vluxei32.v", "vector_gather")
_cls("vfmacc.vv vfredosum.vs vfmv.f.s vfmv.s.f", "vector_fp")
_cls("vsll.vi vmv.v.i", "vector_int")
_cls("halt", "system")
_cls("fssrpop vssrpop.v", "ssr_pop")
_cls("vlpidx.v", "vector_pgather")
_cls("vfmacidx", "vector_mac_idx")


#: Every class, in the one fixed order of the CPU's per-class counters:
#: slot ``i`` of each counter list is ``CLASSES[i]``.
CLASSES: tuple[str, ...] = tuple(dict.fromkeys(INSTRUCTION_CLASS.values()))

#: Class -> its slot in the counter lists.
CLASS_INDEX: dict[str, int] = {klass: i for i, klass in enumerate(CLASSES)}


def instruction_class(op: str) -> str:
    """Timing/energy class for a mnemonic (raises KeyError if unknown)."""
    return INSTRUCTION_CLASS[op]


ALL_MNEMONICS = frozenset(SYNTAX)
