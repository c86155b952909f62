"""Behavioural RV32-style instruction set — the RV32I/F/V instructions the
kernels execute plus the front-end ops: mnemonics, assembler, programs."""

from .assembler import AssemblerError, assemble
from .instructions import (
    ALL_MNEMONICS,
    INSTRUCTION_CLASS,
    SYNTAX,
    Instr,
    instruction_class,
    s32,
)
from .program import Program
from .registers import (
    RegisterError,
    parse_freg,
    parse_vreg,
    parse_xreg,
    xreg_name,
)

__all__ = [
    "AssemblerError",
    "assemble",
    "s32",
    "ALL_MNEMONICS",
    "INSTRUCTION_CLASS",
    "SYNTAX",
    "Instr",
    "instruction_class",
    "Program",
    "RegisterError",
    "parse_xreg",
    "parse_freg",
    "parse_vreg",
    "xreg_name",
]
