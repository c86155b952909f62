"""Register-name handling for the RV32-style ISA.

Supports numeric names (``x7``, ``f3``, ``v2``) and the standard ABI
aliases (``a0``, ``t1``, ``s2``, ``ra``, ``sp``, ``fa0`` …) so kernels read
like real RISC-V assembly.
"""

from __future__ import annotations

X_ABI = {
    "zero": 0, "ra": 1, "sp": 2, "gp": 3, "tp": 4,
    "t0": 5, "t1": 6, "t2": 7,
    "s0": 8, "fp": 8, "s1": 9,
    "a0": 10, "a1": 11, "a2": 12, "a3": 13,
    "a4": 14, "a5": 15, "a6": 16, "a7": 17,
    "s2": 18, "s3": 19, "s4": 20, "s5": 21, "s6": 22,
    "s7": 23, "s8": 24, "s9": 25, "s10": 26, "s11": 27,
    "t3": 28, "t4": 29, "t5": 30, "t6": 31,
}

F_ABI = {
    "ft0": 0, "ft1": 1, "ft2": 2, "ft3": 3, "ft4": 4,
    "ft5": 5, "ft6": 6, "ft7": 7,
    "fs0": 8, "fs1": 9,
    "fa0": 10, "fa1": 11, "fa2": 12, "fa3": 13,
    "fa4": 14, "fa5": 15, "fa6": 16, "fa7": 17,
    "fs2": 18, "fs3": 19, "fs4": 20, "fs5": 21, "fs6": 22,
    "fs7": 23, "fs8": 24, "fs9": 25, "fs10": 26, "fs11": 27,
    "ft8": 28, "ft9": 29, "ft10": 30, "ft11": 31,
}


class RegisterError(ValueError):
    """Raised when a register name cannot be parsed."""


def _numeric(name: str, prefix: str) -> int | None:
    if name.startswith(prefix) and name[len(prefix):].isdigit():
        n = int(name[len(prefix):])
        if 0 <= n < 32:
            return n
        raise RegisterError(f"register index out of range: {name!r}")
    return None


def parse_xreg(name: str) -> int:
    """Parse an integer register name to its index (0-31)."""
    name = name.strip().lower()
    n = _numeric(name, "x")
    if n is not None:
        return n
    if name in X_ABI:
        return X_ABI[name]
    raise RegisterError(f"not an integer register: {name!r}")


def parse_freg(name: str) -> int:
    """Parse a floating-point register name to its index (0-31)."""
    name = name.strip().lower()
    if name in F_ABI:
        return F_ABI[name]
    n = _numeric(name, "f")
    if n is not None:
        return n
    raise RegisterError(f"not a floating-point register: {name!r}")


def parse_vreg(name: str) -> int:
    """Parse a vector register name to its index (0-31)."""
    name = name.strip().lower()
    n = _numeric(name, "v")
    if n is not None:
        return n
    raise RegisterError(f"not a vector register: {name!r}")


_X_NAMES = [f"x{i}" for i in range(32)]


def xreg_name(i: int) -> str:
    return _X_NAMES[i]
