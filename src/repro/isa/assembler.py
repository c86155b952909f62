"""Two-pass assembler for the behavioural RV32-style ISA.

Supports labels, comments (``#``, ``//``, ``;``), the operand patterns
declared in :mod:`repro.isa.instructions`, the pseudo-instructions the
kernels write (``mv``, ``j``, ``beqz``, ``bnez``) and symbolic immediates
resolved against a caller-supplied symbol table (the kernel builders pass
the data-segment addresses from the memory layout).
"""

from __future__ import annotations

import re

from .instructions import SYNTAX, Instr
from .program import Program
from .registers import RegisterError, parse_freg, parse_vreg, parse_xreg


class AssemblerError(ValueError):
    """Raised on malformed assembly input."""

    def __init__(self, message: str, line_no: int | None = None, line: str = ""):
        loc = f" (line {line_no}: {line.strip()!r})" if line_no else ""
        super().__init__(message + loc)
        self.line_no = line_no


_LABEL_RE = re.compile(r"^([A-Za-z_.][\w.$]*)\s*:\s*(.*)$")
_COMMENT_RE = re.compile(r"(#|//|;).*$")


def _strip_comment(line: str) -> str:
    return _COMMENT_RE.sub("", line)


def _split_operands(rest: str) -> list[str]:
    """Split an operand string on top-level commas, keeping parentheses."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in rest:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return [p for p in parts if p]


_MEM_RE = re.compile(r"^(-?[\w.$xXa-fA-F]*)\s*\(\s*([\w.$]+)\s*\)$")


class _Parser:
    """Stateful helper carrying the symbol table and diagnostics context."""

    def __init__(self, symbols: dict[str, int]):
        self.symbols = symbols
        self.line_no = 0
        self.line = ""

    def error(self, msg: str) -> AssemblerError:
        return AssemblerError(msg, self.line_no, self.line)

    def imm(self, token: str) -> int:
        token = token.strip()
        try:
            return int(token, 0)
        except ValueError:
            pass
        if token in self.symbols:
            return int(self.symbols[token])
        raise self.error(f"cannot resolve immediate {token!r}")

    def mem(self, token: str) -> tuple[int, int]:
        """Parse ``imm(rs1)`` -> (imm, xreg)."""
        m = _MEM_RE.match(token.strip())
        if not m:
            raise self.error(f"expected imm(reg) operand, got {token!r}")
        off_txt, base = m.groups()
        off = self.imm(off_txt) if off_txt else 0
        try:
            return off, parse_xreg(base)
        except RegisterError as exc:
            raise self.error(str(exc)) from None

    def xreg(self, token: str) -> int:
        try:
            return parse_xreg(token)
        except RegisterError as exc:
            raise self.error(str(exc)) from None

    def freg(self, token: str) -> int:
        try:
            return parse_freg(token)
        except RegisterError as exc:
            raise self.error(str(exc)) from None

    def vreg(self, token: str) -> int:
        try:
            return parse_vreg(token)
        except RegisterError as exc:
            raise self.error(str(exc)) from None


def _expand_pseudo(p: _Parser, op: str,
                   ops: list[str]) -> tuple[str, list[str]]:
    """Rewrite pseudo-instructions into base mnemonics + operands."""
    if op == "mv":
        _check(p, op, ops, 2)
        return "addi", [ops[0], ops[1], "0"]
    if op == "j":
        _check(p, op, ops, 1)
        return "jal", ["x0", ops[0]]
    if op == "beqz":
        _check(p, op, ops, 2)
        return "beq", [ops[0], "x0", ops[1]]
    if op == "bnez":
        _check(p, op, ops, 2)
        return "bne", [ops[0], "x0", ops[1]]
    return op, ops


def _parse_instr(p: _Parser, op: str, ops: list[str], text: str) -> Instr:
    pattern = SYNTAX.get(op)
    if pattern is None:
        raise p.error(f"unknown mnemonic {op!r}")
    ins = Instr(op=op, source_line=p.line_no, text=text)

    if pattern == "r3":
        _check(p, op, ops, 3)
        ins.rd, ins.rs1, ins.rs2 = p.xreg(ops[0]), p.xreg(ops[1]), p.xreg(ops[2])
    elif pattern == "i2":
        _check(p, op, ops, 3)
        ins.rd, ins.rs1, ins.imm = p.xreg(ops[0]), p.xreg(ops[1]), p.imm(ops[2])
    elif pattern == "shifti":
        _check(p, op, ops, 3)
        ins.rd, ins.rs1, ins.imm = p.xreg(ops[0]), p.xreg(ops[1]), p.imm(ops[2])
        if not 0 <= ins.imm < 32:
            raise p.error(f"shift amount must be in [0,32), got {ins.imm}")
    elif pattern == "load":
        _check(p, op, ops, 2)
        ins.rd = p.xreg(ops[0])
        ins.imm, ins.rs1 = p.mem(ops[1])
    elif pattern == "store":
        _check(p, op, ops, 2)
        ins.rs2 = p.xreg(ops[0])
        ins.imm, ins.rs1 = p.mem(ops[1])
    elif pattern == "fload":
        _check(p, op, ops, 2)
        ins.rd = p.freg(ops[0])
        ins.imm, ins.rs1 = p.mem(ops[1])
    elif pattern == "fstore":
        _check(p, op, ops, 2)
        ins.rs2 = p.freg(ops[0])
        ins.imm, ins.rs1 = p.mem(ops[1])
    elif pattern == "branch":
        _check(p, op, ops, 3)
        ins.rs1, ins.rs2 = p.xreg(ops[0]), p.xreg(ops[1])
        ins.label = ops[2]
    elif pattern in ("li", "la"):
        _check(p, op, ops, 2)
        ins.rd, ins.imm = p.xreg(ops[0]), p.imm(ops[1])
    elif pattern == "jal":
        if len(ops) == 1:  # jal label  (rd = ra)
            ins.rd, ins.label = 1, ops[0]
        else:
            _check(p, op, ops, 2)
            ins.rd, ins.label = p.xreg(ops[0]), ops[1]
    elif pattern == "f4":
        _check(p, op, ops, 4)
        ins.rd, ins.rs1, ins.rs2, ins.rs3 = (
            p.freg(ops[0]), p.freg(ops[1]), p.freg(ops[2]), p.freg(ops[3])
        )
    elif pattern == "fmvwx":
        _check(p, op, ops, 2)
        ins.rd, ins.rs1 = p.freg(ops[0]), p.xreg(ops[1])
    elif pattern == "vsetvli":
        if len(ops) < 2:
            raise p.error(f"{op} expects at least rd, rs1")
        ins.rd, ins.rs1 = p.xreg(ops[0]), p.xreg(ops[1])
        for tok in ops[2:]:
            tok = tok.strip().lower()
            if tok.startswith("e") and tok[1:].isdigit():
                if int(tok[1:]) != 32:
                    raise p.error(f"only SEW=32 is supported, got {tok}")
            elif tok in ("m1", "ta", "tu", "ma", "mu"):
                continue
            else:
                raise p.error(f"unsupported vtype token {tok!r}")
        ins.imm = 32  # SEW
    elif pattern == "vload":
        _check(p, op, ops, 2)
        ins.rd = p.vreg(ops[0])
        off, ins.rs1 = p.mem(ops[1])
        if off != 0:
            raise p.error("vector loads take a plain (reg) address")
    elif pattern == "vgather":
        _check(p, op, ops, 3)
        ins.rd = p.vreg(ops[0])
        off, ins.rs1 = p.mem(ops[1])
        if off != 0:
            raise p.error("vector gathers take a plain (reg) address")
        ins.rs2 = p.vreg(ops[2])
    elif pattern == "vmacidx":
        _check(p, op, ops, 4)
        ins.rd = p.vreg(ops[0])
        off, ins.rs1 = p.mem(ops[1])
        if off != 0:
            raise p.error("indexed MACs take a plain (reg) address")
        ins.rs2, ins.rs3 = p.vreg(ops[2]), p.vreg(ops[3])
    elif pattern == "fpop":
        _check(p, op, ops, 2)
        ins.rd, ins.imm = p.freg(ops[0]), p.imm(ops[1])
    elif pattern == "vpop":
        _check(p, op, ops, 2)
        ins.rd, ins.imm = p.vreg(ops[0]), p.imm(ops[1])
    elif pattern == "v3":
        _check(p, op, ops, 3)
        ins.rd, ins.rs1, ins.rs2 = p.vreg(ops[0]), p.vreg(ops[1]), p.vreg(ops[2])
    elif pattern == "vred":
        _check(p, op, ops, 3)
        ins.rd, ins.rs1, ins.rs2 = p.vreg(ops[0]), p.vreg(ops[1]), p.vreg(ops[2])
    elif pattern == "vi":
        _check(p, op, ops, 3)
        ins.rd, ins.rs1, ins.imm = p.vreg(ops[0]), p.vreg(ops[1]), p.imm(ops[2])
    elif pattern == "vmvvi":
        _check(p, op, ops, 2)
        ins.rd, ins.imm = p.vreg(ops[0]), p.imm(ops[1])
    elif pattern == "vfmvfs":
        _check(p, op, ops, 2)
        ins.rd, ins.rs1 = p.freg(ops[0]), p.vreg(ops[1])
    elif pattern == "vfmvsf":
        _check(p, op, ops, 2)
        ins.rd, ins.rs1 = p.vreg(ops[0]), p.freg(ops[1])
    elif pattern == "none":
        _check(p, op, ops, 0)
    else:  # pragma: no cover - table and parser kept in sync
        raise p.error(f"unhandled pattern {pattern!r} for {op!r}")
    return ins


def _check(p: _Parser, op: str, ops: list[str], n: int) -> None:
    if len(ops) != n:
        raise p.error(f"{op} expects {n} operands, got {len(ops)}")


def assemble(text: str, symbols: dict[str, int] | None = None, name: str = "program") -> Program:
    """Assemble *text* into a :class:`Program`.

    *symbols* provides values for symbolic immediates (``la a0, m_rows``)
    — typically the data-segment base addresses from the memory layout.
    """
    p = _Parser(dict(symbols or {}))
    instrs: list[Instr] = []
    labels: dict[str, int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        p.line_no, p.line = line_no, raw
        # "[meta]" in a comment tags the instruction as metadata overhead
        # (index traversal), used by the profiler's overhead attribution.
        is_meta = "[meta]" in raw
        line = _strip_comment(raw).strip()
        while line:
            m = _LABEL_RE.match(line)
            if m:
                label = m.group(1)
                if label in labels:
                    raise p.error(f"duplicate label {label!r}")
                labels[label] = len(instrs)
                line = m.group(2).strip()
                continue
            break
        if not line:
            continue
        parts = line.split(None, 1)
        op = parts[0].lower()
        operand_text = parts[1] if len(parts) > 1 else ""
        ops = _split_operands(operand_text)
        op, ops = _expand_pseudo(p, op, ops)
        ins = _parse_instr(p, op, ops, line)
        ins.meta = is_meta
        instrs.append(ins)

    # Second pass: resolve label targets to instruction indices.
    for ins in instrs:
        if ins.label is not None:
            if ins.label not in labels:
                raise AssemblerError(
                    f"undefined label {ins.label!r}", ins.source_line, ins.text
                )
            ins.target = labels[ins.label]

    return Program(name=name, instructions=instrs, labels=labels, source=text)
