"""Compiled execution backend: basic-block translation to closures.

The reference interpreter in :mod:`repro.cpu.core` pays, per simulated
instruction, one dispatch-tuple load, one bound-method call, a handful of
attribute loads (``self.x``, ``self.lat``, ``ins.rd`` ...) and one
``_charge`` call.  This module removes that tax the way Spike and other
fast functional simulators do: discover *basic blocks* at first
execution, translate each decoded block into one specialized Python
closure, and thereafter run whole blocks per dispatch.

Specialization folds everything static into the generated source:

* register indices, immediates and branch targets become literals;
  register values are read from and written to the architectural
  ``x``/``f`` lists directly;
* per-instruction cycle charges are summed at translation time, so a run
  of K single-cycle ALU ops costs one ``cycle += K`` at runtime;
* class counts are batched into one dict update per class per block;
* a *self-loop* block — terminal branch targeting its own entry, the
  shape of every hot inner loop — compiles to a closure that iterates
  internally: register/counter prologue, exit epilogue and dispatch are
  paid once per burst of iterations, and per-class counts are applied
  once, multiplied by the iteration count.  The dispatcher caps each
  burst so the instruction budget still fires at the exact reference
  instruction.

The backend models dispatch only.  Every memory operation in a block is
one call on the CPU's bus (``load_word``, ``store_word``,
``load_burst``, ``store_burst``, ``gather_chain``), which owns RAM,
MMIO routing, translation and port timing for both backends — see
:mod:`repro.memory.hierarchy` for the burst and gather shapes.

Compiled blocks are cached per ``(code_digest, entry_pc)`` — a new
``Program`` object with identical instructions reuses the cache, while
reloading a different program invalidates nothing but simply resolves to
its own block set.

**Bit-identity contract.**  With no probes attached, a compiled run
produces exactly the reference interpreter's cycles, instruction counts,
flat stats registry, architectural state and ``SimulationError``
messages.  Every generated operation mirrors the corresponding
``Cpu._op_*`` handler's arithmetic (including numpy float32 rounding in
the vector unit) and makes the same bus calls.  Three deliberate
boundaries:

* probes/samplers force deference — :meth:`SimSession.run` only enters
  :func:`run_compiled` when *no* probe is attached, because compiled
  blocks skip the per-instruction hooks and ``probe_sink`` events;
* only single-core runs are compiled — a multi-core
  :class:`~repro.instrument.session.MultiCoreSession` always takes the
  per-instruction earliest-clock interleave, so its cycles are the same
  on both backends;
* a ``MemoryAccessError`` aborts mid-block, so the *partial* charges of
  the faulting block may differ from the reference abort state (the
  exception type, message and memory-system side effects are identical;
  no test or figure depends on post-fault timing).

The instruction budget stays bit-exact: when a block could cross the
budget limit the dispatcher falls back to per-instruction reference
stepping for the tail, reproducing the reference error at the exact
instruction.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from ..isa.encoding import s32
from ..isa.program import Program

#: Ops that end a basic block (control transfer or machine stop).
CONTROL_OPS = frozenset(
    "beq bne blt bge bltu bgeu jal jalr halt ecall ebreak".split()
)

#: Translation stops after this many instructions even without a
#: control op; the dispatcher simply chains into the next block.
MAX_BLOCK_LEN = 64

_BRANCH_COND = {
    "beq": ("==", False), "bne": ("!=", False),
    "blt": ("<", False), "bge": (">=", False),
    "bltu": ("<", True), "bgeu": (">=", True),
}


def _w(expr: str) -> str:
    """Source text of ``s32(expr)`` (wrap to signed 32-bit)."""
    return f"((({expr}) + 0x80000000) & 0xFFFFFFFF) - 0x80000000"


def _branch_cond(cg: "_Codegen", ins) -> str:
    """Source text of a conditional branch's taken test."""
    a, b = cg.xref(ins.rs1), cg.xref(ins.rs2)
    cmp_op, unsigned = _BRANCH_COND[ins.op]
    if unsigned:
        return f"({a} & 0xFFFFFFFF) {cmp_op} ({b} & 0xFFFFFFFF)"
    return f"{a} {cmp_op} {b}"


# op -> expr builder over two operand atoms, mirroring Cpu._op_*
# arithmetic exactly.
_ALU3 = {
    "add": lambda a, b: _w(f"{a} + {b}"),
    "sub": lambda a, b: _w(f"{a} - {b}"),
    "and": lambda a, b: _w(f"{a} & {b}"),
    "or": lambda a, b: _w(f"{a} | {b}"),
    "xor": lambda a, b: _w(f"{a} ^ {b}"),
    "sll": lambda a, b: _w(f"{a} << ({b} & 31)"),
    "srl": lambda a, b: _w(f"({a} & 0xFFFFFFFF) >> ({b} & 31)"),
    "sra": lambda a, b: f"{a} >> ({b} & 31)",
    "slt": lambda a, b: f"int({a} < {b})",
    "sltu": lambda a, b: f"int(({a} & 0xFFFFFFFF) < ({b} & 0xFFFFFFFF))",
    "mul": lambda a, b: _w(f"{a} * {b}"),
    "mulh": lambda a, b: _w(f"({a} * {b}) >> 32"),
    "mulhu": lambda a, b:
        _w(f"(({a} & 0xFFFFFFFF) * ({b} & 0xFFFFFFFF)) >> 32"),
    "mulhsu": lambda a, b: _w(f"({a} * ({b} & 0xFFFFFFFF)) >> 32"),
    # Immediate shifts take the immediate unmasked, like the handlers.
    "slli": lambda a, b: _w(f"{a} << {b}"),
    "srli": lambda a, b: _w(f"({a} & 0xFFFFFFFF) >> {b}"),
    "srai": lambda a, b: f"{a} >> {b}",
}

#: Immediate ALU ops sharing a 3-register builder's semantics.
_ALU_IMM = {
    "addi": "add", "andi": "and", "ori": "or", "xori": "xor",
    "slti": "slt", "sltiu": "sltu",
    "slli": "slli", "srli": "srli", "srai": "srai",
}

_FP2 = {
    "fadd.s": lambda a, b: f"{a} + {b}",
    "fsub.s": lambda a, b: f"{a} - {b}",
    "fmul.s": lambda a, b: f"{a} * {b}",
    "fmin.s": lambda a, b: f"min({a}, {b})",
    "fmax.s": lambda a, b: f"max({a}, {b})",
    "fsgnj.s": lambda a, b: f"_math.copysign(abs({a}), {b})",
    "fsgnjn.s": lambda a, b:
        f"_math.copysign(abs({a}), -_math.copysign(1.0, {b}))",
}

_FMA = {
    "fmadd.s": lambda a, b, c: f"{a} * {b} + {c}",
    "fmsub.s": lambda a, b, c: f"{a} * {b} - {c}",
    "fnmadd.s": lambda a, b, c: f"-({a} * {b}) - {c}",
    "fnmsub.s": lambda a, b, c: f"-({a} * {b}) + {c}",
}

_VF_BINARY = {"vfadd.vv": "add", "vfsub.vv": "subtract",
              "vfmul.vv": "multiply"}
_VI_BINARY = {"vadd.vv": "add", "vsub.vv": "subtract",
              "vmul.vv": "multiply", "vand.vv": "bitwise_and",
              "vor.vv": "bitwise_or", "vxor.vv": "bitwise_xor"}
_VX_BINARY = {"vadd.vx": "add", "vmul.vx": "multiply",
              "vand.vx": "bitwise_and", "vor.vx": "bitwise_or"}


def _program_digest(program: Program) -> str:
    """Content digest of a program's semantic instruction fields.

    Cached on the program object: equal instruction streams share one
    digest (and therefore one compiled-block set), and reassembling or
    reloading a program resolves to a fresh, correct entry.
    """
    digest = getattr(program, "_compiled_digest", None)
    if digest is None:
        h = hashlib.sha256()
        for ins in program.instructions:
            h.update(repr((ins.op, ins.rd, ins.rs1, ins.rs2, ins.rs3,
                           ins.imm, ins.target)).encode())
        digest = h.hexdigest()[:16]
        program._compiled_digest = digest
    return digest


class CompiledBlock:
    """One translated basic block: a closure plus its instruction count.

    A *looping* block (terminal branch targeting its own entry) has the
    signature ``fn(cpu, max_execs) -> (next_pc, execs)`` and iterates
    internally; a plain block is ``fn(cpu) -> next_pc``.
    """

    __slots__ = ("fn", "n", "entry", "source", "looping")

    def __init__(self, fn, n: int, entry: int, source: str,
                 looping: bool = False):
        self.fn = fn
        self.n = n
        self.entry = entry
        self.source = source
        self.looping = looping


class _Codegen:
    """Accumulates the source of one block closure."""

    def __init__(self):
        self.lines: list[str] = []
        self.ind = 0
        self.pending = 0                 # static cycles not yet applied
        self.counts: dict[str, int] = {}         # class -> exec count
        self.static_cycles: dict[str, int] = {}  # class -> static cycles
        self.dyn_vars: dict[str, str] = {}       # class -> accumulator var
        self.needs: set[str] = set()

    # -- emission ------------------------------------------------------
    def emit(self, line: str) -> None:
        self.lines.append("    " * (1 + self.ind) + line)

    def need(self, *names: str) -> None:
        self.needs.update(names)

    # -- register access -----------------------------------------------
    def xref(self, i: int) -> str:
        """Source atom for a read of x[i] (x0 reads as the literal 0)."""
        if i == 0:
            return "0"
        self.need("x")
        return f"x[{i}]"

    def xwrite(self, i: int, expr: str) -> None:
        """Emit ``x[i] = expr``; a write to x0 emits nothing."""
        if i:
            self.need("x")
            self.emit(f"x[{i}] = {expr}")

    def fref(self, i: int) -> str:
        self.need("f")
        return f"f[{i}]"

    def fwrite(self, i: int, expr: str) -> None:
        self.need("f")
        self.emit(f"f[{i}] = {expr}")

    # -- cycle / class accounting --------------------------------------
    def charge_static(self, klass: str, cycles: int) -> None:
        self.counts[klass] = self.counts.get(klass, 0) + 1
        self.static_cycles[klass] = self.static_cycles.get(klass, 0) + cycles
        self.pending += cycles

    def dyn_var(self, klass: str) -> str:
        var = self.dyn_vars.get(klass)
        if var is None:
            var = f"_dc_{klass}"
            self.dyn_vars[klass] = var
        return var

    def charge_dyn(self, klass: str, cost_atom: str) -> None:
        """Count one instruction of *klass* whose cycle cost is the
        runtime value already held in *cost_atom*; advances ``cycle``."""
        self.counts[klass] = self.counts.get(klass, 0) + 1
        self.emit(f"cycle += {cost_atom}")
        self.emit(f"{self.dyn_var(klass)} += {cost_atom}")

    def flush_pending(self) -> None:
        if self.pending:
            self.emit(f"cycle += {self.pending}")
            self.pending = 0

    def epilogue(self, extra_counts: dict[str, int] | None = None,
                 extra_cycles: dict[str, int] | None = None) -> None:
        """Flush cycle and batched class counters back to the cpu.

        Emitted once per block exit arm (branch taken / fallthrough /
        straight-line end), so each arm can carry its own branch cost.
        """
        self.emit("cpu.cycle = cycle")
        counts = dict(self.counts)
        for klass, n in (extra_counts or {}).items():
            counts[klass] = counts.get(klass, 0) + n
        if counts:
            self.need("cc")
        for klass, n in counts.items():
            parts = []
            static = (self.static_cycles.get(klass, 0)
                      + (extra_cycles or {}).get(klass, 0))
            if static:
                parts.append(str(static))
            if klass in self.dyn_vars:
                parts.append(self.dyn_vars[klass])
            self.emit(f"_cc[{klass!r}] = _cc.get({klass!r}, 0) + {n}")
            if parts:
                self.emit(f"_ccy[{klass!r}] = _ccy.get({klass!r}, 0) + "
                          + " + ".join(parts))


class CompiledBackend:
    """Per-CPU translation cache and block compiler.

    Blocks are keyed ``(code_digest, entry_pc)`` (a two-level dict) and
    survive :meth:`Cpu.reset` — registers and counters are re-fetched in
    every closure's prologue precisely so the cache can.
    """

    MAX_PROGRAMS = 32

    def __init__(self, cpu):
        self.cpu = cpu
        bus = cpu.bus
        self._programs: dict[str, dict[int, CompiledBlock]] = {}
        self._lat_snapshot: tuple | None = None
        # Backend-internal telemetry (deliberately NOT in the stats
        # registry: the registry is part of the bit-identity contract).
        self.blocks_compiled = 0
        self.instructions_translated = 0
        self.loop_blocks = 0
        self._base_globals = {
            "_np": np,
            "_f32": np.float32,
            "_i32": np.int32,
            "_u32": np.uint32,
            "_math": math,
            "_bus_load": bus.load_word,
            "_bus_store": bus.store_word,
            "_bus_burst": bus.load_burst,
            "_bus_store_burst": bus.store_burst,
            "_bus_chain": bus.gather_chain,
            # Scratch for vfmacc's product (avoids a temp allocation);
            # never escapes a single emitted statement pair.
            "_scr": np.empty(64, dtype=np.float32),
        }
        from .core import (
            _PACK_F, _PACK_I, _UNPACK_F, _UNPACK_I, _bits_f32, _f32bits,
        )
        self._base_globals.update(
            _pkf=_PACK_F, _pki=_PACK_I, _upf=_UNPACK_F, _upi=_UNPACK_I,
            _bits_f32=_bits_f32, _f32bits=_f32bits,
        )

    # ------------------------------------------------------------------
    def blocks_for(self, program: Program) -> dict[int, CompiledBlock]:
        """The block cache for *program*, invalidated if latencies moved."""
        snap = tuple(sorted(vars(self.cpu.lat).items()))
        if snap != self._lat_snapshot:
            self._programs.clear()
            self._lat_snapshot = snap
        digest = _program_digest(program)
        blocks = self._programs.get(digest)
        if blocks is None:
            if len(self._programs) >= self.MAX_PROGRAMS:
                self._programs.pop(next(iter(self._programs)))
            blocks = {}
            self._programs[digest] = blocks
        return blocks

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def compile_block(self, program: Program, entry: int) -> CompiledBlock:
        instructions = program.instructions
        end = min(len(instructions), entry + MAX_BLOCK_LEN)
        span = []
        for pc in range(entry, end):
            ins = instructions[pc]
            span.append((pc, ins))
            if ins.op in CONTROL_OPS:
                break

        # A block whose terminal branch targets its own entry is a
        # *self-loop*: compile it as a closure that iterates internally,
        # paying prologue/epilogue/dispatch once per burst of
        # iterations instead of once per iteration.
        last_pc, last_ins = span[-1]
        looping = (len(span) >= 2 and last_ins.op in _BRANCH_COND
                   and last_ins.target == entry)
        cg = _Codegen()
        escapes: list[tuple[object, object]] = []
        if looping:
            cg.ind = 1                      # body inside ``while True:``
        body = span[:-1] if looping else span
        for pc, ins in body:
            self._emit_instruction(cg, ins, pc, escapes)

        if looping:
            self._emit_loop_branch(cg, last_ins, last_pc)
            self.loop_blocks += 1
        elif last_ins.op not in CONTROL_OPS:
            # Straight-line block (length cap or end of program): fall
            # through to the next pc; an out-of-range fallthrough is
            # raised by the dispatcher, exactly like the reference.
            cg.flush_pending()
            cg.epilogue()
            cg.emit(f"return {last_pc + 1}")

        source = self._render(cg, entry, looping)
        scope = dict(self._base_globals)
        for k, (handler, ins) in enumerate(escapes):
            scope[f"_h{k}"] = handler
            scope[f"_i{k}"] = ins
        exec(compile(source, f"<block@{entry}>", "exec"), scope)
        fn = scope[f"_block_{entry}"]
        self.blocks_compiled += 1
        self.instructions_translated += len(span)
        return CompiledBlock(fn, len(span), entry, source, looping)

    def _render(self, cg: _Codegen, entry: int, looping: bool) -> str:
        arg = "cpu, _max" if looping else "cpu"
        head = [f"def _block_{entry}({arg}):"]
        if "x" in cg.needs:
            head.append("    x = cpu.x")
        if "f" in cg.needs:
            head.append("    f = cpu.f")
        if "v" in cg.needs:
            head.append("    v = cpu.v")
        if "vf" in cg.needs:
            head.append("    _vf = cpu._compiled_vf32")
        if "vi" in cg.needs:
            head.append("    _vi = cpu._compiled_vi32")
        if "vl" in cg.needs:
            head.append("    vl_ = cpu.vl")
        head.append("    cycle = cpu.cycle")
        if "cc" in cg.needs:
            head.append("    _cc = cpu._class_counts")
            head.append("    _ccy = cpu._class_cycles")
        for var in cg.dyn_vars.values():
            head.append(f"    {var} = 0")
        if looping:
            head.append("    _ex = 0")
            head.append("    while True:")
        return "\n".join(head + cg.lines) + "\n"

    def _emit_loop_branch(self, cg: _Codegen, ins, pc: int) -> None:
        """Terminal backward branch of a self-loop block.

        Each iteration charges its own cycles (memory ops inside the
        body read the live clock), while class counts multiply by the
        iteration count ``_ex`` once at exit.  All but the last
        iteration take the branch; the closure also exits when the
        dispatcher's budget cap ``_max`` is reached with the branch
        still taken, returning to the dispatcher for the tail.
        """
        lat = self.cpu.lat
        taken_cost = lat.branch + lat.branch_taken_penalty
        pending = cg.pending
        cg.pending = 0
        cg.emit("_ex += 1")
        cg.emit(f"if {_branch_cond(cg, ins)}:")
        cg.ind += 1
        if pending + taken_cost:
            cg.emit(f"cycle += {pending + taken_cost}")
        cg.emit("if _ex < _max:")
        cg.emit("    continue")
        cg.emit("cpu.counters.taken_branches += _ex")
        self._loop_epilogue(cg, f"{taken_cost} * _ex")
        cg.emit(f"return {ins.target}, _ex")
        cg.ind -= 1
        if pending + lat.branch:
            cg.emit(f"cycle += {pending + lat.branch}")
        cg.emit("cpu.counters.taken_branches += _ex - 1")
        self._loop_epilogue(cg, f"{taken_cost} * (_ex - 1) + {lat.branch}")
        cg.emit(f"return {pc + 1}, _ex")

    def _loop_epilogue(self, cg: _Codegen, branch_cycles: str) -> None:
        """Exit-arm accounting for a self-loop block: per-iteration
        class counts and static cycles multiply by ``_ex``; dynamic
        accumulators already summed across iterations.  The branch
        class lands last, matching the reference's first-charge order
        (the terminal branch charges after the body on iteration 1).
        """
        cg.emit("cpu.cycle = cycle")
        cg.need("cc")
        for klass, n in cg.counts.items():
            parts = []
            static = cg.static_cycles.get(klass, 0)
            if static:
                parts.append(f"{static} * _ex")
            if klass in cg.dyn_vars:
                parts.append(cg.dyn_vars[klass])
            cg.emit(f"_cc[{klass!r}] = _cc.get({klass!r}, 0) + {n} * _ex")
            if parts:
                cg.emit(f"_ccy[{klass!r}] = _ccy.get({klass!r}, 0) + "
                        + " + ".join(parts))
        cg.emit("_cc['branch'] = _cc.get('branch', 0) + _ex")
        cg.emit(f"_ccy['branch'] = _ccy.get('branch', 0) + {branch_cycles}")

    # ------------------------------------------------------------------
    def _address(self, cg: _Codegen, rs1: int, imm: int = 0) -> str:
        """Emit ``_addr = s32(x[rs1] + imm) & 0xFFFFFFFF``; return the
        atom ``_addr``."""
        base = cg.xref(rs1)
        # s32(v) & 0xFFFFFFFF == v & 0xFFFFFFFF for any int: the s32
        # re-centering is a no-op under the final 32-bit mask.
        expr = f"{base} + {imm}" if imm else base
        cg.emit(f"_addr = ({expr}) & 0xFFFFFFFF")
        return "_addr"

    # ------------------------------------------------------------------
    def _emit_instruction(self, cg: _Codegen, ins, pc: int,
                          escapes: list) -> None:
        op = ins.op
        lat = self.cpu.lat

        # ---- integer ALU ------------------------------------------------
        if op in ("li", "la"):
            cg.xwrite(ins.rd, str(s32(ins.imm)))
            cg.charge_static("int_alu", lat.int_alu)
            return
        if op == "lui":
            cg.xwrite(ins.rd, str(s32(ins.imm << 12)))
            cg.charge_static("int_alu", lat.int_alu)
            return
        if op == "auipc":
            cg.xwrite(ins.rd, str(s32((ins.imm << 12) + pc * 4)))
            cg.charge_static("int_alu", lat.int_alu)
            return
        if op in _ALU_IMM:
            imm = ins.imm
            b = f"({imm})" if imm < 0 else str(imm)
            cg.xwrite(ins.rd, _ALU3[_ALU_IMM[op]](cg.xref(ins.rs1), b))
            cg.charge_static("int_alu", lat.int_alu)
            return
        if op in _ALU3 and ins.rs2 is not None:
            klass = ("int_mul" if op.startswith("mul") else "int_alu")
            cost = lat.int_mul if klass == "int_mul" else lat.int_alu
            cg.xwrite(ins.rd,
                      _ALU3[op](cg.xref(ins.rs1), cg.xref(ins.rs2)))
            cg.charge_static(klass, cost)
            return
        if op in ("div", "divu", "rem", "remu"):
            self._emit_divrem(cg, ins, op, lat)
            return

        # ---- loads / stores --------------------------------------------
        if op in ("lw", "flw"):
            addr = self._address(cg, ins.rs1, ins.imm or 0)
            cg.flush_pending()
            cg.emit(f"_val, _comp = _bus_load({addr}, cycle)")
            cg.emit(f"_cost = _comp - cycle + {lat.load_use}")
            cg.charge_dyn("scalar_load", "_cost")
            if op == "lw":
                cg.xwrite(ins.rd, _w("_val"))
            else:
                cg.fwrite(ins.rd, "_bits_f32(_val)")
            return
        if op in ("sw", "fsw"):
            addr = self._address(cg, ins.rs1, ins.imm or 0)
            value = (f"{cg.xref(ins.rs2)} & 0xFFFFFFFF" if op == "sw"
                     else f"_f32bits({cg.fref(ins.rs2)})")
            cg.flush_pending()
            cg.emit(f"_bus_store({addr}, {value}, cycle)")
            cg.charge_static("scalar_store", lat.scalar_store)
            return

        # ---- branches / jumps / system ---------------------------------
        if op in _BRANCH_COND:
            self._emit_branch(cg, ins, pc, lat)
            return
        if op == "jal":
            cg.xwrite(ins.rd, str((pc + 1) * 4))
            self._exit_arm(cg, lat.jump, "jump", lat.jump, str(ins.target))
            return
        if op == "jalr":
            # The destination reads rs1 before rd is written (rd == rs1).
            a = cg.xref(ins.rs1)
            cg.emit(f"_dest = (({_w(f'{a} + {ins.imm or 0}')}) & -2) // 4")
            cg.xwrite(ins.rd, str((pc + 1) * 4))
            self._exit_arm(cg, lat.jump, "jump", lat.jump, "_dest")
            return
        if op in ("halt", "ecall", "ebreak"):
            cg.emit("cpu.halted = True")
            self._exit_arm(cg, lat.system, "system", lat.system, str(pc))
            return
        if op == "nopseudo":
            cg.charge_static("system", lat.system)
            return

        # ---- scalar FP --------------------------------------------------
        if self._emit_scalar_fp(cg, ins, op, lat):
            return

        # ---- vector -----------------------------------------------------
        if self._emit_vector(cg, ins, op, lat):
            return

        # ---- escape hatch ----------------------------------------------
        # Rare ops (sub-word loads/stores, anything future) call the
        # reference handler with the decoded Instr folded in as a
        # constant.  The handler charges through cpu._charge itself, so
        # sync the batched cycle counter around the call.
        cg.flush_pending()
        cg.emit("cpu.cycle = cycle")
        k = len(escapes)
        escapes.append((self.cpu._dispatch[op], ins))
        cg.emit(f"_h{k}(_i{k}, {pc})")
        cg.emit("cycle = cpu.cycle")

    # ------------------------------------------------------------------
    def _emit_divrem(self, cg: _Codegen, ins, op: str, lat) -> None:
        a = cg.xref(ins.rs1)
        b = cg.xref(ins.rs2)
        if op == "div":
            cg.emit(f"_a = {a}; _b = {b}")
            cg.emit("if _b == 0:")
            cg.emit("    _q = -1")
            cg.emit("elif _a == -2147483648 and _b == -1:")
            cg.emit("    _q = _a")
            cg.emit("else:")
            cg.emit("    _q = int(_a / _b)")
        elif op == "divu":
            cg.emit(f"_a = {a} & 0xFFFFFFFF; _b = {b} & 0xFFFFFFFF")
            cg.emit("_q = 0xFFFFFFFF if _b == 0 else _a // _b")
        elif op == "rem":
            cg.emit(f"_a = {a}; _b = {b}")
            cg.emit("if _b == 0:")
            cg.emit("    _q = _a")
            cg.emit("elif _a == -2147483648 and _b == -1:")
            cg.emit("    _q = 0")
            cg.emit("else:")
            cg.emit("    _q = _a - int(_a / _b) * _b")
        else:  # remu
            cg.emit(f"_a = {a} & 0xFFFFFFFF; _b = {b} & 0xFFFFFFFF")
            cg.emit("_q = _a if _b == 0 else _a % _b")
        cg.xwrite(ins.rd, _w("_q"))
        cg.charge_static("int_div", lat.int_div)

    def _exit_arm(self, cg: _Codegen, cost: int, klass: str,
                  klass_cycles: int, dest: str) -> None:
        """Terminal instruction: flush everything and return *dest*."""
        total = cg.pending + cost
        if total:
            cg.emit(f"cycle += {total}")
        cg.pending = 0
        cg.epilogue(extra_counts={klass: 1},
                    extra_cycles={klass: klass_cycles})
        cg.emit(f"return {dest}")

    def _emit_branch(self, cg: _Codegen, ins, pc: int, lat) -> None:
        taken_cost = lat.branch + lat.branch_taken_penalty
        pending = cg.pending
        cg.emit(f"if {_branch_cond(cg, ins)}:")
        cg.ind += 1
        cg.emit("cpu.counters.taken_branches += 1")
        self._exit_arm(cg, taken_cost, "branch", taken_cost,
                       str(ins.target))
        cg.ind -= 1
        cg.pending = pending
        self._exit_arm(cg, lat.branch, "branch", lat.branch, str(pc + 1))

    # ------------------------------------------------------------------
    def _emit_scalar_fp(self, cg: _Codegen, ins, op: str, lat) -> bool:
        if op in _FP2:
            cg.fwrite(ins.rd, _FP2[op](cg.fref(ins.rs1), cg.fref(ins.rs2)))
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        if op == "fsgnjx.s":
            a, b = cg.fref(ins.rs1), cg.fref(ins.rs2)
            cg.emit(f"_sgn = _math.copysign(1.0, {a}) * "
                    f"_math.copysign(1.0, {b})")
            cg.fwrite(ins.rd, f"_math.copysign(abs({a}), _sgn)")
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        if op == "fdiv.s":
            a, b = cg.fref(ins.rs1), cg.fref(ins.rs2)
            cg.emit(f"_fa = {a}; _fb = {b}")
            cg.fwrite(ins.rd,
                      "float('nan') if _fb == 0.0 and _fa == 0.0 else "
                      "(float('inf') if _fb == 0.0 else _fa / _fb)")
            cg.charge_static("fp_div", lat.fp_div)
            return True
        if op in _FMA:
            expr = _FMA[op](cg.fref(ins.rs1), cg.fref(ins.rs2),
                            cg.fref(ins.rs3))
            cg.fwrite(ins.rd, expr)
            cg.charge_static("fp_fma", lat.fp_fma)
            return True
        if op in ("feq.s", "flt.s", "fle.s"):
            cmp_op = {"feq.s": "==", "flt.s": "<", "fle.s": "<="}[op]
            cg.xwrite(ins.rd, f"int({cg.fref(ins.rs1)} {cmp_op} "
                              f"{cg.fref(ins.rs2)})")
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        if op == "fmv.x.w":
            cg.xwrite(ins.rd, f"_upi(_pkf({cg.fref(ins.rs1)}))[0]")
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        if op == "fmv.w.x":
            cg.fwrite(ins.rd, f"_upf(_pki({_w(cg.xref(ins.rs1))}))[0]")
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        if op == "fcvt.w.s":
            cg.xwrite(ins.rd, _w(f"int({cg.fref(ins.rs1)})"))
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        if op == "fcvt.wu.s":
            cg.xwrite(ins.rd,
                      _w(f"max(0, int({cg.fref(ins.rs1)})) & 0xFFFFFFFF"))
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        if op == "fcvt.s.w":
            cg.fwrite(ins.rd, f"float({cg.xref(ins.rs1)})")
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        if op == "fcvt.s.wu":
            cg.fwrite(ins.rd, f"float({cg.xref(ins.rs1)} & 0xFFFFFFFF)")
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        return False

    # ------------------------------------------------------------------
    def _emit_vector(self, cg: _Codegen, ins, op: str, lat) -> bool:
        if op == "vsetvli":
            cg.need("vl")
            if ins.rs1 == 0:
                cg.emit(f"vl_ = {self.cpu.vlmax}")
            else:
                cg.emit(f"_req = {cg.xref(ins.rs1)} & 0xFFFFFFFF")
                cg.emit(f"vl_ = _req if _req < {self.cpu.vlmax} "
                        f"else {self.cpu.vlmax}")
            cg.emit("cpu.vl = vl_")
            cg.xwrite(ins.rd, "vl_")
            cg.charge_static("vector_config", lat.vector_config)
            return True
        if op == "vle32.v":
            cg.need("v", "vl")
            addr = self._address(cg, ins.rs1)
            cg.flush_pending()
            cg.emit(f"_vals, _comp = _bus_burst({addr}, vl_, cycle)")
            cg.emit(f"v[{ins.rd}][:vl_] = _vals")
            cg.emit(f"_cost = _comp - cycle + {lat.load_use}")
            cg.charge_dyn("vector_load", "_cost")
            return True
        if op == "vse32.v":
            cg.need("v", "vl")
            addr = self._address(cg, ins.rs1)
            cg.flush_pending()
            cg.emit(f"_bus_store_burst({addr}, v[{ins.rs2}][:vl_], cycle)")
            per = lat.vector_store_per_elem
            cg.emit(f"_cost = {per} * vl_")
            cg.emit("if _cost < 1: _cost = 1")
            cg.charge_dyn("vector_store", "_cost")
            return True
        if op == "vluxei32.v":
            cg.need("v", "vl")
            base = self._address(cg, ins.rs1)
            cg.flush_pending()
            cg.emit(f"_vals, _t = _bus_chain([({base} + _o) & 0xFFFFFFFF "
                    f"for _o in v[{ins.rs2}][:vl_].tolist()], cycle)")
            cg.emit(f"v[{ins.rd}][:vl_] = _vals")
            cg.emit(f"_cost = _t - cycle + {lat.load_use}")
            cg.charge_dyn("vector_gather", "_cost")
            return True
        if op in _VF_BINARY:
            cg.need("vf", "vl")
            fn = _VF_BINARY[op]
            cg.emit(f"_np.{fn}(_vf[{ins.rs1}][:vl_], "
                    f"_vf[{ins.rs2}][:vl_], out=_vf[{ins.rd}][:vl_])")
            cg.charge_static("vector_fp", lat.vector_fp)
            return True
        if op == "vfmacc.vv":
            cg.need("vf", "vl")
            cg.emit("_sc = _scr[:vl_]")
            cg.emit(f"_np.multiply(_vf[{ins.rs1}][:vl_], "
                    f"_vf[{ins.rs2}][:vl_], out=_sc)")
            cg.emit(f"_acc = _vf[{ins.rd}][:vl_]")
            cg.emit("_np.add(_acc, _sc, out=_acc)")
            cg.charge_static("vector_fp", lat.vector_fp)
            return True
        if op == "vfredosum.vs":
            cg.need("vf", "vl")
            cg.emit(f"_vec = _vf[{ins.rs1}][:vl_]")
            cg.emit(f"_acc = _f32(_vf[{ins.rs2}][0])")
            cg.emit("for _i in range(vl_):")
            cg.emit("    _acc = _f32(_acc + _vec[_i])")
            cg.emit(f"_vf[{ins.rd}][0] = _acc")
            cg.emit(f"_cost = {lat.vector_fp} + "
                    f"{lat.vector_reduction_per_elem} * vl_")
            cg.charge_dyn("vector_fp", "_cost")
            return True
        if op == "vfredusum.vs":
            cg.need("vf", "vl")
            cg.emit(f"_vec = _vf[{ins.rs1}][:vl_]")
            cg.emit(f"_acc = _f32(_vf[{ins.rs2}][0])")
            cg.emit("_tot = _f32(_acc + _vec.sum(dtype=_f32))")
            cg.emit(f"_vf[{ins.rd}][0] = _tot")
            cg.emit(f"_cost = {lat.vector_fp} + max(1, vl_.bit_length())")
            cg.charge_dyn("vector_fp", "_cost")
            return True
        if op == "vredsum.vs":
            cg.need("vi", "vl")
            cg.emit(f"_vec = _vi[{ins.rs1}][:vl_]")
            cg.emit(f"_acc = int(_vi[{ins.rs2}][0])")
            cg.emit(f"_tot = {_w('_acc + int(_vec.sum())')}")
            cg.emit(f"_vi[{ins.rd}][0] = _tot")
            cg.emit(f"_cost = {lat.vector_int} + max(1, vl_.bit_length())")
            cg.charge_dyn("vector_int", "_cost")
            return True
        if op in _VI_BINARY:
            cg.need("vi", "vl")
            fn = _VI_BINARY[op]
            cg.emit(f"_np.{fn}(_vi[{ins.rs1}][:vl_], "
                    f"_vi[{ins.rs2}][:vl_], out=_vi[{ins.rd}][:vl_])")
            cg.charge_static("vector_int", lat.vector_int)
            return True
        if op in _VX_BINARY:
            cg.need("vi", "vl")
            fn = _VX_BINARY[op]
            cg.emit(f"_np.{fn}(_vi[{ins.rs1}][:vl_], "
                    f"_i32({_w(cg.xref(ins.rs2))}), out=_vi[{ins.rd}][:vl_])")
            cg.charge_static("vector_int", lat.vector_int)
            return True
        if op == "vsll.vi":
            # numpy's uint32 << drops shifted-out bits like C, so the
            # reference's ``& 0xFFFFFFFF`` is an identity — elided.
            cg.need("v", "vl")
            cg.emit(f"_np.left_shift(v[{ins.rs1}][:vl_], {ins.imm}, "
                    f"out=v[{ins.rd}][:vl_])")
            cg.charge_static("vector_int", lat.vector_int)
            return True
        if op == "vsrl.vi":
            cg.need("v", "vl")
            cg.emit(f"_np.right_shift(v[{ins.rs1}][:vl_], {ins.imm}, "
                    f"out=v[{ins.rd}][:vl_])")
            cg.charge_static("vector_int", lat.vector_int)
            return True
        if op in ("vadd.vi", "vand.vi"):
            fn = "add" if op == "vadd.vi" else "bitwise_and"
            cg.need("vi", "vl")
            cg.emit(f"_np.{fn}(_vi[{ins.rs1}][:vl_], _i32({ins.imm}), "
                    f"out=_vi[{ins.rd}][:vl_])")
            cg.charge_static("vector_int", lat.vector_int)
            return True
        if op == "vmv.v.i":
            cg.need("vi", "vl")
            cg.emit(f"_vi[{ins.rd}][:vl_] = {ins.imm}")
            cg.charge_static("vector_int", lat.vector_int)
            return True
        if op in ("vmv.v.x", "vmv.s.x"):
            cg.need("vi", "vl")
            atom = _w(cg.xref(ins.rs1))
            if op == "vmv.v.x":
                cg.emit(f"_vi[{ins.rd}][:vl_] = {atom}")
            else:
                cg.emit(f"_vi[{ins.rd}][0] = {atom}")
            cg.charge_static("vector_int", lat.vector_int)
            return True
        if op == "vid.v":
            cg.need("v", "vl")
            cg.emit(f"v[{ins.rd}][:vl_] = _np.arange(vl_, dtype=_u32)")
            cg.charge_static("vector_int", lat.vector_int)
            return True
        if op == "vfmv.f.s":
            cg.need("vf")
            cg.fwrite(ins.rd, f"float(_vf[{ins.rs1}][0])")
            cg.charge_static("vector_fp", lat.vector_fp)
            return True
        if op == "vfmv.s.f":
            cg.need("vf")
            cg.emit(f"_vf[{ins.rd}][0] = {cg.fref(ins.rs1)}")
            cg.charge_static("vector_fp", lat.vector_fp)
            return True
        if op == "vfmv.v.f":
            cg.need("vf", "vl")
            cg.emit(f"_vf[{ins.rd}][:vl_] = {cg.fref(ins.rs1)}")
            cg.charge_static("vector_fp", lat.vector_fp)
            return True
        return False


def run_compiled(session) -> "CpuStats":  # noqa: F821 - doc type
    """Drive *session* to halt on the compiled backend.

    Mirrors :meth:`SimSession.run` for the no-probe case: same entry
    state, same budget semantics, same ``finally`` bookkeeping.  Blocks
    that could cross the instruction budget are executed on the
    reference per-instruction path so the budget error fires at the
    exact instruction with the exact message.
    """
    cpu = session.cpu
    program = session.program
    backend = getattr(cpu, "_compiled_backend", None)
    if backend is None or backend.cpu is not cpu:
        backend = CompiledBackend(cpu)
        cpu._compiled_backend = backend
    # Per-run register-file views: ``Cpu.reset`` replaces the vector
    # arrays, so float/int views are rebuilt at run entry (they stay
    # valid for the whole run) and fetched by block prologues from the
    # cpu.
    cpu._compiled_vf32 = [a.view(np.float32) for a in cpu.v]
    cpu._compiled_vi32 = [a.view(np.int32) for a in cpu.v]
    blocks = backend.blocks_for(program)
    blocks_get = blocks.get
    code = session._code
    n = len(code)
    budget = cpu.config.max_instructions
    stats = cpu.counters
    executed = stats.instructions
    limit = executed + budget
    pc = session._pc
    try:
        while not cpu.halted:
            block = blocks_get(pc)
            if block is None:
                if not 0 <= pc < n:
                    raise session._pc_error(pc)
                block = backend.compile_block(program, pc)
                blocks[pc] = block
            bn = block.n
            if executed + bn >= limit:
                # Reference tail: bit-exact budget accounting.
                while not cpu.halted:
                    if not 0 <= pc < n:
                        raise session._pc_error(pc)
                    handler, ins = code[pc]
                    pc = handler(ins, pc)
                    executed += 1
                    if executed >= limit:
                        raise session._budget_error(budget)
                break
            if block.looping:
                # Iterate inside the closure, capped so a full burst
                # stays strictly under the budget; a capped burst falls
                # back here and ultimately into the reference tail.
                pc, ex = block.fn(cpu, (limit - executed - 1) // bn)
                executed += ex * bn
            else:
                pc = block.fn(cpu)
                executed += bn
    finally:
        session._pc = pc
        stats.instructions = executed
        stats.cycles = cpu.cycle
    return stats

