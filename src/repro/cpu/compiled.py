"""The one definition of every instruction, and the translator that runs it.

Each op of the ISA (:mod:`repro.isa`) is defined once, here, by an
*emitter* that writes the op's Python source: register indices,
immediates, branch targets and cycle charges become literals, and the
charge goes to the op's class in
:data:`~repro.isa.instructions.INSTRUCTION_CLASS`, by the class's index:
the prologue binds the Cpu's two counter lists (``cpu._cc``, instructions
per class then taken branches, and ``cpu._ccy``, cycles per class) and
the epilogue adds to their slots, so no translation looks a class up or
walks an attribute chain to charge it.  A translation is a
span of emitted ops compiled into one function of a
:class:`~repro.cpu.core.Cpu`, and both backends run translations, the
way Spike builds its interpreter from one definition per instruction:

* every per-instruction path runs *one-instruction translations*, one
  per dispatch: the reference backend, a run with probes, the
  multi-core interleave, the programmable HHT's helper core
  (:meth:`~repro.instrument.session.SimSession.interpret`, whose runs
  a store may end) and the compiled backend's budget tail;
* the compiled backend translates whole *basic blocks* at first
  execution and runs a block per dispatch.  Per-instruction cycle
  charges are summed at translation time, class counts are batched into
  one list update per class per block, and a *self-loop* block
  (terminal branch targeting its own entry, the shape of every hot
  inner loop) iterates inside its function, paying its prologue,
  epilogue and dispatch once per burst of iterations.  The dispatcher
  caps each burst so the instruction budget still fires at the exact
  instruction.

An op with no emitter fails when translated, with a ``SimulationError``
that names it.  Every memory operation is one call on the Cpu's bus
(``load_word``, ``store_word``, ``load_burst``, ``gather``,
``gather_chain``), which owns RAM, MMIO routing, translation and port
timing (see :mod:`repro.memory.hierarchy`).  The four accelerator
front-end ops (``fssrpop``, ``vssrpop.v``, ``vlpidx.v``, ``vfmacidx``)
look the Cpu's unit up when they run, since no key records which units
a Cpu has, and trap with a ``SimulationError`` on a Cpu without one.

Translations are cached once per process, keyed by everything a
translation reads: the entry pc, the span's ``(op, rd, rs1, rs2, rs3,
imm, target)`` fields, the latency table and ``vlmax``.  Blocks live in
:data:`block_cache` (at most :data:`MAX_BLOCKS`) and one-instruction
translations in their own :data:`step_cache` (at most
:data:`MAX_STEPS`); past the bound, the oldest goes.  ``execute()``
builds a new ``Soc`` for every sweep point, and each run binds the
translations it meets: one that any earlier run in the process made
costs a key and a bind, not a translation.  Binding gives the shared
code object this Cpu's bus methods as its globals, so a function can
only reach its own SoC.  Vector ops index the Cpu's register views at
the current VL (``cpu.vset``, a :class:`~repro.cpu.core.VlViews`),
bound in the prologue; a ``vsetvli`` that changes VL rebinds them and
switches the Cpu's own set, so the next translation finds it.  The
element-0 op ``vfmv.f.s`` reads the full ``cpu.vf`` views.  The kernels
keep a point's operand layout in their prologue's ``la``/``li``
immediates, so a point with a new layout translates one block.

**Bit-identity contract.**  A block produces exactly the cycles,
instruction counts, flat stats registry, architectural state and
``SimulationError`` messages of its one-instruction translations run
one after the other.  Three deliberate boundaries:

* probes/samplers force the per-instruction path —
  :meth:`SimSession.run` only enters :func:`run_compiled` when *no*
  probe is attached, because blocks skip the per-instruction hooks and
  ``probe_sink`` events;
* only single-core runs take blocks — a multi-core
  :class:`~repro.instrument.session.MultiCoreSession` always takes the
  per-instruction earliest-clock interleave, so its cycles are the same
  on both backends;
* a ``MemoryAccessError`` or a front-end trap aborts mid-block, so the
  *partial* charges of the faulting block may differ from the
  per-instruction abort state (the exception type, message and
  memory-system side effects are identical; no test or figure depends
  on post-fault timing).
"""

from __future__ import annotations

import struct
from operator import attrgetter
from types import CodeType, FunctionType

import numpy as np

from ..isa.instructions import CLASS_INDEX, INSTRUCTION_CLASS, s32
from ..isa.program import Program
from .core import TAKEN_BRANCHES, SimulationError

#: Ops that end a basic block (control transfer or machine stop).
CONTROL_OPS = frozenset("beq bne blt bge jal halt".split())

#: Translation stops after this many instructions even without a
#: control op; the dispatcher simply chains into the next block.
MAX_BLOCK_LEN = 64

#: Most translations :data:`block_cache` keeps (about 9 KiB each).  The
#: 72 points of a headline sweep block (figs 4-7) share 70 blocks.
MAX_BLOCKS = 512

#: Most one-instruction translations :data:`step_cache` keeps (about
#: 2 KiB each).  A bench block of seed 0 runs 888 distinct ones on
#: bakeoff, 333 on headline and 142 on fig9-dnn; a bound below a
#: workload's count evicts every translation before its next use.
MAX_STEPS = 2048

_BRANCH_COND = {"beq": "==", "bne": "!=", "blt": "<", "bge": ">="}

#: The fields of an instruction that its translation reads.
_FIELDS = attrgetter("op", "rd", "rs1", "rs2", "rs3", "imm", "target")

#: The trap of a front-end op on a Cpu without the unit that runs it.
_MISSING_UNIT = {
    "ssr": "SSR instruction without the 'ssr' front-end configured "
           "(add an accelerators entry with kind='ssr')",
    "indexmac": "IndexMAC instruction without the 'indexmac' front-end "
                "configured (add an accelerators entry with kind='indexmac')",
}

_PACK_F = struct.Struct("<f").pack
_PACK_I = struct.Struct("<i").pack
_UNPACK_F = struct.Struct("<f").unpack


def _f32bits(value: float) -> int:
    """Bit pattern (u32) of a float rounded to binary32."""
    return int.from_bytes(_PACK_F(value), "little")


def _bits_f32(bits: int) -> float:
    """Float value of a binary32 bit pattern."""
    return _UNPACK_F(bits.to_bytes(4, "little"))[0]


def _w(expr: str) -> str:
    """Source text of ``s32(expr)`` (wrap to signed 32-bit)."""
    return f"((({expr}) + 0x80000000) & 0xFFFFFFFF) - 0x80000000"


def _branch_cond(cg: "_Codegen", ins) -> str:
    """Source text of a conditional branch's taken test."""
    return f"{cg.xref(ins.rs1)} {_BRANCH_COND[ins.op]} {cg.xref(ins.rs2)}"


# op -> expr builder over two operand atoms.
_ALU3 = {
    "add": lambda a, b: _w(f"{a} + {b}"),
    "sub": lambda a, b: _w(f"{a} - {b}"),
    "and": lambda a, b: _w(f"{a} & {b}"),
    "srl": lambda a, b: _w(f"({a} & 0xFFFFFFFF) >> ({b} & 31)"),
    # Immediate shifts take the immediate unmasked.
    "slli": lambda a, b: _w(f"{a} << {b}"),
    "srli": lambda a, b: _w(f"({a} & 0xFFFFFFFF) >> {b}"),
}

#: Immediate ALU ops sharing a 3-register builder's semantics.
_ALU_IMM = {"addi": "add", "andi": "and", "slli": "slli", "srli": "srli"}


class CompiledBlock:
    """One translation, shared by every Cpu in the process.

    ``code`` is the translation's code object, which
    :meth:`CompiledBackend.bind` turns into a function of one Cpu.  A
    *looping* block (terminal branch targeting its own entry) has the
    signature ``fn(cpu, max_execs) -> (next_pc, execs)`` and iterates
    internally; any other translation is ``fn(cpu) -> next_pc``.
    """

    __slots__ = ("code", "n", "entry", "source", "looping")

    def __init__(self, code: CodeType, n: int, entry: int, source: str,
                 looping: bool):
        self.code = code
        self.n = n
        self.entry = entry
        self.source = source
        self.looping = looping


#: The process's block translations, oldest first (see
#: :meth:`CompiledBackend.bind` for the key).  A hit gives the code a
#: miss would have produced, so sharing it changes what is translated,
#: never what a run computes.
block_cache: dict[tuple, CompiledBlock] = {}

#: The process's one-instruction translations, keyed like blocks.
step_cache: dict[tuple, CompiledBlock] = {}


class _Codegen:
    """Accumulates the source of one translation."""

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

    def charge(self, klass: str, count: str, cycles: list[str]) -> None:
        """Emit the class counters' charge: *count* instructions and the
        sum of *cycles* (no term: none) to *klass*'s slots."""
        i = CLASS_INDEX[klass]
        self.need("cc")
        self.emit(f"_cc[{i}] += {count}")
        if cycles:
            self.emit(f"_ccy[{i}] += " + " + ".join(cycles))

    def epilogue(self, extra_counts: dict[str, int] | None = None,
                 extra_cycles: dict[str, int] | None = None) -> None:
        """Flush cycle and batched class counters back to the cpu.

        Emitted once per exit arm (branch taken / fallthrough /
        straight-line end), so each arm can carry its own branch cost.
        """
        self.emit("cpu.cycle = cycle")
        counts = dict(self.counts)
        for klass, n in (extra_counts or {}).items():
            counts[klass] = counts.get(klass, 0) + n
        for klass, n in counts.items():
            parts = []
            static = (self.static_cycles.get(klass, 0)
                      + (extra_cycles or {}).get(klass, 0))
            if static:
                parts.append(str(static))
            if klass in self.dyn_vars:
                parts.append(self.dyn_vars[klass])
            self.charge(klass, str(n), parts)


class CompiledBackend:
    """Binds the process's translations to one Cpu.

    :meth:`bind` (a block) and :meth:`bind_step` (one instruction) look
    the translation at a pc up in its cache, translate it on a miss, and
    bind the shared code to this Cpu: every function's globals hold this
    Cpu's bus methods.  Translation reads nothing but the key's parts:
    the span, ``lat`` and ``vlmax``.  Registers, register views,
    front-end units and counters are fetched from ``cpu`` when a
    function runs.
    """

    def __init__(self, cpu):
        self.lat = cpu.lat
        self.vlmax = cpu.vlmax
        self._config = (tuple(vars(cpu.lat).items()), cpu.vlmax)
        bus = cpu.bus
        self._globals = {
            "_np": np,
            "_f32": np.float32,
            "_bus_load": bus.load_word,
            "_bus_store": bus.store_word,
            "_bus_burst": bus.load_burst,
            "_bus_gather": bus.gather,
            "_bus_chain": bus.gather_chain,
            "_pki": _PACK_I,
            "_upf": _UNPACK_F,
            "_bits_f32": _bits_f32,
            "_f32bits": _f32bits,
            "_SimulationError": SimulationError,
        }

    def bind(self, program: Program, entry: int):
        """``(fn, n, looping)`` for the block at *entry*, bound to this Cpu."""
        span = []
        for ins in program.instructions[entry:entry + MAX_BLOCK_LEN]:
            span.append(ins)
            if ins.op in CONTROL_OPS:
                break
        block = self._lookup(block_cache, MAX_BLOCKS, span, entry)
        return FunctionType(block.code, self._globals), block.n, block.looping

    def bind_step(self, program: Program, pc: int):
        """``fn(cpu) -> next_pc`` running the instruction at *pc* alone."""
        block = self._lookup(step_cache, MAX_STEPS,
                             [program.instructions[pc]], pc)
        return FunctionType(block.code, self._globals)

    def _lookup(self, cache: dict, limit: int, span: list,
                entry: int) -> CompiledBlock:
        """The translation of *span* at *entry* in *cache*, made on a
        miss; past *limit* entries the oldest goes."""
        key = (entry, self._config, tuple(map(_FIELDS, span)))
        block = cache.get(key)
        if block is None:
            block = self._translate(span, entry)
            if len(cache) >= limit:
                del cache[next(iter(cache))]
            cache[key] = block
        return block

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def _translate(self, span: list, entry: int) -> CompiledBlock:
        # A block whose terminal branch targets its own entry is a
        # *self-loop*: compile it as a function that iterates
        # internally, paying prologue/epilogue/dispatch once per burst
        # of iterations instead of once per iteration.
        last_pc, last_ins = entry + len(span) - 1, span[-1]
        looping = (len(span) >= 2 and last_ins.op in _BRANCH_COND
                   and last_ins.target == entry)
        cg = _Codegen()
        if looping:
            cg.ind = 1                      # body inside ``while True:``
        body = span[:-1] if looping else span
        for pc, ins in enumerate(body, entry):
            self._emit_instruction(cg, ins, pc)

        if looping:
            self._emit_loop_branch(cg, last_ins, last_pc)
        elif last_ins.op not in CONTROL_OPS:
            # Straight-line span (length cap, end of program or one
            # instruction): fall through to the next pc; an out-of-range
            # fallthrough is raised by the dispatcher.
            cg.flush_pending()
            cg.epilogue()
            cg.emit(f"return {last_pc + 1}")

        source = self._render(cg, entry, looping)
        module = compile(source, f"<block@{entry}>", "exec")
        code = next(c for c in module.co_consts if isinstance(c, CodeType))
        return CompiledBlock(code, len(span), entry, source, looping)

    def _render(self, cg: _Codegen, entry: int, looping: bool) -> str:
        arg = "cpu, _max" if looping else "cpu"
        head = [f"def _block_{entry}({arg}):"]
        if "x" in cg.needs:
            head.append("    x = cpu.x")
        if "f" in cg.needs:
            head.append("    f = cpu.f")
        if "vset" in cg.needs:
            # The Cpu's current VlViews: the registers' first vl_ words
            # as uint32, float32 and int32, and the vfmacc scratch.
            head.append("    _sv, _sf, _si, _sc = cpu.vset")
        if "vf" in cg.needs:
            head.append("    _vf = cpu.vf")
        if "vl" in cg.needs:
            head.append("    vl_ = cpu.vl")
        head.append("    cycle = cpu.cycle")
        if "cc" in cg.needs:
            head.append("    _cc = cpu._cc")
            head.append("    _ccy = cpu._ccy")
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
        iteration take the branch; the function also exits when the
        dispatcher's budget cap ``_max`` is reached with the branch
        still taken, returning to the dispatcher for the tail.
        """
        lat = self.lat
        klass = INSTRUCTION_CLASS[ins.op]
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
        cg.emit(f"_cc[{TAKEN_BRANCHES}] += _ex")
        self._loop_epilogue(cg, f"{taken_cost} * _ex", klass)
        cg.emit(f"return {ins.target}, _ex")
        cg.ind -= 1
        if pending + lat.branch:
            cg.emit(f"cycle += {pending + lat.branch}")
        cg.emit(f"_cc[{TAKEN_BRANCHES}] += _ex - 1")
        self._loop_epilogue(cg, f"{taken_cost} * (_ex - 1) + {lat.branch}",
                            klass)
        cg.emit(f"return {pc + 1}, _ex")

    def _loop_epilogue(self, cg: _Codegen, branch_cycles: str,
                       branch_klass: str) -> None:
        """Exit-arm accounting for a self-loop block: per-iteration
        class counts and static cycles multiply by ``_ex``; dynamic
        accumulators already summed across iterations.
        """
        def per_iteration(n: int) -> str:
            return "_ex" if n == 1 else f"{n} * _ex"

        cg.emit("cpu.cycle = cycle")
        for klass, n in cg.counts.items():
            parts = []
            static = cg.static_cycles.get(klass, 0)
            if static:
                parts.append(per_iteration(static))
            if klass in cg.dyn_vars:
                parts.append(cg.dyn_vars[klass])
            cg.charge(klass, per_iteration(n), parts)
        cg.charge(branch_klass, "_ex", [branch_cycles])

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
    def _emit_instruction(self, cg: _Codegen, ins, pc: int) -> None:
        """Emit *ins*, the one definition of its op, charging its class."""
        op = ins.op
        lat = self.lat
        klass = INSTRUCTION_CLASS.get(op)

        # ---- integer ALU ------------------------------------------------
        if op in ("li", "la"):
            cg.xwrite(ins.rd, str(s32(ins.imm)))
            cg.charge_static(klass, lat.int_alu)
            return
        if op in _ALU_IMM:
            imm = ins.imm
            b = f"({imm})" if imm < 0 else str(imm)
            cg.xwrite(ins.rd, _ALU3[_ALU_IMM[op]](cg.xref(ins.rs1), b))
            cg.charge_static(klass, lat.int_alu)
            return
        if op in _ALU3 and ins.rs2 is not None:
            cg.xwrite(ins.rd,
                      _ALU3[op](cg.xref(ins.rs1), cg.xref(ins.rs2)))
            cg.charge_static(klass, lat.int_alu)
            return

        # ---- loads / stores: a load that does not complete at once
        # stalls the whole in-order pipeline (Table 1) ------------------
        if op in ("lw", "flw"):
            addr = self._address(cg, ins.rs1, ins.imm or 0)
            cg.flush_pending()
            cg.emit(f"_val, _comp = _bus_load({addr}, cycle)")
            cg.emit(f"_cost = _comp - cycle + {lat.load_use}")
            cg.charge_dyn(klass, "_cost")
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
            cg.charge_static(klass, lat.scalar_store)
            return

        # ---- branches / jumps / system ---------------------------------
        if op in _BRANCH_COND:
            self._emit_branch(cg, ins, pc, klass)
            return
        if op == "jal":
            cg.xwrite(ins.rd, str((pc + 1) * 4))
            self._exit_arm(cg, lat.jump, klass, lat.jump, str(ins.target))
            return
        if op == "halt":
            cg.emit("cpu.halted = True")
            self._exit_arm(cg, lat.system, klass, lat.system, str(pc))
            return

        # ---- scalar FP (computed in double, rounded at memory edges) ----
        if op == "fmadd.s":
            cg.fwrite(ins.rd, f"{cg.fref(ins.rs1)} * {cg.fref(ins.rs2)} + "
                              f"{cg.fref(ins.rs3)}")
            cg.charge_static(klass, lat.fp_fma)
            return
        if op == "fmv.w.x":
            cg.fwrite(ins.rd, f"_upf(_pki({_w(cg.xref(ins.rs1))}))[0]")
            cg.charge_static(klass, lat.fp_alu)
            return

        # ---- vector (SEW=32, LMUL=1, tail-undisturbed) -----------------
        if self._emit_vector(cg, ins, op, klass, lat):
            return
        if self._emit_front_end(cg, ins, op, klass, lat):
            return
        raise SimulationError(f"no emitter for instruction {op!r}")

    # ------------------------------------------------------------------
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

    def _emit_branch(self, cg: _Codegen, ins, pc: int, klass: str) -> None:
        lat = self.lat
        taken_cost = lat.branch + lat.branch_taken_penalty
        pending = cg.pending
        cg.emit(f"if {_branch_cond(cg, ins)}:")
        cg.ind += 1
        cg.need("cc")
        cg.emit(f"_cc[{TAKEN_BRANCHES}] += 1")
        self._exit_arm(cg, taken_cost, klass, taken_cost, str(ins.target))
        cg.ind -= 1
        cg.pending = pending
        self._exit_arm(cg, lat.branch, klass, lat.branch, str(pc + 1))

    # ------------------------------------------------------------------
    def _emit_vector(self, cg: _Codegen, ins, op: str, klass: str,
                     lat) -> bool:
        if op == "vsetvli":
            # vl = min(AVL, VLMAX), one of the choices RVV 1.0 allows.
            # The AVL is x[rs1]; rs1 = x0 asks for VLMAX, except that
            # with rd = x0 too it keeps the current vl.
            if ins.rs1 or ins.rd:
                cg.need("vl")
                if ins.rs1 == 0:
                    cg.emit(f"_vl = {self.vlmax}")
                else:
                    cg.emit(f"_req = {cg.xref(ins.rs1)} & 0xFFFFFFFF")
                    cg.emit(f"_vl = _req if _req < {self.vlmax} "
                            f"else {self.vlmax}")
                # Switch the Cpu's set with the block's, only on a
                # change: the next translation binds cpu.vset.
                cg.emit("if _vl != vl_:")
                cg.emit("    vl_ = cpu.vl = _vl")
                cg.emit("    _sv, _sf, _si, _sc = cpu.vset = cpu._vsets[_vl]")
                cg.xwrite(ins.rd, "vl_")
            cg.charge_static(klass, lat.vector_config)
            return True
        if op == "vle32.v":
            # The words may alias RAM or a FIFO fill: copy them in at once.
            cg.need("vset", "vl")
            addr = self._address(cg, ins.rs1)
            cg.flush_pending()
            cg.emit(f"_vals, _comp = _bus_burst({addr}, vl_, cycle)")
            cg.emit(f"_sv[{ins.rd}][...] = _vals")
            cg.emit(f"_cost = _comp - cycle + {lat.load_use}")
            cg.charge_dyn(klass, "_cost")
            return True
        if op == "vluxei32.v":
            # Indexed gather at base + byte offset.  The vector unit is
            # not pipelined (Table 1): each element's request issues one
            # cycle after the previous response — the expensive
            # metadata access pattern of Section 2.
            cg.need("vset")
            base = self._address(cg, ins.rs1)
            cg.flush_pending()
            cg.emit(f"_vals, _t = _bus_chain([({base} + _o) & 0xFFFFFFFF "
                    f"for _o in _sv[{ins.rs2}].tolist()], cycle)")
            cg.emit(f"_sv[{ins.rd}][...] = _vals")
            cg.emit(f"_cost = _t - cycle + {lat.load_use}")
            cg.charge_dyn(klass, "_cost")
            return True
        if op == "vfmacc.vv":
            # The product rounds to float32 before the add, in the scratch.
            cg.need("vset")
            cg.emit(f"_np.multiply(_sf[{ins.rs1}], _sf[{ins.rs2}], out=_sc)")
            cg.emit(f"_acc = _sf[{ins.rd}]")
            cg.emit("_np.add(_acc, _sc, out=_acc)")
            cg.charge_static(klass, lat.vector_fp)
            return True
        if op == "vfredosum.vs":
            # Ordered: vd[0] = vs1[0] + vs2[0] + ... + vs2[vl-1], each
            # sum rounded to float32.  At VL = 0 vd is left alone.
            cg.need("vset", "vl")
            cg.emit("if vl_:")
            cg.emit(f"    _vec = _sf[{ins.rs1}]")
            cg.emit(f"    _acc = _f32(_sf[{ins.rs2}][0])")
            cg.emit("    for _i in range(vl_):")
            cg.emit("        _acc = _f32(_acc + _vec[_i])")
            cg.emit(f"    _sf[{ins.rd}][0] = _acc")
            cg.emit(f"_cost = {lat.vector_fp} + "
                    f"{lat.vector_reduction_per_elem} * vl_")
            cg.charge_dyn(klass, "_cost")
            return True
        if op == "vsll.vi":
            # numpy's uint32 << drops shifted-out bits, like the hardware.
            cg.need("vset")
            cg.emit(f"_np.left_shift(_sv[{ins.rs1}], {ins.imm}, "
                    f"out=_sv[{ins.rd}])")
            cg.charge_static(klass, lat.vector_int)
            return True
        if op == "vmv.v.i":
            cg.need("vset")
            cg.emit(f"_si[{ins.rd}][...] = {ins.imm}")
            cg.charge_static(klass, lat.vector_int)
            return True
        if op == "vfmv.f.s":
            # Element 0 at any VL, VL = 0 included.
            cg.need("vf")
            cg.fwrite(ins.rd, f"float(_vf[{ins.rs1}][0])")
            cg.charge_static(klass, lat.vector_fp)
            return True
        if op == "vfmv.s.f":
            # Element 0, and at VL = 0 nothing.
            cg.need("vset", "vl")
            cg.emit("if vl_:")
            cg.emit(f"    _sf[{ins.rd}][0] = {cg.fref(ins.rs1)}")
            cg.charge_static(klass, lat.vector_fp)
            return True
        return False

    # ------------------------------------------------------------------
    # Accelerator front-end ops (repro.accel).  The SSR pops read the
    # stream unit the SoC attached; the IndexMAC pair issues *pipelined*
    # gathers at base + 4 * element index — one request per cycle,
    # letting the port overlap responses — unlike vluxei32.v's chain.
    # ------------------------------------------------------------------
    def _unit(self, cg: _Codegen, kind: str) -> None:
        """Emit ``_u = cpu.<kind>``, trapping when the Cpu has none."""
        cg.emit(f"_u = cpu.{kind}")
        cg.emit("if _u is None:")
        cg.emit(f"    raise _SimulationError({_MISSING_UNIT[kind]!r})")

    def _emit_front_end(self, cg: _Codegen, ins, op: str, klass: str,
                        lat) -> bool:
        if op in ("fssrpop", "vssrpop.v"):
            self._unit(cg, "ssr")
            cg.flush_pending()
            if op == "fssrpop":
                cg.emit(f"_vals, _comp = _u.pop({ins.imm or 0}, 1, cycle)")
                cg.fwrite(ins.rd, "_bits_f32(_vals[0])")
            else:
                cg.need("vset", "vl")
                cg.emit(f"_vals, _comp = _u.pop({ins.imm or 0}, vl_, cycle)")
                cg.emit(f"_sv[{ins.rd}][...] = _vals")
            cg.emit(f"_cost = _comp - cycle + {lat.load_use}")
            cg.charge_dyn(klass, "_cost")
            return True
        if op in ("vlpidx.v", "vfmacidx"):
            self._unit(cg, "indexmac")
            cg.need("vset", "vl")
            base = self._address(cg, ins.rs1)
            cg.flush_pending()
            cg.emit(f"_vals, _t = _bus_gather([({base} + 4 * _i) & 0xFFFFFFFF "
                    f"for _i in _si[{ins.rs2}].tolist()], cycle)")
            cost = lat.load_use
            if op == "vlpidx.v":
                cg.emit(f"_sv[{ins.rd}][...] = _vals")
                cg.emit("_u.gathers += 1")
            else:
                # As vfmacc.vv: the product rounds in the scratch first.
                cg.emit(f"_np.multiply(_np.frombuffer(_vals, _f32), "
                        f"_sf[{ins.rs3}], out=_sc)")
                cg.emit(f"_acc = _sf[{ins.rd}]")
                cg.emit("_np.add(_acc, _sc, out=_acc)")
                cg.emit("_u.macs += 1")
                cost += lat.vector_fp
            cg.emit("_u.gathered_elements += vl_")
            cg.emit(f"_cost = _t - cycle + {cost}")
            cg.charge_dyn(klass, "_cost")
            return True
        return False


def run_compiled(session) -> "CpuStats":  # noqa: F821 - doc type
    """Drive *session* to halt on the compiled backend.

    Mirrors :meth:`SimSession.interpret` for the no-probe case: same entry
    state, same budget semantics, same ``finally`` bookkeeping.  Blocks
    that could cross the instruction budget are executed one instruction
    at a time, through the session's one-instruction translations, so
    the budget error fires at the exact instruction with the exact
    message.
    """
    cpu = session.cpu
    program = session.program
    backend = CompiledBackend(cpu)
    blocks: dict[int, tuple] = {}       # pc -> bound (fn, n, looping)
    blocks_get = blocks.get
    n = len(program.instructions)
    budget = cpu.config.max_instructions
    stats = cpu.counters
    executed = stats.instructions
    limit = session._limit
    pc = session._pc
    try:
        while not cpu.halted:
            block = blocks_get(pc)
            if block is None:
                if not 0 <= pc < n:
                    raise session._pc_error(pc)
                block = blocks[pc] = backend.bind(program, pc)
            fn, bn, looping = block
            if executed + bn >= limit:
                # Per-instruction tail: bit-exact budget accounting.
                steps_get = session._steps.get
                while not cpu.halted:
                    pc = (steps_get(pc) or session._bind_step(pc))(cpu)
                    executed += 1
                    if executed >= limit:
                        raise session._budget_error(budget)
                break
            if looping:
                # Iterate inside the function, capped so a full burst
                # stays strictly under the budget; a capped burst falls
                # back here and ultimately into the per-instruction tail.
                pc, ex = fn(cpu, (limit - executed - 1) // bn)
                executed += ex * bn
            else:
                pc = fn(cpu)
                executed += bn
    finally:
        session._pc = pc
        stats.instructions = executed
        stats.cycles = cpu.cycle
    return stats
