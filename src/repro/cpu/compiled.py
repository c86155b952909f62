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
``load_burst``, ``gather_chain``), which owns RAM, MMIO routing,
translation and port timing for both backends — see
:mod:`repro.memory.hierarchy` for the burst and gather shapes.  The
four accelerator front-end ops (``fssrpop``, ``vssrpop.v``,
``vlpidx.v``, ``vfmacidx``) are not translated: they call the Cpu's
reference handler (the escape hatch).

Translations are cached once per process, in :data:`block_cache`,
keyed by everything a translation reads: the entry pc, the span's
``(op, rd, rs1, rs2, rs3, imm, target)`` fields, the latency table and
``vlmax``.  ``execute()`` builds a new ``Soc`` for every sweep point,
and each run binds the blocks it meets: a block that any earlier run in
the process translated costs a key and a bind, not a translation.
Binding gives the shared code object this run's bus methods and its
escape handlers (bound to this Cpu) as its globals, so a closure can
only reach its own SoC.  Vector blocks bind the Cpu's register views at
the current VL (``cpu.vset``, a :class:`~repro.cpu.core.VlViews`) in
their prologue; a ``vsetvli`` that changes VL rebinds them and switches
the Cpu's own set, so an escape handler later in the block sees the new
VL.  The element-0 ops read the full ``cpu.vf`` views.  The kernels
keep a point's operand layout in their prologue's ``la``/``li``
immediates, so a point with a new layout translates one block.  At most
:data:`MAX_BLOCKS` translations are kept; past that, the oldest goes.

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

from types import CodeType, FunctionType, MethodType

import numpy as np

from ..isa.instructions import s32
from ..isa.program import Program

#: Ops that end a basic block (control transfer or machine stop).
CONTROL_OPS = frozenset("beq bne blt bge jal halt".split())

#: Translation stops after this many instructions even without a
#: control op; the dispatcher simply chains into the next block.
MAX_BLOCK_LEN = 64

#: Most translations :data:`block_cache` keeps (about 9 KiB each).  The
#: 72 points of a headline sweep block (figs 4-7) share 70 blocks.
MAX_BLOCKS = 512

_BRANCH_COND = {"beq": "==", "bne": "!=", "blt": "<", "bge": ">="}


def _w(expr: str) -> str:
    """Source text of ``s32(expr)`` (wrap to signed 32-bit)."""
    return f"((({expr}) + 0x80000000) & 0xFFFFFFFF) - 0x80000000"


def _branch_cond(cg: "_Codegen", ins) -> str:
    """Source text of a conditional branch's taken test."""
    return f"{cg.xref(ins.rs1)} {_BRANCH_COND[ins.op]} {cg.xref(ins.rs2)}"


# op -> expr builder over two operand atoms, mirroring Cpu._op_*
# arithmetic exactly.
_ALU3 = {
    "add": lambda a, b: _w(f"{a} + {b}"),
    "sub": lambda a, b: _w(f"{a} - {b}"),
    "and": lambda a, b: _w(f"{a} & {b}"),
    "srl": lambda a, b: _w(f"({a} & 0xFFFFFFFF) >> ({b} & 31)"),
    # Immediate shifts take the immediate unmasked, like the handlers.
    "slli": lambda a, b: _w(f"{a} << {b}"),
    "srli": lambda a, b: _w(f"({a} & 0xFFFFFFFF) >> {b}"),
}

#: Immediate ALU ops sharing a 3-register builder's semantics.
_ALU_IMM = {"addi": "add", "andi": "and", "slli": "slli", "srli": "srli"}


class CompiledBlock:
    """One translated basic block, shared by every Cpu in the process.

    ``code`` is the block function's code object, which
    :meth:`CompiledBackend.bind` turns into a function of one Cpu.  A
    *looping* block (terminal branch targeting its own entry) has the
    signature ``fn(cpu, max_execs) -> (next_pc, execs)`` and iterates
    internally; a plain block is ``fn(cpu) -> next_pc``.  ``escapes``
    holds the pcs of the ops that run through the Cpu's own reference
    handler (``_h<k>(_i<k>, pc)`` in the source).
    """

    __slots__ = ("code", "n", "entry", "source", "looping", "escapes")

    def __init__(self, code: CodeType, n: int, entry: int, source: str,
                 looping: bool, escapes: tuple[int, ...]):
        self.code = code
        self.n = n
        self.entry = entry
        self.source = source
        self.looping = looping
        self.escapes = escapes


#: The process's translations, oldest first (see :meth:`CompiledBackend.bind`
#: for the key).  A hit gives the code a miss would have produced, so
#: sharing it changes what is translated, never what a run computes.
block_cache: dict[tuple, CompiledBlock] = {}


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
    """Binds the process's translations to one Cpu, for one run.

    :meth:`bind` looks the block at a pc up in :data:`block_cache`,
    translates it on a miss, and binds the shared code to this Cpu: the
    function's globals hold this Cpu's bus methods and escape handlers.
    Translation reads nothing but the key's parts: the span, ``lat`` and
    ``vlmax``.  Registers, register views and counters are fetched from
    ``cpu`` in every closure's prologue.
    """

    def __init__(self, cpu):
        self.lat = cpu.lat
        self.vlmax = cpu.vlmax
        self._config = (tuple(vars(cpu.lat).items()), cpu.vlmax)
        self._cpu = cpu
        bus = cpu.bus
        self._globals = {
            "_np": np,
            "_f32": np.float32,
            "_bus_load": bus.load_word,
            "_bus_store": bus.store_word,
            "_bus_burst": bus.load_burst,
            "_bus_chain": bus.gather_chain,
        }
        from .core import _PACK_I, _UNPACK_F, _bits_f32, _f32bits
        self._globals.update(
            _pki=_PACK_I, _upf=_UNPACK_F,
            _bits_f32=_bits_f32, _f32bits=_f32bits,
        )

    def bind(self, program: Program, entry: int):
        """``(fn, n, looping)`` for the block at *entry*, bound to this Cpu."""
        instructions = program.instructions
        span = []
        for ins in instructions[entry:entry + MAX_BLOCK_LEN]:
            span.append(ins)
            if ins.op in CONTROL_OPS:
                break
        key = (entry, self._config, tuple(
            (i.op, i.rd, i.rs1, i.rs2, i.rs3, i.imm, i.target) for i in span))
        block = block_cache.get(key)
        if block is None:
            block = self._translate(span, entry)
            if len(block_cache) >= MAX_BLOCKS:
                del block_cache[next(iter(block_cache))]
            block_cache[key] = block
        scope = dict(self._globals)
        cpu = self._cpu
        for k, pc in enumerate(block.escapes):
            ins = instructions[pc]
            scope[f"_h{k}"] = MethodType(cpu._dispatch[ins.op], cpu)
            scope[f"_i{k}"] = ins
        return FunctionType(block.code, scope), block.n, block.looping

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def _translate(self, span: list, entry: int) -> CompiledBlock:
        # A block whose terminal branch targets its own entry is a
        # *self-loop*: compile it as a closure that iterates internally,
        # paying prologue/epilogue/dispatch once per burst of
        # iterations instead of once per iteration.
        last_pc, last_ins = entry + len(span) - 1, span[-1]
        looping = (len(span) >= 2 and last_ins.op in _BRANCH_COND
                   and last_ins.target == entry)
        cg = _Codegen()
        escapes: list[int] = []
        if looping:
            cg.ind = 1                      # body inside ``while True:``
        body = span[:-1] if looping else span
        for pc, ins in enumerate(body, entry):
            self._emit_instruction(cg, ins, pc, escapes)

        if looping:
            self._emit_loop_branch(cg, last_ins, last_pc)
        elif last_ins.op not in CONTROL_OPS:
            # Straight-line block (length cap or end of program): fall
            # through to the next pc; an out-of-range fallthrough is
            # raised by the dispatcher, exactly like the reference.
            cg.flush_pending()
            cg.epilogue()
            cg.emit(f"return {last_pc + 1}")

        source = self._render(cg, entry, looping)
        module = compile(source, f"<block@{entry}>", "exec")
        code = next(c for c in module.co_consts if isinstance(c, CodeType))
        return CompiledBlock(code, len(span), entry, source, looping,
                             tuple(escapes))

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
        lat = self.lat
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
        lat = self.lat

        # ---- integer ALU ------------------------------------------------
        if op in ("li", "la"):
            cg.xwrite(ins.rd, str(s32(ins.imm)))
            cg.charge_static("int_alu", lat.int_alu)
            return
        if op in _ALU_IMM:
            imm = ins.imm
            b = f"({imm})" if imm < 0 else str(imm)
            cg.xwrite(ins.rd, _ALU3[_ALU_IMM[op]](cg.xref(ins.rs1), b))
            cg.charge_static("int_alu", lat.int_alu)
            return
        if op in _ALU3 and ins.rs2 is not None:
            cg.xwrite(ins.rd,
                      _ALU3[op](cg.xref(ins.rs1), cg.xref(ins.rs2)))
            cg.charge_static("int_alu", lat.int_alu)
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
        if op == "halt":
            cg.emit("cpu.halted = True")
            self._exit_arm(cg, lat.system, "system", lat.system, str(pc))
            return

        # ---- scalar FP --------------------------------------------------
        if self._emit_scalar_fp(cg, ins, op, lat):
            return

        # ---- vector -----------------------------------------------------
        if self._emit_vector(cg, ins, op, lat):
            return

        # ---- escape hatch ----------------------------------------------
        # The accelerator front-end ops (the SSR pops and the IndexMAC
        # pair) call the reference handler with the decoded Instr; bind()
        # puts both in the function's globals.  The handler charges through
        # cpu._charge itself, so sync the batched cycle counter around
        # the call.
        cg.flush_pending()
        cg.emit("cpu.cycle = cycle")
        k = len(escapes)
        escapes.append(pc)
        cg.emit(f"_h{k}(_i{k}, {pc})")
        cg.emit("cycle = cpu.cycle")

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
        if op == "fmadd.s":
            cg.fwrite(ins.rd, f"{cg.fref(ins.rs1)} * {cg.fref(ins.rs2)} + "
                              f"{cg.fref(ins.rs3)}")
            cg.charge_static("fp_fma", lat.fp_fma)
            return True
        if op == "fmv.w.x":
            cg.fwrite(ins.rd, f"_upf(_pki({_w(cg.xref(ins.rs1))}))[0]")
            cg.charge_static("fp_alu", lat.fp_alu)
            return True
        return False

    # ------------------------------------------------------------------
    def _emit_vector(self, cg: _Codegen, ins, op: str, lat) -> bool:
        if op == "vsetvli":
            cg.need("vl")
            if ins.rs1 == 0:
                cg.emit(f"_vl = {self.vlmax}")
            else:
                cg.emit(f"_req = {cg.xref(ins.rs1)} & 0xFFFFFFFF")
                cg.emit(f"_vl = _req if _req < {self.vlmax} "
                        f"else {self.vlmax}")
            # Switch the Cpu's set with the block's: an escape handler
            # later in the block indexes cpu.vset.
            cg.emit("if _vl != vl_:")
            cg.emit("    vl_ = cpu.vl = _vl")
            cg.emit("    _sv, _sf, _si, _sc = cpu.vset = cpu._vsets[_vl]")
            cg.xwrite(ins.rd, "vl_")
            cg.charge_static("vector_config", lat.vector_config)
            return True
        if op == "vle32.v":
            cg.need("vset", "vl")
            addr = self._address(cg, ins.rs1)
            cg.flush_pending()
            cg.emit(f"_vals, _comp = _bus_burst({addr}, vl_, cycle)")
            cg.emit(f"_sv[{ins.rd}][...] = _vals")
            cg.emit(f"_cost = _comp - cycle + {lat.load_use}")
            cg.charge_dyn("vector_load", "_cost")
            return True
        if op == "vluxei32.v":
            cg.need("vset")
            base = self._address(cg, ins.rs1)
            cg.flush_pending()
            cg.emit(f"_vals, _t = _bus_chain([({base} + _o) & 0xFFFFFFFF "
                    f"for _o in _sv[{ins.rs2}].tolist()], cycle)")
            cg.emit(f"_sv[{ins.rd}][...] = _vals")
            cg.emit(f"_cost = _t - cycle + {lat.load_use}")
            cg.charge_dyn("vector_gather", "_cost")
            return True
        if op == "vfmacc.vv":
            cg.need("vset")
            cg.emit(f"_np.multiply(_sf[{ins.rs1}], _sf[{ins.rs2}], out=_sc)")
            cg.emit(f"_acc = _sf[{ins.rd}]")
            cg.emit("_np.add(_acc, _sc, out=_acc)")
            cg.charge_static("vector_fp", lat.vector_fp)
            return True
        if op == "vfredosum.vs":
            # The scalar operand and the result are element 0, at any VL.
            cg.need("vset", "vf", "vl")
            cg.emit(f"_vec = _sf[{ins.rs1}]")
            cg.emit(f"_acc = _f32(_vf[{ins.rs2}][0])")
            cg.emit("for _i in range(vl_):")
            cg.emit("    _acc = _f32(_acc + _vec[_i])")
            cg.emit(f"_vf[{ins.rd}][0] = _acc")
            cg.emit(f"_cost = {lat.vector_fp} + "
                    f"{lat.vector_reduction_per_elem} * vl_")
            cg.charge_dyn("vector_fp", "_cost")
            return True
        if op == "vsll.vi":
            # numpy's uint32 << drops shifted-out bits like C, so the
            # reference's ``& 0xFFFFFFFF`` is an identity — elided.
            cg.need("vset")
            cg.emit(f"_np.left_shift(_sv[{ins.rs1}], {ins.imm}, "
                    f"out=_sv[{ins.rd}])")
            cg.charge_static("vector_int", lat.vector_int)
            return True
        if op == "vmv.v.i":
            cg.need("vset")
            cg.emit(f"_si[{ins.rd}][...] = {ins.imm}")
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
    backend = CompiledBackend(cpu)
    blocks: dict[int, tuple] = {}       # pc -> bound (fn, n, looping)
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
                block = blocks[pc] = backend.bind(program, pc)
            fn, bn, looping = block
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
            if looping:
                # Iterate inside the closure, capped so a full burst
                # stays strictly under the budget; a capped burst falls
                # back here and ultimately into the reference tail.
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

