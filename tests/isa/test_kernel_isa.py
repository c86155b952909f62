"""CI guard: the simulated ISA is exactly what the kernels assemble, and
each op has one definition.

Each mnemonic costs an operand pattern, a timing class and one emitter
in :mod:`repro.cpu.compiled`, which both backends run.  The set is the
one that the kernel table (every stream pinned in
``tests/kernels/test_kernel_streams.py``) and the helper-core firmware
assemble, so an op that no kernel runs fails here instead of creeping
back in, and so does a second definition of an op on the ``Cpu``.
"""

import builtins
import dis
import re

import pytest

from repro.cpu import CompiledBackend, Cpu, SimulationError
from repro.isa import ALL_MNEMONICS, INSTRUCTION_CLASS, SYNTAX, AssemblerError, Instr, assemble
from repro.kernels import FIRMWARES
from repro.memory import Bus, MemoryPort, Ram
from tests.kernels.test_kernel_streams import STREAMS, SYMBOLS, _text


def _kernel_instructions() -> dict:
    """First assembled instance of every op the kernels and firmware use."""
    programs = [assemble(_text(case), SYMBOLS) for case in sorted(STREAMS)]
    programs += [make() for make in FIRMWARES.values()]
    found = {}
    for program in programs:
        for ins in program.instructions:
            found.setdefault(ins.op, ins)
    return found


def _cpu() -> Cpu:
    return Cpu(Bus(Ram(1 << 12), MemoryPort()))


def _translates(backend: CompiledBackend, ins: Instr) -> bool:
    """True when *ins* has an emitter; an op without one fails at
    translation with a SimulationError that names it."""
    try:
        backend._translate([ins], 0)
    except SimulationError as exc:
        assert repr(ins.op) in str(exc)
        return False
    return True


def test_isa_is_the_kernel_table():
    kernel = _kernel_instructions()
    backend = CompiledBackend(_cpu())
    emitted = {op for op, ins in kernel.items() if _translates(backend, ins)}
    assert set(SYNTAX) == set(INSTRUCTION_CLASS) == emitted
    assert set(SYNTAX) == set(kernel)
    assert ALL_MNEMONICS == set(kernel)
    assert len(ALL_MNEMONICS) == 35


def test_no_op_escapes_and_an_op_without_emitter_fails():
    """Every op's translation reads only the names bound once per Cpu
    (its bus methods and helpers), so none calls out to per-op code."""
    backend = CompiledBackend(_cpu())
    bound = set(backend._globals) | set(dir(builtins))
    for ins in _kernel_instructions().values():
        code = backend._translate([ins], 0).code
        names = {i.argval for i in dis.get_instructions(code)
                 if i.opname == "LOAD_GLOBAL"}
        assert names <= bound, (ins.op, names - bound)
    for op in ("mul", "vse32.v", "fadd.s"):
        with pytest.raises(SimulationError, match=re.escape(repr(op))):
            backend._translate([Instr(op, rd=1, rs1=2, rs2=3)], 0)


def test_the_cpu_holds_state_not_instructions():
    """The emitters are the only definition of an op: the Cpu has no
    handlers, dispatch table or charging helper of its own."""
    cpu = _cpu()
    names = set(dir(cpu)) | set(vars(cpu))
    assert not {name for name in names if name.startswith("_op_")}
    assert not names & {"_dispatch", "_build_dispatch", "_charge"}


@pytest.mark.parametrize("line", [
    "mul a0, a0, a0", "vse32.v v1, (a0)", "lb a0, 0(a0)", "jalr ra, 0(a0)",
    "fadd.s fa0, fa0, fa0", "nop", "ret", "call f",
])
def test_removed_op_fails_at_assembly(line):
    op = re.escape(line.split()[0])
    with pytest.raises(AssemblerError,
                       match=rf"unknown mnemonic '{op}' \(line 2"):
        assemble("add a0, a0, a0\n" + line)


def test_removed_pseudo_reports_its_line():
    with pytest.raises(AssemblerError, match=r"unknown mnemonic 'ret' \(line 1"):
        assemble("ret")
