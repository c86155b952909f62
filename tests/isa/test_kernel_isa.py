"""CI guard: the simulated ISA is exactly what the kernels assemble.

Each mnemonic costs an operand pattern, a timing class, a reference
handler and a compiled emitter that must stay bit-identical to it.  The
set is the one that the kernel table (every stream pinned in
``tests/kernels/test_kernel_streams.py``) and the helper-core firmware
assemble, so an op that no kernel runs fails here instead of creeping
back in.
"""

import re

import pytest

from repro.cpu import CompiledBackend, Cpu
from repro.isa import ALL_MNEMONICS, INSTRUCTION_CLASS, SYNTAX, AssemblerError, assemble
from repro.kernels import FIRMWARES
from repro.memory import Bus, MemoryPort, Ram
from tests.kernels.test_kernel_streams import STREAMS, SYMBOLS, _text

#: The accelerator front-end ops: the only ones the compiled backend
#: runs through the reference handler (its escape hatch).
FRONT_END_OPS = {"fssrpop", "vssrpop.v", "vlpidx.v", "vfmacidx"}


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


def test_isa_is_the_kernel_table():
    kernel_ops = set(_kernel_instructions())
    assert set(SYNTAX) == set(INSTRUCTION_CLASS) == set(_cpu()._dispatch)
    assert set(SYNTAX) == kernel_ops
    assert ALL_MNEMONICS == kernel_ops
    assert len(ALL_MNEMONICS) == 35


def test_compiled_backend_escapes_only_front_end_ops():
    backend = CompiledBackend(_cpu())
    escaping = {op for op, ins in _kernel_instructions().items()
                if backend._translate([ins], 0).escapes}
    assert escaping == FRONT_END_OPS


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
