"""Program container tests."""

from repro.isa import assemble, instruction_class, ALL_MNEMONICS, INSTRUCTION_CLASS, SYNTAX


SAMPLE = """
start:
    li a0, 5
loop:
    addi a0, a0, -1
    bnez a0, loop
    halt
"""


class TestProgram:
    def test_len_and_indexing(self):
        prog = assemble(SAMPLE)
        assert len(prog) == 4
        assert prog[0].op == "li"

    def test_entry_index(self):
        prog = assemble(SAMPLE)
        assert prog.entry_index() == 0
        assert prog.entry_index("loop") == 1


class TestInstructionTable:
    def test_every_mnemonic_has_a_class(self):
        assert set(SYNTAX) == set(INSTRUCTION_CLASS)

    def test_instruction_class_lookup(self):
        assert instruction_class("add") == "int_alu"
        assert instruction_class("vluxei32.v") == "vector_gather"
        assert instruction_class("fmadd.s") == "fp_fma"

    def test_all_mnemonics_frozen(self):
        # The exact set is pinned by tests/isa/test_kernel_isa.py.
        assert "add" in ALL_MNEMONICS
        assert ALL_MNEMONICS == frozenset(SYNTAX)
