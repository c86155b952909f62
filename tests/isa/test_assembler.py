"""Assembler tests: parsing, labels, pseudo-instructions, symbols, errors."""

import pytest

from repro.isa import AssemblerError, assemble


def first(text, **kw):
    return assemble(text, **kw).instructions[0]


class TestBasicParsing:
    def test_r_type(self):
        ins = first("add a0, a1, a2")
        assert (ins.op, ins.rd, ins.rs1, ins.rs2) == ("add", 10, 11, 12)

    def test_i_type(self):
        ins = first("addi t0, t1, -42")
        assert (ins.op, ins.rd, ins.rs1, ins.imm) == ("addi", 5, 6, -42)

    def test_hex_immediate(self):
        assert first("li a0, 0xff").imm == 255

    def test_load(self):
        ins = first("lw a0, 8(sp)")
        assert (ins.op, ins.rd, ins.rs1, ins.imm) == ("lw", 10, 2, 8)

    def test_load_no_offset(self):
        ins = first("lw a0, (sp)")
        assert ins.imm == 0

    def test_store(self):
        ins = first("sw a1, -4(s0)")
        assert (ins.op, ins.rs2, ins.rs1, ins.imm) == ("sw", 11, 8, -4)

    def test_float_load_store(self):
        ins = first("flw fa0, 0(a0)")
        assert (ins.op, ins.rd, ins.rs1) == ("flw", 10, 10)
        ins = first("fsw ft1, 4(a0)")
        assert (ins.op, ins.rs2) == ("fsw", 1)

    def test_fmadd(self):
        ins = first("fmadd.s fa0, fa1, fa2, fa3")
        assert (ins.rd, ins.rs1, ins.rs2, ins.rs3) == (10, 11, 12, 13)

    def test_comments_stripped(self):
        prog = assemble("add a0, a1, a2 # comment\n// full line\n; also\nsub a0, a0, a1")
        assert [i.op for i in prog.instructions] == ["add", "sub"]

    def test_blank_lines_ignored(self):
        prog = assemble("\n\nadd a0, a1, a2\n\n")
        assert len(prog) == 1

    def test_case_insensitive_mnemonics(self):
        assert first("ADD a0, a1, a2").op == "add"


class TestLabels:
    def test_branch_target_resolution(self):
        prog = assemble("""
        loop:
            addi a0, a0, 1
            bne a0, a1, loop
        """)
        assert prog.instructions[1].target == 0
        assert prog.labels["loop"] == 0

    def test_forward_reference(self):
        prog = assemble("""
            beq a0, a1, end
            addi a0, a0, 1
        end:
            halt
        """)
        assert prog.instructions[0].target == 2

    def test_label_on_same_line(self):
        prog = assemble("start: addi a0, a0, 1")
        assert prog.labels["start"] == 0

    def test_duplicate_label(self):
        with pytest.raises(AssemblerError, match="duplicate"):
            assemble("x:\nx:\nhalt")

    def test_undefined_label(self):
        with pytest.raises(AssemblerError, match="undefined label"):
            assemble("j nowhere")

    def test_jal_forms(self):
        prog = assemble("target:\njal target\njal ra, target\njal x0, target")
        assert prog.instructions[0].rd == 1
        assert prog.instructions[1].rd == 1
        assert prog.instructions[2].rd == 0


class TestPseudoInstructions:
    @pytest.mark.parametrize("src,op,check", [
        ("mv a0, a1", "addi", lambda i: i.rd == 10 and i.rs1 == 11 and i.imm == 0),
    ])
    def test_expansion(self, src, op, check):
        ins = first(src)
        assert ins.op == op
        assert check(ins)

    def test_branch_pseudos(self):
        prog = assemble("""
        l:
            beqz a0, l
            bnez a0, l
        """)
        ops = [i.op for i in prog.instructions]
        assert ops == ["beq", "bne"]

    def test_j(self):
        prog = assemble("f:\nj f")
        assert prog.instructions[0].op == "jal" and prog.instructions[0].rd == 0


class TestSymbols:
    def test_la_symbol(self):
        ins = first("la a0, my_array", symbols={"my_array": 0x1000})
        assert ins.imm == 0x1000

    def test_li_symbol(self):
        ins = first("li a0, count", symbols={"count": 42})
        assert ins.imm == 42

    def test_symbolic_load_offset(self):
        ins = first("lw a0, off(a1)", symbols={"off": 16})
        assert ins.imm == 16

    def test_unresolved_symbol(self):
        with pytest.raises(AssemblerError, match="cannot resolve"):
            assemble("la a0, missing")


class TestVectorSyntax:
    def test_vsetvli(self):
        ins = first("vsetvli t0, a0, e32, m1, ta, ma")
        assert (ins.op, ins.rd, ins.rs1) == ("vsetvli", 5, 10)

    def test_vsetvli_rejects_e64(self):
        with pytest.raises(AssemblerError, match="SEW=32"):
            assemble("vsetvli t0, a0, e64, m1")

    def test_vle(self):
        ins = first("vle32.v v1, (a0)")
        assert (ins.rd, ins.rs1) == (1, 10)

    def test_vle_offset_rejected(self):
        with pytest.raises(AssemblerError, match="plain"):
            assemble("vle32.v v1, 4(a0)")

    def test_gather(self):
        ins = first("vluxei32.v v2, (a0), v3")
        assert (ins.rd, ins.rs1, ins.rs2) == (2, 10, 3)

    def test_vv_ops(self):
        ins = first("vfmacc.vv v0, v1, v2")
        assert (ins.rd, ins.rs1, ins.rs2) == (0, 1, 2)

    def test_reduction(self):
        ins = first("vfredosum.vs v4, v0, v4")
        assert (ins.rd, ins.rs1, ins.rs2) == (4, 0, 4)

    def test_vi(self):
        assert first("vsll.vi v1, v2, 2").imm == 2

    def test_moves(self):
        assert first("vfmv.f.s fa0, v3").rd == 10
        assert first("vmv.v.i v1, 0").imm == 0


class TestErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError, match="unknown mnemonic"):
            assemble("frobnicate a0, a1")

    def test_wrong_operand_count(self):
        with pytest.raises(AssemblerError, match="expects 3"):
            assemble("add a0, a1")

    def test_bad_register(self):
        with pytest.raises(AssemblerError, match="register"):
            assemble("add a0, a1, q9")

    def test_shift_amount_range(self):
        with pytest.raises(AssemblerError, match="shift amount"):
            assemble("slli a0, a0, 33")

    def test_error_reports_line_number(self):
        with pytest.raises(AssemblerError, match="line 2"):
            assemble("addi x0, x0, 0\nbadop x, y")

    @pytest.mark.parametrize("line,message", [
        ("mv a0", "mv expects 2 operands, got 1"),
        ("j", "j expects 1 operands, got 0"),
        ("beqz a0", "beqz expects 2 operands, got 1"),
        ("bnez a0, a1, l", "bnez expects 2 operands, got 3"),
    ])
    def test_pseudo_op_error_names_its_line(self, line, message):
        with pytest.raises(AssemblerError) as err:
            assemble(f"li a0, 1\n{line}")
        assert err.value.line_no == 2
        assert str(err.value) == f"{message} (line 2: {line!r})"


class TestSourceMetadata:
    def test_source_lines_recorded(self):
        prog = assemble("addi x0, x0, 0\nadd a0, a1, a2")
        assert prog.instructions[0].source_line == 1
        assert prog.instructions[1].source_line == 2

    def test_text_preserved(self):
        prog = assemble("add a0, a1, a2")
        assert "add" in prog.instructions[0].text
