"""Property-based assembler tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import assemble
from repro.isa.instructions import SYNTAX
from repro.isa.registers import xreg_name

XREGS = st.integers(0, 31).map(xreg_name)
IMMS = st.integers(-(2**31), 2**31 - 1)
SMALL_IMMS = st.integers(-2048, 2047)
SHIFTS = st.integers(0, 31)

R3_OPS = sorted(op for op, pat in SYNTAX.items() if pat == "r3")
I2_OPS = sorted(op for op, pat in SYNTAX.items() if pat == "i2")


@settings(max_examples=80, deadline=None)
@given(op=st.sampled_from(R3_OPS), rd=XREGS, rs1=XREGS, rs2=XREGS)
def test_r_type_round_trip(op, rd, rs1, rs2):
    """Any R-type line parses and carries its operands through."""
    from repro.isa.registers import parse_xreg

    prog = assemble(f"{op} {rd}, {rs1}, {rs2}")
    ins = prog.instructions[0]
    assert ins.op == op
    assert ins.rd == parse_xreg(rd)
    assert ins.rs1 == parse_xreg(rs1)
    assert ins.rs2 == parse_xreg(rs2)


@settings(max_examples=80, deadline=None)
@given(op=st.sampled_from(I2_OPS), rd=XREGS, rs1=XREGS, imm=SMALL_IMMS)
def test_i_type_round_trip(op, rd, rs1, imm):
    prog = assemble(f"{op} {rd}, {rs1}, {imm}")
    assert prog.instructions[0].imm == imm


@settings(max_examples=60, deadline=None)
@given(imm=IMMS)
def test_li_accepts_any_32bit_immediate(imm):
    prog = assemble(f"li a0, {imm}")
    assert prog.instructions[0].imm == imm


@settings(max_examples=60, deadline=None)
@given(offset=st.integers(-2048, 2047), rd=XREGS, base=XREGS)
def test_load_offsets(offset, rd, base):
    prog = assemble(f"lw {rd}, {offset}({base})")
    assert prog.instructions[0].imm == offset


@settings(max_examples=40, deadline=None)
@given(labels=st.lists(
    st.text(alphabet="abcdefgh_", min_size=2, max_size=8),
    min_size=1, max_size=5, unique=True,
))
def test_label_targets_resolve(labels):
    """A chain of jumps through unique labels always resolves."""
    lines = []
    for label in labels:
        lines.append(f"j {label}")
    for label in labels:
        lines.append(f"{label}: addi x0, x0, 0")
    prog = assemble("\n".join(lines))
    for i, label in enumerate(labels):
        assert prog.instructions[i].target == prog.labels[label]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 30))
def test_whitespace_and_comments_are_inert(n):
    body = "add a0, a1, a2"
    noisy = "\n".join(
        ["   " + body + "   # comment %d" % i for i in range(n)]
    )
    clean = "\n".join([body] * n)
    a = assemble(noisy)
    b = assemble(clean)
    assert len(a) == len(b) == n
    assert [i.op for i in a.instructions] == [i.op for i in b.instructions]


@settings(max_examples=30, deadline=None)
@given(shift=SHIFTS)
def test_shift_immediates_in_range(shift):
    prog = assemble(f"slli a0, a1, {shift}")
    assert prog.instructions[0].imm == shift
