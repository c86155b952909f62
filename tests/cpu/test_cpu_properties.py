"""Property-based CPU semantics tests against reference arithmetic."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from .helpers import make_machine
from repro.isa import assemble

I32 = st.integers(-(2**31), 2**31 - 1)
U5 = st.integers(0, 31)


def run_binop(op, a, b):
    cpu, _ = make_machine()
    cpu.x[1], cpu.x[2] = a, b
    cpu.run(assemble(f"{op} x3, x1, x2\nhalt"))
    return cpu.x[3]


def ref32(value):
    return int(np.int32(np.int64(value) & 0xFFFFFFFF))


@settings(max_examples=120, deadline=None)
@given(a=I32, b=I32)
def test_add_matches_int32(a, b):
    assert run_binop("add", a, b) == ref32(a + b)


@settings(max_examples=120, deadline=None)
@given(a=I32, b=I32)
def test_sub_matches_int32(a, b):
    assert run_binop("sub", a, b) == ref32(a - b)


@settings(max_examples=100, deadline=None)
@given(a=I32, sh=U5)
def test_shifts_match_numpy(a, sh):
    cpu, _ = make_machine()
    cpu.x[1] = a
    cpu.run(assemble(f"slli x3, x1, {sh}\nsrli x4, x1, {sh}\nhalt"))
    assert cpu.x[3] == ref32(a << sh)
    assert cpu.x[4] == ref32((a & 0xFFFFFFFF) >> sh)


@settings(max_examples=80, deadline=None)
@given(value=st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_float_memory_round_trip(value):
    """fsw/flw preserve any binary32 value exactly."""
    cpu, ram = make_machine()
    ram.write_f32(0x100, value)
    cpu.run(assemble("flw fa0, 0x100(zero)\nfsw fa0, 0x104(zero)\nhalt"))
    assert ram.read_f32(0x104) == np.float32(value)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(
    st.floats(allow_nan=False, allow_infinity=False, width=32,
              min_value=-1e3, max_value=1e3),
    min_size=1, max_size=8,
))
def test_vector_reduction_matches_float32_sum(values):
    cpu, ram = make_machine()
    arr = np.asarray(values, dtype=np.float32)
    ram.write_array(0x200, arr)
    cpu.x[10] = arr.size
    cpu.run(assemble("""
        vsetvli t0, a0, e32, m1
        li a1, 0x200
        vle32.v v1, (a1)
        fmv.w.x ft0, zero
        vfmv.s.f v4, ft0
        vfredosum.vs v4, v1, v4
        vfmv.f.s fa0, v4
        fsw fa0, 0x300(zero)
        halt
    """))
    expected = np.float32(0.0)
    for v in arr:
        expected = np.float32(expected + v)
    assert ram.read_f32(0x300) == expected


@settings(max_examples=50, deadline=None)
@given(n=st.integers(0, 200))
def test_loop_cycle_count_is_affine(n):
    """A counted loop's cycles are an affine function of the trip count."""
    def cycles(k):
        cpu, _ = make_machine()
        cpu.x[10] = k
        cpu.run(assemble("""
            beqz a0, done
        loop:
            addi a0, a0, -1
            bnez a0, loop
        done:
            halt
        """))
        return cpu.cycle

    base = cycles(0)
    if n == 0:
        assert cycles(n) == base
    else:
        per_iter = cycles(2) - cycles(1)
        assert cycles(n) == cycles(1) + per_iter * (n - 1)
