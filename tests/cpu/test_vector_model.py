"""Every vector op, on both backends, against the RVV 1.0 model.

Hypothesis draws VL (0 to VLMAX), the op's registers from a pool of four
so that ``vd`` often aliases a source, their words, the memory the op
reads and the SSR stream.  Each case runs ``vsetvli`` to that VL and then
the op, on a bare core with an SSR and an IndexMAC unit, and every word
of every vector register, ``vl``, ``x`` and ``f`` must equal what
:mod:`tests.cpu.rvv_model` computes from the same start state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.indexmac import IndexMACUnit
from repro.accel.ssr import SSRMMR, SSRUnit
from repro.cpu import Cpu, CpuConfig
from repro.isa import assemble
from repro.memory import Bus, MemoryPort, Ram

from . import rvv_model as model

BACKENDS = ["reference", "compiled"]
VLMAX = 8
DATA = 0x100          # DATA_WORDS words the loads and gathers read
DATA_WORDS = 64
SSR_INDICES = 0x400   # the SSR stream's VLMAX element indices into DATA
POOL = (1, 2, 3, 31)  # the vector registers an op names

#: binary32 values of exponent -2..2 with a full significand (the drawn
#: integer is scrambled, so small draws do not give short ones): their
#: products and sums round, and a change in rounding shows.
ROUNDING = st.builds(
    lambda k, e, s: model.word(
        (-1) ** s * (1 + (k * 0x9E3779B1 & 0x7FFFFF) / 2**23) * 2.0 ** e),
    st.integers(0, 2**23 - 1), st.integers(-2, 2), st.integers(0, 1))
#: Register words: mostly such values, the rest raw bit patterns and the
#: edges (zeros, infinities, NaNs, subnormals).
WORDS = st.one_of(ROUNDING, ROUNDING, ROUNDING, st.integers(0, model.MASK),
                  st.floats(width=32).map(model.word))


def _rounding(seed: int) -> list[int]:
    """VLMAX values like ROUNDING's, from a seed."""
    rng = np.random.default_rng(seed)
    values = ((1 + rng.integers(0, 1 << 23, VLMAX) / 2**23)
              * 2.0 ** rng.integers(-2, 3, VLMAX)
              * rng.choice([-1.0, 1.0], VLMAX))
    return [model.word(value) for value in values]


#: A register's words: drawn one by one, or all such values.
REGISTER = st.one_of(st.lists(WORDS, min_size=VLMAX, max_size=VLMAX),
                     st.integers(0, 2**32 - 1).map(_rounding))
VREG = st.sampled_from(POOL)


def _background(r: int) -> list[int]:
    """Words of a register no op names: it must stay as it is."""
    return [(0x01010101 * r + i) & model.MASK for i in range(VLMAX)]


def _memory(seed: int) -> list[int]:
    """DATA_WORDS words, float values and raw bit patterns alternating."""
    rng = np.random.default_rng(seed)
    floats = (rng.standard_normal(DATA_WORDS) * 100).astype(np.float32)
    raw = rng.integers(0, 1 << 32, DATA_WORDS, dtype=np.uint32)
    words = np.where(np.arange(DATA_WORDS) % 2, raw, floats.view(np.uint32))
    return words.tolist()


@st.composite
def cases(draw, op: str):
    """``(start state, op text, model operands)`` for one *op*.  The
    registers are drawn word by word; memory comes from a drawn seed."""
    v = [_background(r) for r in range(32)]
    for r in POOL:
        v[r] = draw(REGISTER)
    state = {
        # The edges, VL = 0 and VL = VLMAX, each a third of the time.
        "vl": draw(st.one_of(st.just(0), st.just(VLMAX),
                             st.integers(1, VLMAX - 1))),
        "v": v,
        "f": [float(np.float32(k) / 4) for k in range(32)],
        "x": {11: DATA},
        "mem": _memory(draw(st.integers(0, 2**32 - 1))),
        "ssr": draw(st.lists(st.integers(0, DATA_WORDS - 1),
                             min_size=VLMAX, max_size=VLMAX)),
    }
    index = st.integers(0, DATA_WORDS - 1)
    vd, vs1, vs2 = draw(VREG), draw(VREG), draw(VREG)
    if op == "vsetvli":
        rd, rs1 = draw(st.sampled_from([0, 6])), draw(st.sampled_from([0, 12]))
        state["x"][12] = draw(st.one_of(st.integers(0, 2 * VLMAX),
                                        st.integers(0, model.MASK)))
        return state, f"vsetvli x{rd}, x{rs1}, e32, m1", (rd, rs1)
    if op == "vle32.v":
        state["x"][11] = DATA + 4 * draw(st.integers(0, DATA_WORDS - VLMAX))
        return state, f"vle32.v v{vd}, (a1)", (vd, 11)
    if op in ("vluxei32.v", "vlpidx.v", "vfmacidx"):
        # The index source holds in-range byte offsets or element indices.
        scale = 4 if op == "vluxei32.v" else 1
        v[vs2] = [scale * k for k in draw(st.lists(index, min_size=VLMAX,
                                                   max_size=VLMAX))]
        if op == "vfmacidx":
            return (state, f"vfmacidx v{vd}, (a1), v{vs2}, v{vs1}",
                    (vd, 11, vs2, vs1))
        return state, f"{op} v{vd}, (a1), v{vs2}", (vd, 11, vs2)
    if op in ("vfmacc.vv", "vfredosum.vs"):
        return state, f"{op} v{vd}, v{vs1}, v{vs2}", (vd, vs1, vs2)
    if op == "vsll.vi":
        uimm = draw(st.integers(0, 31))
        return state, f"vsll.vi v{vd}, v{vs2}, {uimm}", (vd, vs2, uimm)
    if op == "vmv.v.i":
        simm = draw(st.integers(-16, 15))
        return state, f"vmv.v.i v{vd}, {simm}", (vd, simm)
    if op == "vfmv.f.s":
        return state, f"vfmv.f.s f7, v{vs2}", (7, vs2)
    if op == "vfmv.s.f":
        state["f"][7] = float(model.f32(draw(WORDS)))
        return state, f"vfmv.s.f v{vd}, f7", (vd, 7)
    assert op == "vssrpop.v"
    return state, f"vssrpop.v v{vd}, 0", (vd,)


def _simulate(backend: str, state: dict, text: str) -> Cpu:
    ram = Ram(1 << 12)
    bus = Bus(ram, MemoryPort(latency=2))
    cpu = Cpu(bus, CpuConfig(backend=backend, vlmax=VLMAX))
    ram.write_array(DATA, np.array(state["mem"], dtype=np.uint32))
    ram.write_array(SSR_INDICES, np.array(state["ssr"], dtype=np.int32))
    cpu.ssr = SSRUnit(ram, bus.mem)
    cpu.ssr.regs.update(idx_base=SSR_INDICES, val_base=DATA, length=VLMAX)
    cpu.ssr.write_word(SSRMMR.START, 1, 0)
    cpu.indexmac = IndexMACUnit()
    for reg, words in zip(cpu.v, state["v"]):
        reg[:] = words
    cpu.f[:] = state["f"]
    cpu.x[10] = state["vl"]
    for r, value in state["x"].items():
        cpu.x[r] = value
    cpu.run(assemble(f"vsetvli t0, a0, e32, m1\n{text}\nhalt"))
    return cpu


def _model(state: dict, op: str, operands: tuple) -> model.Machine:
    x = [0] * 32
    x[10] = state["vl"]
    for r, value in state["x"].items():
        x[r] = value
    mem = state["mem"]
    m = model.Machine(
        vlmax=VLMAX, vl=VLMAX, x=x, f=list(state["f"]),
        v=[list(words) for words in state["v"]],
        load=lambda addr: mem[(addr - DATA) // 4],
        stream=[mem[k] for k in state["ssr"]],
    )
    model.vsetvli(m, 5, 10)
    model.OPS[op](m, *operands)
    return m


def _same_words(got: list[int], want: list[int]) -> bool:
    """Equal words, a NaN matching any NaN (the host's payloads)."""
    return all(g == w or (np.isnan(model.f32(g)) and np.isnan(model.f32(w)))
               for g, w in zip(got, want, strict=True))


@pytest.mark.parametrize("op", sorted(model.OPS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_register_word_matches_the_model(op, data):
    state, text, operands = data.draw(cases(op))
    with np.errstate(all="ignore"):
        want = _model(state, op, operands)
        for backend in BACKENDS:
            cpu = _simulate(backend, state, text)
            assert cpu.vl == want.vl, backend
            assert [r & model.MASK for r in cpu.x] == want.x, backend
            assert _same_words([model.word(f) for f in cpu.f],
                               [model.word(f) for f in want.f]), backend
            for r, (reg, words) in enumerate(zip(cpu.v, want.v)):
                assert _same_words(reg.tolist(), words), (backend, r)


def test_the_model_covers_every_vector_op():
    from repro.isa import SYNTAX

    vector = {op for op in SYNTAX if op.startswith("v")}
    assert set(model.OPS) == vector and len(vector) == 12
