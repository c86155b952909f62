"""A model of the vector ops the kernels run, written from RVV 1.0.

The RISC-V "V" extension 1.0 at SEW = 32 and LMUL = 1, unmasked, with
the tail left undisturbed: an op writes elements ``0 .. vl-1`` of its
destination and no other word of any register.  The model holds element
values and which elements change, not cycles.  It is written from the
specification's text, element by element, and reads none of the
simulator's code, so the tests can hold both backends to it.

Where the specification leaves a choice, the model takes the one the
simulated core documents:

* ``vsetvli`` sets ``vl = min(AVL, VLMAX)`` (allowed for every AVL);
* ``vfmacc.vv`` and ``vfmacidx`` round the product to binary32 before
  the add (the core's vector unit is not fused; RVV 1.0 fuses
  ``vfmacc.vv``);
* a NaN result carries the host's payload, where RVV 1.0 writes the
  canonical NaN, so tests match a NaN with any NaN.

The three front-end ops are not RVV: ``vssrpop.v`` pops ``vl`` elements
of a stream (2011.08070), and the IndexMAC pair (2311.07241) gathers at
``base + 4 * index`` with element indices, ``vfmacidx`` adding the
gathered words times ``vs3`` to ``vd``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

MASK = 0xFFFFFFFF


def f32(word: int) -> np.float32:
    """The binary32 value of a 32-bit word."""
    return np.array([word], dtype=np.uint32).view(np.float32)[0]


def word(value) -> int:
    """The 32-bit word of a value rounded to binary32."""
    return int(np.array([value], dtype=np.float32).view(np.uint32)[0])


def i32(word_: int) -> int:
    """A 32-bit word read as a signed integer."""
    return word_ - (1 << 32) if word_ & 0x80000000 else word_


@dataclass
class Machine:
    """Architectural state the vector ops read and write."""

    vlmax: int
    vl: int
    x: list[int]                      # unsigned 32-bit words
    f: list[float]                    # binary32 values
    v: list[list[int]]                # 32 registers of vlmax words
    load: Callable[[int], int]        # the word at a byte address
    stream: list[int] = field(default_factory=list)   # SSR words, next first


def vsetvli(m: Machine, rd: int, rs1: int) -> None:
    if rs1 != 0:
        avl = m.x[rs1]
    elif rd != 0:
        avl = MASK            # AVL = ~0: VLMAX
    else:
        avl = m.vl            # keep vl, only vtype may change
    m.vl = min(avl, m.vlmax)
    if rd:
        m.x[rd] = m.vl


def vle32_v(m: Machine, vd: int, rs1: int) -> None:
    base = m.x[rs1]
    loaded = [m.load((base + 4 * i) & MASK) for i in range(m.vl)]
    m.v[vd][:m.vl] = loaded


def vluxei32_v(m: Machine, vd: int, rs1: int, vs2: int) -> None:
    # Unsigned byte offsets; every index is read before vd is written.
    base = m.x[rs1]
    offsets = m.v[vs2][:m.vl]
    m.v[vd][:m.vl] = [m.load((base + o) & MASK) for o in offsets]


def vfmacc_vv(m: Machine, vd: int, vs1: int, vs2: int) -> None:
    out = []
    for i in range(m.vl):
        product = f32(m.v[vs1][i]) * f32(m.v[vs2][i])
        out.append(word(product + f32(m.v[vd][i])))
    m.v[vd][:m.vl] = out


def vfredosum_vs(m: Machine, vd: int, vs2: int, vs1: int) -> None:
    # Ordered: ((vs1[0] + vs2[0]) + vs2[1]) + ..., rounded at each step.
    # Only element 0 is a result; at vl = 0 nothing is written.
    if m.vl == 0:
        return
    acc = f32(m.v[vs1][0])
    for i in range(m.vl):
        acc = acc + f32(m.v[vs2][i])
    m.v[vd][0] = word(acc)


def vsll_vi(m: Machine, vd: int, vs2: int, uimm: int) -> None:
    shift = uimm & 31                 # the low lg2(SEW) bits
    m.v[vd][:m.vl] = [(w << shift) & MASK for w in m.v[vs2][:m.vl]]


def vmv_v_i(m: Machine, vd: int, simm: int) -> None:
    m.v[vd][:m.vl] = [simm & MASK] * m.vl


def vfmv_f_s(m: Machine, rd: int, vs2: int) -> None:
    # Reads element 0 even at vl = 0.
    m.f[rd] = float(f32(m.v[vs2][0]))


def vfmv_s_f(m: Machine, vd: int, rs1: int) -> None:
    # Writes element 0 only when vl > 0.
    if m.vl:
        m.v[vd][0] = word(m.f[rs1])


def vssrpop_v(m: Machine, vd: int) -> None:
    popped, m.stream = m.stream[:m.vl], m.stream[m.vl:]
    m.v[vd][:m.vl] = popped


def _indexed(m: Machine, rs1: int, vs2: int) -> list[int]:
    base = m.x[rs1]
    return [m.load((base + 4 * i32(k)) & MASK) for k in m.v[vs2][:m.vl]]


def vlpidx_v(m: Machine, vd: int, rs1: int, vs2: int) -> None:
    m.v[vd][:m.vl] = _indexed(m, rs1, vs2)


def vfmacidx(m: Machine, vd: int, rs1: int, vs2: int, vs3: int) -> None:
    gathered = _indexed(m, rs1, vs2)
    out = []
    for i, g in enumerate(gathered):
        product = f32(g) * f32(m.v[vs3][i])
        out.append(word(product + f32(m.v[vd][i])))
    m.v[vd][:m.vl] = out


#: Mnemonic -> model, operands in the assembly order of each mnemonic.
OPS: dict[str, Callable] = {
    "vsetvli": vsetvli,
    "vle32.v": vle32_v,
    "vluxei32.v": vluxei32_v,
    "vfmacc.vv": vfmacc_vv,
    "vfredosum.vs": vfredosum_vs,
    "vsll.vi": vsll_vi,
    "vmv.v.i": vmv_v_i,
    "vfmv.f.s": vfmv_f_s,
    "vfmv.s.f": vfmv_s_f,
    "vssrpop.v": vssrpop_v,
    "vlpidx.v": vlpidx_v,
    "vfmacidx": vfmacidx,
}
