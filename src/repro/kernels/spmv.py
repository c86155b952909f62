"""SpMV kernels: sparse matrix x dense vector (Algorithm 1 of the paper).

One builder pair per accelerator front-end, mirroring the bake-off:

* :func:`spmv_baseline_scalar` — Algorithm 1 as plain scalar code; the
  indirect access ``v[cols[k]]`` is two dependent loads per non-zero.
* :func:`spmv_baseline_vector` — the vectorised baseline: unit-stride
  loads of ``cols``/``vals`` and an indexed-gather (``vluxei32.v``) of the
  vector, the pattern Section 2 calls metadata overhead.
* :func:`spmv_hht_scalar` / :func:`spmv_hht_vector` — the HHT versions:
  the accelerator is programmed through its MMRs and streams the gathered
  vector values through the VVAL FIFO; the CPU keeps the unit-stride
  ``vals`` loads (no metadata involved) and the multiply-accumulates.
* :func:`spmv_ssr_scalar` / :func:`spmv_ssr_vector` — the SSR versions:
  the stream unit is programmed once, then ``fssrpop``/``vssrpop.v``
  replace the explicit gather of ``v[cols[k]]``.
* :func:`spmv_indexmac_vector` — the IndexMAC version: ``vfmacidx``
  fuses the gather and the multiply-accumulate (vector CPUs only).

All kernels produce ``y[i]`` per row and honour arbitrary row lengths
(including empty rows).  :func:`spmv_kernel` dispatches by accelerator
name.
"""

from __future__ import annotations

from ..core.config import HHTMode
from .common import kernel_header, program_hht, program_ssr


def spmv_baseline_scalar() -> str:
    """CSR SpMV, scalar baseline (Algorithm 1)."""
    return kernel_header("SpMV scalar baseline (Algorithm 1)") + """
    li   s0, m_num_rows
    la   s1, m_rows
    la   a2, m_cols
    la   a3, m_vals
    la   s4, v
    la   s5, y
    beqz s0, done
    li   t0, 0              # i
    lw   t2, 0(s1)          # k = rows[0]
row_loop:
    lw   t3, 4(s1)          # rows[i+1]
    fmv.w.x fa0, zero       # s = 0
    bge  t2, t3, store
elem_loop:
    lw   t6, 0(a2)          # col = cols[k]            [meta]
    slli t6, t6, 2          # index -> byte offset     [meta]
    add  t6, t6, s4         # address of v[col]        [meta]
    flw  fa1, 0(t6)         # v[col]  (indirect access) [meta]
    flw  fa2, 0(a3)         # vals[k]
    fmadd.s fa0, fa1, fa2, fa0
    addi a2, a2, 4
    addi a3, a3, 4
    addi t2, t2, 1
    blt  t2, t3, elem_loop
store:
    fsw  fa0, 0(s5)
    addi s5, s5, 4
    addi s1, s1, 4
    addi t0, t0, 1
    blt  t0, s0, row_loop
done:
    halt
"""


def spmv_baseline_vector() -> str:
    """CSR SpMV with RISC-V vector instructions + indexed gather."""
    return kernel_header("SpMV vector baseline (indexed gather)") + """
    li   s0, m_num_rows
    la   s1, m_rows
    la   a2, m_cols
    la   a3, m_vals
    la   s4, v
    la   s5, y
    beqz s0, done
    li   t0, 0              # i
    lw   t2, 0(s1)          # rows[i]
row_loop:
    lw   t3, 4(s1)          # rows[i+1]
    sub  t4, t3, t2         # remaining non-zeros in the row
    vsetvli t5, x0, e32, m1
    vmv.v.i v0, 0           # lane accumulators
    beqz t4, reduce
chunk_loop:
    vsetvli t5, t4, e32, m1
    vle32.v v1, (a2)        # column indices           [meta]
    vsll.vi v1, v1, 2       # -> byte offsets          [meta]
    vluxei32.v v2, (s4), v1 # gather v[cols[...]]      [meta]
    vle32.v v3, (a3)        # matrix values
    vfmacc.vv v0, v2, v3
    slli t6, t5, 2
    add  a2, a2, t6
    add  a3, a3, t6
    sub  t4, t4, t5
    bnez t4, chunk_loop
reduce:
    vsetvli t5, x0, e32, m1
    fmv.w.x ft0, zero
    vfmv.s.f v4, ft0
    vfredosum.vs v4, v0, v4
    vfmv.f.s fa0, v4
    fsw  fa0, 0(s5)
    addi s5, s5, 4
    addi s1, s1, 4
    mv   t2, t3
    addi t0, t0, 1
    blt  t0, s0, row_loop
done:
    halt
"""


def spmv_hht_scalar() -> str:
    """SpMV with the HHT supplying gathered vector values, scalar CPU."""
    return kernel_header("SpMV with HHT, scalar CPU") + program_hht(
        HHTMode.SPMV, sparse_vector=False
    ) + """
    li   s0, m_num_rows
    la   s1, m_rows
    la   a3, m_vals
    la   a4, hht_vval_fifo
    la   s5, y
    beqz s0, done
    li   t0, 0
    lw   t2, 0(s1)
row_loop:
    lw   t3, 4(s1)
    fmv.w.x fa0, zero
    bge  t2, t3, store
elem_loop:
    flw  fa1, 0(a4)         # gathered v value from the HHT FIFO
    flw  fa2, 0(a3)         # vals[k]
    fmadd.s fa0, fa1, fa2, fa0
    addi a3, a3, 4
    addi t2, t2, 1
    blt  t2, t3, elem_loop
store:
    fsw  fa0, 0(s5)
    addi s5, s5, 4
    addi s1, s1, 4
    addi t0, t0, 1
    blt  t0, s0, row_loop
done:
    halt
"""


def spmv_hht_vector() -> str:
    """SpMV with the HHT supplying gathered vector values, vector CPU."""
    return kernel_header("SpMV with HHT, vector CPU") + program_hht(
        HHTMode.SPMV, sparse_vector=False
    ) + """
    li   s0, m_num_rows
    la   s1, m_rows
    la   a3, m_vals
    la   a4, hht_vval_fifo
    la   s5, y
    beqz s0, done
    li   t0, 0
    lw   t2, 0(s1)
row_loop:
    lw   t3, 4(s1)
    sub  t4, t3, t2
    vsetvli t5, x0, e32, m1
    vmv.v.i v0, 0
    beqz t4, reduce
chunk_loop:
    vsetvli t5, t4, e32, m1
    vle32.v v3, (a3)        # matrix values (unit-stride, no metadata)
    vle32.v v2, (a4)        # gathered vector values from the HHT
    vfmacc.vv v0, v2, v3
    slli t6, t5, 2
    add  a3, a3, t6
    sub  t4, t4, t5
    bnez t4, chunk_loop
reduce:
    vsetvli t5, x0, e32, m1
    fmv.w.x ft0, zero
    vfmv.s.f v4, ft0
    vfredosum.vs v4, v0, v4
    vfmv.f.s fa0, v4
    fsw  fa0, 0(s5)
    addi s5, s5, 4
    addi s1, s1, 4
    mv   t2, t3
    addi t0, t0, 1
    blt  t0, s0, row_loop
done:
    halt
"""


def spmv_ssr_scalar() -> str:
    """SpMV with the SSR stream supplying v[cols[k]], scalar CPU."""
    return kernel_header("SpMV with SSR streams, scalar CPU") + program_ssr(
        indirect=False
    ) + """
    li   s0, m_num_rows
    la   s1, m_rows
    la   a3, m_vals
    la   s5, y
    beqz s0, done
    li   t0, 0
    lw   t2, 0(s1)
row_loop:
    lw   t3, 4(s1)
    fmv.w.x fa0, zero
    bge  t2, t3, store
elem_loop:
    fssrpop fa1, 0          # v[cols[k]] popped from the stream
    flw  fa2, 0(a3)         # vals[k]
    fmadd.s fa0, fa1, fa2, fa0
    addi a3, a3, 4
    addi t2, t2, 1
    blt  t2, t3, elem_loop
store:
    fsw  fa0, 0(s5)
    addi s5, s5, 4
    addi s1, s1, 4
    addi t0, t0, 1
    blt  t0, s0, row_loop
done:
    halt
"""


def spmv_ssr_vector() -> str:
    """SpMV with the SSR stream supplying v[cols[k]], vector CPU."""
    return kernel_header("SpMV with SSR streams, vector CPU") + program_ssr(
        indirect=False
    ) + """
    li   s0, m_num_rows
    la   s1, m_rows
    la   a3, m_vals
    la   s5, y
    beqz s0, done
    li   t0, 0
    lw   t2, 0(s1)
row_loop:
    lw   t3, 4(s1)
    sub  t4, t3, t2
    vsetvli t5, x0, e32, m1
    vmv.v.i v0, 0
    beqz t4, reduce
chunk_loop:
    vsetvli t5, t4, e32, m1
    vle32.v v3, (a3)        # matrix values (unit-stride, no metadata)
    vssrpop.v v2, 0         # streamed v[cols[...]] from the SSR
    vfmacc.vv v0, v2, v3
    slli t6, t5, 2
    add  a3, a3, t6
    sub  t4, t4, t5
    bnez t4, chunk_loop
reduce:
    vsetvli t5, x0, e32, m1
    fmv.w.x ft0, zero
    vfmv.s.f v4, ft0
    vfredosum.vs v4, v0, v4
    vfmv.f.s fa0, v4
    fsw  fa0, 0(s5)
    addi s5, s5, 4
    addi s1, s1, 4
    mv   t2, t3
    addi t0, t0, 1
    blt  t0, s0, row_loop
done:
    halt
"""


def spmv_indexmac_vector() -> str:
    """SpMV with the fused indexed-MAC vector instruction."""
    return kernel_header("SpMV with IndexMAC (fused gather + MAC)") + """
    li   s0, m_num_rows
    la   s1, m_rows
    la   a2, m_cols
    la   a3, m_vals
    la   s4, v
    la   s5, y
    beqz s0, done
    li   t0, 0              # i
    lw   t2, 0(s1)          # rows[i]
row_loop:
    lw   t3, 4(s1)          # rows[i+1]
    sub  t4, t3, t2         # remaining non-zeros in the row
    vsetvli t5, x0, e32, m1
    vmv.v.i v0, 0           # lane accumulators
    beqz t4, reduce
chunk_loop:
    vsetvli t5, t4, e32, m1
    vle32.v v1, (a2)        # column indices           [meta]
    vle32.v v3, (a3)        # matrix values
    vfmacidx v0, (s4), v1, v3   # v0 += v[cols[...]] * vals (fused)
    slli t6, t5, 2
    add  a2, a2, t6
    add  a3, a3, t6
    sub  t4, t4, t5
    bnez t4, chunk_loop
reduce:
    vsetvli t5, x0, e32, m1
    fmv.w.x ft0, zero
    vfmv.s.f v4, ft0
    vfredosum.vs v4, v0, v4
    vfmv.f.s fa0, v4
    fsw  fa0, 0(s5)
    addi s5, s5, 4
    addi s1, s1, 4
    mv   t2, t3
    addi t0, t0, 1
    blt  t0, s0, row_loop
done:
    halt
"""


#: accel name -> (scalar builder, vector builder); None = unsupported.
_VARIANTS = {
    None: (spmv_baseline_scalar, spmv_baseline_vector),
    "hht": (spmv_hht_scalar, spmv_hht_vector),
    "ssr": (spmv_ssr_scalar, spmv_ssr_vector),
    "indexmac": (None, spmv_indexmac_vector),
}


def spmv_kernel(*, accel: str | None = None, vector: bool) -> str:
    """Dispatch helper used by the experiment harness.

    ``accel`` selects the front-end variant by name (``"hht"``,
    ``"ssr"``, ``"indexmac"``, or None for the pure-CPU baseline).
    """
    try:
        scalar_fn, vector_fn = _VARIANTS[accel]
    except KeyError:
        known = ", ".join(repr(k) for k in _VARIANTS)
        raise ValueError(
            f"unknown accelerator {accel!r} for SpMV (known: {known})"
        ) from None
    fn = vector_fn if vector else scalar_fn
    if fn is None:
        raise ValueError(
            f"the {accel!r} front-end has no {'vector' if vector else 'scalar'}"
            " SpMV variant"
        )
    return fn()
