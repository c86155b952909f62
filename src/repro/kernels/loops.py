"""SpMV and SpMSpV assembly kernels: two loops, one body per front-end.

The paper's HHT replaces only the metadata part of Algorithm 1's CSR
loop, and so do its rivals in :mod:`repro.accel`.  So every kernel here
is one of two loops around a front-end's part:

* :func:`_row_loop` is Algorithm 1's CSR row loop, scalar (one non-zero
  per iteration) or vector (one ``vsetvli`` chunk per iteration), over
  the whole matrix or one core's row block.  The CPU walks ``rows`` and
  ``vals`` itself; the front-end's body supplies each non-zero's vector
  operand, ``v[cols[k]]`` for SpMV or ``vpad[map[cols[k]]]`` for SpMSpV
  (``vpad[0]`` is 0.0, so a miss contributes zero without branching).
* :func:`_pair_loop` multiplies the (matrix value, vector value) pairs
  the HHT streams after a per-row count: SpMSpV variant 1, where the
  back-end merges the index lists, and the programmable HHT's consumer,
  which reads the same protocol whatever the firmware's format.

:func:`_program` writes the MMRs a front-end needs, START last.  A
front-end therefore adds data only: its MMR writes, its base registers
and its scalar and vector bodies, one table row per kernel
(:data:`_SPMV`, :data:`_SPMSPV`), so the bake-off's front-ends differ
in nothing else.

Kernels are assembly text against the symbol table of
:class:`repro.system.Soc`: the operands by the names the loader gave
them (``m_rows``, ``m_cols``, ``m_vals``, ``v``, ``y``, ``sv_map``,
``sv_vpad`` ...) and the MMRs and FIFOs by their ``hht_*``/``ssr_*``
symbols.  A ``[meta]`` comment tags an instruction as metadata overhead
for the profiler.

Multi-core kernels run real instruction streams: one section per core,
entered at label ``core{k}`` and ending in ``halt``, over the static row
block ``[core{k}_row_start, core{k}_row_end)`` that
:func:`partition_rows` defines.  Each core writes only its own ``y``
slice, so the result is bit-identical to the single-core kernel's.
Only the pure-CPU baselines run multi-core: the accelerators stream
through single-consumer FIFOs programmed by one core.
"""

from __future__ import annotations

from typing import NamedTuple

from ..core.config import HHTMode


def _program(start: str, writes) -> str:
    """Write each ``(MMR, value)``, then set the *start* MMR: START goes
    last because it triggers the hardware (Section 3.1)."""
    return "".join(
        f"    la t0, {reg}\n    li t1, {value}\n    sw t1, 0(t0)\n"
        for reg, value in (*writes, (start, 1))
    )


def program_hht(mode: HHTMode, *, sparse_vector: bool) -> str:
    """The HHT's MMR configuration + START sequence for *mode*."""
    if sparse_vector:
        vector = (("hht_v_nnz", "sv_nnz"), ("hht_v_idx_base", "sv_idx"),
                  ("hht_v_vals_base", "sv_vpad"), ("hht_v_map_base", "sv_map"))
    else:
        vector = (("hht_v_base", "v"),)
    return _program("hht_start", (
        ("hht_m_num_rows", "m_num_rows"), ("hht_m_num_cols", "m_num_cols"),
        ("hht_m_rows_base", "m_rows"), ("hht_m_cols_base", "m_cols"),
        ("hht_m_vals_base", "m_vals"), ("hht_elem_size", 4),
        ("hht_mode", int(mode)), *vector,
    ))


def program_ssr(*, indirect: bool) -> str:
    """The SSR stream configuration + START sequence.

    The stream walks the matrix column indices; ``indirect`` selects the
    SpMSpV shape (``vpad[map[col]]`` with the position map) over SpMV's
    direct ``v[col]`` lookups.
    """
    if indirect:
        lookup = (("ssr_val_base", "sv_vpad"), ("ssr_map_base", "sv_map"),
                  ("ssr_mode", 1))
    else:
        lookup = (("ssr_val_base", "v"), ("ssr_mode", 0))
    return _program("ssr_start", (
        ("ssr_idx_base", "m_cols"), ("ssr_length", "m_nnz"), *lookup,
    ))


class _Body(NamedTuple):
    """A front-end's part of the CSR row loop.

    The loop keeps its state in s0-s2, s5, t0-t5, a2, a3, fa0, fa2, v0
    and v4.  A body reads its own base registers and may clobber t6 and
    fa1 (scalar) or v1-v3, v6 and v7 (vector).
    """

    #: ``la`` lines for the base registers the bodies read.
    bases: str
    #: The bodies read ``cols[k]`` through ``a2``, which the loop walks.
    cols: bool
    #: Scalar CPU: load one non-zero's vector operand into ``fa1``; the
    #: loop multiplies it by ``vals[k]``.  None: no scalar form.
    scalar: str | None
    #: Vector CPU: one chunk's loads, multiply-accumulated into ``v0``.
    vector: str


#: The software baseline: the indirect access ``v[cols[k]]``, two
#: dependent loads per non-zero, or an indexed gather per chunk.
_GATHER = _Body("    la   s4, v\n", True, """\
    lw   t6, 0(a2)          # col = cols[k]            [meta]
    slli t6, t6, 2          # index -> byte offset     [meta]
    add  t6, t6, s4         # address of v[col]        [meta]
    flw  fa1, 0(t6)         # v[col]  (indirect access) [meta]
""", """\
    vle32.v v1, (a2)        # column indices           [meta]
    vsll.vi v1, v1, 2       # -> byte offsets          [meta]
    vluxei32.v v2, (s4), v1 # gather v[cols[...]]      [meta]
    vle32.v v3, (a3)        # matrix values
    vfmacc.vv v0, v2, v3
""")

#: The SpMSpV baseline: two levels of indirection, pos = map[col] and
#: then vpad[pos], per non-zero or as two chained gathers per chunk.
_DOUBLE_GATHER = _Body("    la   s8, sv_map\n    la   s9, sv_vpad\n", True, """\
    lw   t6, 0(a2)          # col = cols[k]                  [meta]
    slli t6, t6, 2          #                                [meta]
    add  t6, t6, s8         #                                [meta]
    lw   t6, 0(t6)          # pos = map[col]  (indirection 1) [meta]
    slli t6, t6, 2          #                                [meta]
    add  t6, t6, s9         #                                [meta]
    flw  fa1, 0(t6)         # vpad[pos]       (indirection 2) [meta]
""", """\
    vle32.v v1, (a2)        # column indices                [meta]
    vsll.vi v1, v1, 2       #                               [meta]
    vluxei32.v v6, (s8), v1 # pos = map[col]      (gather 1) [meta]
    vsll.vi v6, v6, 2       #                               [meta]
    vluxei32.v v7, (s9), v6 # vpad[pos]           (gather 2) [meta]
    vle32.v v3, (a3)        # matrix values
    vfmacc.vv v0, v7, v3
""")

#: The HHT: its back-end walks the metadata and the VVAL FIFO supplies
#: one vector value per non-zero (a zero where SpMSpV's vector has none).
_HHT = _Body("    la   a4, hht_vval_fifo\n", False, """\
    flw  fa1, 0(a4)         # vector value from the HHT FIFO
""", """\
    vle32.v v3, (a3)        # matrix values (unit-stride, no metadata)
    vle32.v v2, (a4)        # vector values from the HHT
    vfmacc.vv v0, v2, v3
""")

#: SSR: the stream unit walks the metadata and ``fssrpop``/``vssrpop.v``
#: pop the gathered operands.
_SSR = _Body("", False, """\
    fssrpop fa1, 0          # operand popped from the stream
""", """\
    vle32.v v3, (a3)        # matrix values (unit-stride, no metadata)
    vssrpop.v v2, 0         # operands popped from the SSR
    vfmacc.vv v0, v2, v3
""")

#: IndexMAC (vector CPUs only): ``vfmacidx`` fuses the gather and the
#: multiply-accumulate.
_INDEXMAC = _Body("    la   s4, v\n", True, None, """\
    vle32.v v1, (a2)        # column indices           [meta]
    vle32.v v3, (a3)        # matrix values
    vfmacidx v0, (s4), v1, v3   # v0 += v[cols[...]] * vals (fused)
""")

#: SpMSpV's IndexMAC: the pipelined ``vlpidx.v`` gather resolves
#: map[col], then ``vfmacidx`` fuses the vpad gather and the MAC.
_INDEXMAC_MAP = _Body("    la   s8, sv_map\n    la   s9, sv_vpad\n", True, None, """\
    vle32.v v1, (a2)        # column indices                    [meta]
    vlpidx.v v6, (s8), v1   # pos = map[col], pipelined gather   [meta]
    vle32.v v3, (a3)        # matrix values
    vfmacidx v0, (s9), v6, v3   # v0 += vpad[pos] * vals (fused)
""")

#: SpMV front-end (``accel``) -> (MMR programming, body).
_SPMV = {
    None: ("", _GATHER),
    "hht": (program_hht(HHTMode.SPMV, sparse_vector=False), _HHT),
    "ssr": (program_ssr(indirect=False), _SSR),
    "indexmac": ("", _INDEXMAC),
}

#: SpMSpV mode -> (the front-end it needs, MMR programming, body).
#: Variant 1 has no body: its HHT streams aligned pairs to the pair loop.
_SPMSPV = {
    "baseline": (None, "", _DOUBLE_GATHER),
    "hht_v1": ("hht", program_hht(HHTMode.SPMSPV_ALIGNED, sparse_vector=True),
               None),
    "hht_v2": ("hht", program_hht(HHTMode.SPMSPV_VALUES, sparse_vector=True),
               _HHT),
    "ssr": ("ssr", program_ssr(indirect=True), _SSR),
    "indexmac": ("indexmac", "", _INDEXMAC_MAP),
}

#: The vector loops' row end: sum ``v0``'s lanes into ``y[i]``.
_REDUCE = """\
    vsetvli t5, x0, e32, m1
    fmv.w.x ft0, zero
    vfmv.s.f v4, ft0
    vfredosum.vs v4, v0, v4
    vfmv.f.s fa0, v4
    fsw  fa0, 0(s5)
    addi s5, s5, 4
"""


def _row_loop(body: _Body, *, vector: bool, core: int | None = None) -> str:
    """Algorithm 1's CSR row loop around *body*: ``y[i]`` sums
    ``vals[k]`` times the body's operand over ``rows[i] <= k < rows[i+1]``.

    With *core*, the loop covers that core's row block, as the section
    at label ``core{core}`` with every label prefixed ``core{core}_``.
    """
    # The CPU walks vals[k], and cols[k] when the body reads it.
    walked = {"a2": "m_cols", "a3": "m_vals"} if body.cols else {"a3": "m_vals"}
    load = "".join(f"    la   {reg}, {array}\n" for reg, array in walked.items())
    advance = "".join(f"    add  {reg}, {reg}, t6\n" for reg in walked)
    if core is None:
        p = ""
        head = f"""\
    li   s0, m_num_rows
    la   s1, m_rows
{load}{body.bases}    la   s5, y
    beqz s0, done
    li   t0, 0              # i
    lw   t2, 0(s1)          # k = rows[0]
"""
    else:
        p = f"core{core}_"
        head = f"""\
core{core}:
    li   s2, {p}row_start
    li   s0, {p}row_end
    la   s1, m_rows
    slli t1, s2, 2
    add  s1, s1, t1         # &rows[row_start]
    la   s5, y
    add  s5, s5, t1         # &y[row_start]
{body.bases}    bge  s2, s0, {p}done
{load}    lw   t2, 0(s1)          # k = rows[row_start]
    slli t6, t2, 2
{advance}    mv   t0, s2             # i = row_start
"""
    if vector:
        row = f"""\
    sub  t4, t3, t2         # non-zeros left in the row
    vsetvli t5, x0, e32, m1
    vmv.v.i v0, 0           # lane accumulators
    beqz t4, {p}reduce
{p}chunk_loop:
    vsetvli t5, t4, e32, m1
{body.vector}    slli t6, t5, 2
{advance}    sub  t4, t4, t5
    bnez t4, {p}chunk_loop
{p}reduce:
{_REDUCE}    addi s1, s1, 4
    mv   t2, t3
"""
    else:
        step = "".join(f"    addi {reg}, {reg}, 4\n" for reg in walked)
        row = f"""\
    fmv.w.x fa0, zero       # s = 0
    bge  t2, t3, {p}store
{p}elem_loop:
{body.scalar}    flw  fa2, 0(a3)         # vals[k]
    fmadd.s fa0, fa1, fa2, fa0
{step}    addi t2, t2, 1
    blt  t2, t3, {p}elem_loop
{p}store:
    fsw  fa0, 0(s5)
    addi s5, s5, 4
    addi s1, s1, 4
"""
    return f"""{head}{p}row_loop:
    lw   t3, 4(s1)          # rows[i+1]
{row}    addi t0, t0, 1
    blt  t0, s0, {p}row_loop
{p}done:
    halt
"""


def _pair_loop(*, vector: bool) -> str:
    """Per row, pop a count from the COUNT FIFO, then sum that many
    (MVAL, VVAL) FIFO products into ``y[i]``."""
    if vector:
        row = f"""\
    vsetvli t5, x0, e32, m1
    vmv.v.i v0, 0
    beqz t4, reduce
chunk_loop:
    vsetvli t5, t4, e32, m1
    vle32.v v1, (a6)        # matrix values
    vle32.v v2, (a4)        # vector values
    vfmacc.vv v0, v1, v2
    sub  t4, t4, t5
    bnez t4, chunk_loop
reduce:
{_REDUCE}"""
    else:
        row = """\
    fmv.w.x fa0, zero
    beqz t4, store
pair_loop:
    flw  fa1, 0(a6)
    flw  fa2, 0(a4)
    fmadd.s fa0, fa1, fa2, fa0
    addi t4, t4, -1
    bnez t4, pair_loop
store:
    fsw  fa0, 0(s5)
    addi s5, s5, 4
"""
    return f"""\
    li   s0, m_num_rows
    la   a4, hht_vval_fifo
    la   a6, hht_mval_fifo
    la   a5, hht_count_fifo
    la   s5, y
    beqz s0, done
    li   t0, 0
row_loop:
    lw   t4, 0(a5)          # pairs in this row
{row}    addi t0, t0, 1
    blt  t0, s0, row_loop
done:
    halt
"""


def _kernel(what: str, selector, program: str, body: _Body | None,
            vector: bool) -> str:
    """One kernel: *program*, then the row loop around *body*, or the
    pair loop when *body* is None."""
    if body is None:
        loop = _pair_loop(vector=vector)
    elif vector or body.scalar is not None:
        loop = _row_loop(body, vector=vector)
    else:
        raise ValueError(
            f"the {selector!r} front-end has no scalar {what} variant")
    flavour = "vector" if vector else "scalar"
    return f"# {what} {selector or 'baseline'}, {flavour} CPU\n{program}{loop}"


def spmv_kernel(*, accel: str | None = None, vector: bool) -> str:
    """SpMV (Algorithm 1) with the front-end named *accel*: ``"hht"``,
    ``"ssr"``, ``"indexmac"``, or None for the pure-CPU baseline."""
    try:
        program, body = _SPMV[accel]
    except KeyError:
        known = ", ".join(repr(k) for k in _SPMV)
        raise ValueError(
            f"unknown accelerator {accel!r} for SpMV (known: {known})"
        ) from None
    return _kernel("SpMV", accel, program, body, vector)


def spmspv_accel(mode: str) -> str | None:
    """The accelerator front-end the SpMSpV *mode* needs (None for the
    pure-CPU baseline): the ``accel`` a run of it is configured with."""
    try:
        return _SPMSPV[mode][0]
    except KeyError:
        raise ValueError(f"unknown SpMSpV kernel mode {mode!r}") from None


def spmspv_kernel(*, mode: str, vector: bool) -> str:
    """SpMSpV (Section 5.1); ``mode`` is one of ``'baseline'``,
    ``'hht_v1'``, ``'hht_v2'``, ``'ssr'``, ``'indexmac'``."""
    spmspv_accel(mode)  # an unknown mode fails here
    _, program, body = _SPMSPV[mode]
    return _kernel("SpMSpV", mode, program, body, vector)


def partition_rows(n_rows: int, n_cores: int) -> dict[str, int]:
    """Static contiguous row blocks: the ``core{k}_row_start/end``
    symbol values for *n_cores* cores over *n_rows* rows.

    Blocks are ceil-sized so the earlier cores absorb the remainder;
    trailing cores may own an empty range on tiny matrices.
    """
    if n_cores < 1:
        raise ValueError(f"n_cores must be >= 1, got {n_cores}")
    block = -(-n_rows // n_cores)  # ceil
    symbols: dict[str, int] = {}
    for k in range(n_cores):
        symbols[f"core{k}_row_start"] = min(k * block, n_rows)
        symbols[f"core{k}_row_end"] = min((k + 1) * block, n_rows)
    return symbols


def _multicore(what: str, body: _Body, n_cores: int, vector: bool) -> str:
    if n_cores < 2:
        raise ValueError(
            f"multi-core kernels need n_cores >= 2, got {n_cores}"
        )
    flavour = "vector" if vector else "scalar"
    return f"# {what} baseline, {flavour} CPU, {n_cores} cores\n" + "".join(
        _row_loop(body, vector=vector, core=k) for k in range(n_cores))


def spmv_multicore_kernel(n_cores: int, *, vector: bool) -> str:
    """Row-partitioned CSR SpMV over *n_cores* cores (pure-CPU baseline)."""
    return _multicore("SpMV", _GATHER, n_cores, vector)


def spmspv_multicore_kernel(n_cores: int, *, vector: bool) -> str:
    """Row-partitioned SpMSpV over *n_cores* cores (pure-CPU baseline)."""
    return _multicore("SpMSpV", _DOUBLE_GATHER, n_cores, vector)


#: Matrix format -> the MMRs its firmware reads, as (MMR, data symbol).
_FORMAT_MMR_WRITES = {
    "csr": (("hht_m_rows_base", "m_rows"), ("hht_m_cols_base", "m_cols"),
            ("hht_m_vals_base", "m_vals")),
    "coo": (("hht_m_rows_base", "m_row_indices"),
            ("hht_m_cols_base", "m_col_indices"),
            ("hht_m_vals_base", "m_vals"), ("hht_aux0", "m_nnz")),
    "bitvector": (("hht_m_vals_base", "m_vals"), ("hht_aux0", "m_bitmap")),
    "smash": (("hht_m_vals_base", "m_vals"), ("hht_aux0", "m_l0"),
              ("hht_aux1", "m_l1")),
}

SUPPORTED_FORMATS = tuple(sorted(_FORMAT_MMR_WRITES))


def programmable_consumer(format_name: str, *, vector: bool = True) -> str:
    """SpMV consumer for PROGRAMMABLE mode (Section 7) over the given
    matrix format.  Whatever firmware the helper core runs, the CPU reads
    one protocol, so only the MMR writes depend on the format."""
    try:
        format_writes = _FORMAT_MMR_WRITES[format_name]
    except KeyError:
        raise ValueError(
            f"no firmware protocol for format {format_name!r}; "
            f"supported: {SUPPORTED_FORMATS}"
        ) from None
    program = _program("hht_start", (
        ("hht_m_num_rows", "m_num_rows"), ("hht_m_num_cols", "m_num_cols"),
        ("hht_v_base", "v"), ("hht_elem_size", 4),
        ("hht_mode", int(HHTMode.PROGRAMMABLE)), *format_writes,
    ))
    return _kernel("programmable-HHT SpMV", format_name, program, None, vector)
