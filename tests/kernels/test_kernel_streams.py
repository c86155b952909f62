"""Every kernel's assembled instruction stream, pinned.

Each case assembles one kernel text against a fixed symbol table and
hashes ``Program.labels`` with every :class:`~repro.isa.instructions.Instr`
field but ``source_line``, so the instruction text and the ``[meta]``
tags the profiler reads are pinned too.  The digests were captured from
the per-variant builders that the shared row and pair loops replaced;
comments and blank lines may change, the instructions may not.
"""

import hashlib
import json
from dataclasses import fields

import pytest

from repro.isa.assembler import assemble
from repro.isa.instructions import Instr
from repro.kernels import (
    programmable_consumer,
    spmspv_kernel,
    spmspv_multicore_kernel,
    spmv_kernel,
    spmv_multicore_kernel,
)

_NAMES = (
    "m_num_rows", "m_num_cols", "m_nnz", "m_rows", "m_cols", "m_vals",
    "m_row_indices", "m_col_indices", "m_bitmap", "m_l0", "m_l1",
    "v", "y", "sv_nnz", "sv_idx", "sv_vpad", "sv_map",
    "hht_m_num_rows", "hht_m_num_cols", "hht_m_rows_base",
    "hht_m_cols_base", "hht_m_vals_base", "hht_elem_size", "hht_mode",
    "hht_v_base", "hht_v_nnz", "hht_v_idx_base", "hht_v_vals_base",
    "hht_v_map_base", "hht_aux0", "hht_aux1", "hht_start",
    "hht_vval_fifo", "hht_mval_fifo", "hht_count_fifo",
    "ssr_idx_base", "ssr_length", "ssr_val_base", "ssr_map_base",
    "ssr_mode", "ssr_start",
    *(f"core{k}_row_{end}" for k in range(8) for end in ("start", "end")),
)
SYMBOLS = {name: 0x1000 + 16 * i for i, name in enumerate(_NAMES)}

#: ``<kernel>-<selector>-<scalar|vector>`` -> digest of the assembled
#: stream, where the selector is the accelerator, the SpMSpV mode, the
#: core count or the firmware format.
STREAMS = {
    "programmable-bitvector-scalar": "8f8bc23f0d3b87a6",
    "programmable-bitvector-vector": "19de1173b3db4f73",
    "programmable-coo-scalar": "38ad0ab3b7a5288b",
    "programmable-coo-vector": "ecec634172313f73",
    "programmable-csr-scalar": "2005ffbcc5622f9f",
    "programmable-csr-vector": "a5dc754874911328",
    "programmable-smash-scalar": "86ba44fef3510cc1",
    "programmable-smash-vector": "b60b7685902a3117",
    "spmspv-baseline-scalar": "c0eef8b03821b838",
    "spmspv-baseline-vector": "bc7df0487f4a335e",
    "spmspv-hht_v1-scalar": "90a44bae1f633bdd",
    "spmspv-hht_v1-vector": "bc26771a4f0df5ea",
    "spmspv-hht_v2-scalar": "d8e67aaa88afdeaa",
    "spmspv-hht_v2-vector": "a89ccf06f1f9a95f",
    "spmspv-indexmac-vector": "f9cba3326c90399f",
    "spmspv-ssr-scalar": "9266dddef05b26de",
    "spmspv-ssr-vector": "6ba3807da2d41c21",
    "spmspv_multicore-2-scalar": "4c682d9ff1879cd6",
    "spmspv_multicore-2-vector": "6a80b2e1e7ca16a4",
    "spmspv_multicore-3-scalar": "0903f6bbc4e9e209",
    "spmspv_multicore-3-vector": "a9a3f43bf5cd22e6",
    "spmspv_multicore-4-scalar": "c098367f1c3ef0d2",
    "spmspv_multicore-4-vector": "0f452621c37adba9",
    "spmspv_multicore-8-scalar": "35309c042d9f3fae",
    "spmspv_multicore-8-vector": "7e19436ee1e4edb8",
    "spmv-baseline-scalar": "c733ec891ca4c3ae",
    "spmv-baseline-vector": "13eff082d9cdc865",
    "spmv-hht-scalar": "f88a23cd2134540d",
    "spmv-hht-vector": "7db7a0d0e825f088",
    "spmv-indexmac-vector": "3466714d43344fa2",
    "spmv-ssr-scalar": "48aee7523470f853",
    "spmv-ssr-vector": "81388d460e44a474",
    "spmv_multicore-2-scalar": "668c45b0befe5c13",
    "spmv_multicore-2-vector": "dca4cb94111c2590",
    "spmv_multicore-3-scalar": "ead8bab254fea327",
    "spmv_multicore-3-vector": "dd26387d1fa6630a",
    "spmv_multicore-4-scalar": "87d2ea456f2847b3",
    "spmv_multicore-4-vector": "ed0843ba49dd0284",
    "spmv_multicore-8-scalar": "5221040c7a715161",
    "spmv_multicore-8-vector": "cdfb8b7b593f9490",
}


def _text(case: str) -> str:
    kernel, selector, flavour = case.split("-")
    vector = flavour == "vector"
    if kernel == "spmv":
        return spmv_kernel(
            accel=None if selector == "baseline" else selector, vector=vector)
    if kernel == "spmspv":
        return spmspv_kernel(mode=selector, vector=vector)
    if kernel == "spmv_multicore":
        return spmv_multicore_kernel(int(selector), vector=vector)
    if kernel == "spmspv_multicore":
        return spmspv_multicore_kernel(int(selector), vector=vector)
    return programmable_consumer(selector, vector=vector)


def _digest(text: str) -> str:
    program = assemble(text, SYMBOLS)
    names = [f.name for f in fields(Instr) if f.name != "source_line"]
    blob = json.dumps([
        sorted(program.labels.items()),
        [[getattr(ins, name) for name in names]
         for ins in program.instructions],
    ])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(STREAMS))
def test_stream_unchanged(case):
    assert _digest(_text(case)) == STREAMS[case]
