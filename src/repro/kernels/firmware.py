"""Helper-core firmware for the programmable HHT (Section 7).

Each firmware walks one sparse representation and emits, per matrix row,
the row's non-zero count followed by that many (matrix-value,
vector-value) pairs — the uniform FIFO protocol of
:mod:`repro.core.programmable`.  The primary CPU runs the same consumer
kernel (:func:`repro.kernels.loops.programmable_consumer`)
whatever the format, which is exactly the flexibility argument of the
paper's conclusion.

Register ABI (set up by the engine — see ``programmable.py``):
``a0``=rows, ``a1``/``a2``=metadata pointers, ``a3``=values, ``a4``=V,
``a5``=cols, ``a6``/``a7``=aux pointers, ``s4``/``s5``/``s6``=emit
addresses (count / mval / vval).
"""

from __future__ import annotations

from ..core.programmable import FIRMWARE_SYMBOLS
from ..isa.assembler import assemble
from ..isa.program import Program


def _assemble(name: str, text: str) -> Program:
    return assemble(text, symbols=FIRMWARE_SYMBOLS, name=name)


def firmware_spmv_csr() -> Program:
    """Walk CSR metadata: rows[] pointers over cols[]/vals[] (Fig. 1)."""
    return _assemble("firmware_spmv_csr", """
    # a1 = rows base, a2 = cols cursor, a3 = vals cursor, a4 = V base
        beqz a0, done
        li   s0, 0            # row index i
        lw   s1, 0(a1)        # k = rows[0]
    row:
        lw   s7, 4(a1)        # rows[i+1]
        sub  t0, s7, s1
        sw   t0, 0(s4)        # emit row count
    pair_loop:
        bge  s1, s7, row_done
        lw   t1, 0(a3)        # matrix value bits
        sw   t1, 0(s5)        # emit mval
        lw   t2, 0(a2)        # column index
        slli t2, t2, 2
        add  t2, t2, a4
        lw   t3, 0(t2)        # v[col] bits
        sw   t3, 0(s6)        # emit vval
        addi a2, a2, 4
        addi a3, a3, 4
        addi s1, s1, 1
        j    pair_loop
    row_done:
        addi a1, a1, 4
        addi s0, s0, 1
        blt  s0, a0, row
    done:
        halt
    """)


def firmware_spmv_coo() -> Program:
    """Walk row-major-sorted COO triples; AUX0 (a6) carries the nnz."""
    return _assemble("firmware_spmv_coo", """
    # a1 = row_indices base, a2 = col_indices base, a3 = vals base,
    # a4 = V base, a6 = nnz
        beqz a0, done
        li   s0, 0            # row index i
        li   s1, 0            # global cursor k
    row:
        # Pass 1: count entries of row i (triples are row-major sorted).
        mv   t0, s1
        li   t2, 0
    count_loop:
        bge  t0, a6, count_done
        slli t3, t0, 2
        add  t3, t3, a1
        lw   t3, 0(t3)        # row_indices[t0]
        bne  t3, s0, count_done
        addi t2, t2, 1
        addi t0, t0, 1
        j    count_loop
    count_done:
        sw   t2, 0(s4)        # emit row count
        # Pass 2: emit the pairs.
    pair_loop:
        bge  s1, t0, row_done
        slli t3, s1, 2
        add  t4, t3, a3
        lw   t4, 0(t4)        # value bits
        sw   t4, 0(s5)
        add  t3, t3, a2
        lw   t3, 0(t3)        # column index
        slli t3, t3, 2
        add  t3, t3, a4
        lw   t3, 0(t3)        # v[col]
        sw   t3, 0(s6)
        addi s1, s1, 1
        j    pair_loop
    row_done:
        addi s0, s0, 1
        blt  s0, a0, row
    done:
        halt
    """)


def firmware_spmv_bitvector() -> Program:
    """Walk a flat bitmap (Fig. 1 right): AUX0 (a6) = bitmap base.

    Requires ``ncols % 32 == 0`` so each row owns whole bitmap words.
    Counting uses Kernighan's trick (cost proportional to the set bits);
    emission walks bits LSB-first to keep values row-major.
    """
    return _assemble("firmware_spmv_bitvector", """
    # a3 = packed vals cursor, a4 = V base, a5 = ncols, a6 = bitmap cursor
        beqz a0, done
        srli s7, a5, 5        # bitmap words per row
        li   s0, 0            # row index
    row:
        # Pass 1: popcount this row's words.
        mv   t0, a6
        li   t2, 0            # count
        li   t4, 0            # word index
    pc_words:
        bge  t4, s7, pc_done
        lw   t1, 0(t0)
    pc_bits:
        beqz t1, pc_next
        addi t3, t1, -1
        and  t1, t1, t3       # clear lowest set bit
        addi t2, t2, 1
        j    pc_bits
    pc_next:
        addi t0, t0, 4
        addi t4, t4, 1
        j    pc_words
    pc_done:
        sw   t2, 0(s4)        # emit row count
        # Pass 2: walk set bits, emit (val, v[col]).
        li   t4, 0            # word index
    em_words:
        bge  t4, s7, row_done
        lw   t1, 0(a6)
        li   t5, 0            # bit position within word
    em_bits:
        beqz t1, em_next
        andi t6, t1, 1
        beqz t6, em_shift
        lw   t3, 0(a3)        # next packed matrix value
        sw   t3, 0(s5)
        addi a3, a3, 4
        slli t6, t4, 5        # col = word*32 + bit
        add  t6, t6, t5
        slli t6, t6, 2
        add  t6, t6, a4
        lw   t6, 0(t6)        # v[col]
        sw   t6, 0(s6)
    em_shift:
        srli t1, t1, 1
        addi t5, t5, 1
        j    em_bits
    em_next:
        addi a6, a6, 4
        addi t4, t4, 1
        j    em_words
    row_done:
        addi s0, s0, 1
        blt  s0, a0, row
    done:
        halt
    """)


def firmware_spmv_smash() -> Program:
    """Walk a SMASH-style two-level hierarchical bitmap (Section 6).

    AUX0 (a6) = level-0 bitmap base (one bit per 32-element region),
    AUX1 (a7) = level-1 bitmap base (one word per *set* level-0 bit).
    Requires ``ncols % 32 == 0`` (regions align to rows) and fanout 32.

    This is the format the paper says it programmed the HHT for, and the
    "complicated indexing to locate row and column positions" is visible
    below: every region needs a level-0 bit probe, and the level-1
    cursor advances only with set bits — the helper does far more work
    per non-zero than the CSR walk, so the primary CPU idles (Section 6:
    "HHT is performing more work that the CPU, causing CPU to idle").
    """
    return _assemble("firmware_spmv_smash", """
    # a3 = packed vals cursor, a4 = V base, a5 = ncols,
    # a6 = L0 base, a7 = L1 cursor (advances over set L0 bits)
        beqz a0, done
        srli s7, a5, 5        # regions per row (fanout = 32)
        li   s0, 0            # row index
        li   s1, 0            # global region index of the row start
    row:
        # ---- Pass 1: count the row's non-zeros (peeks, no consumption).
        mv   t0, a7           # L1 cursor copy
        li   t2, 0            # count
        li   t4, 0            # region within row
    p1_regions:
        bge  t4, s7, p1_done
        add  t5, s1, t4       # global region index
        srli t6, t5, 5
        slli t6, t6, 2
        add  t6, t6, a6
        lw   t6, 0(t6)        # L0 word
        andi t5, t5, 31
        srl  t6, t6, t5
        andi t6, t6, 1
        beqz t6, p1_next      # region empty: no L1 word
        lw   t5, 0(t0)        # L1 word for this region
        addi t0, t0, 4
    p1_bits:
        beqz t5, p1_next
        addi t3, t5, -1
        and  t5, t5, t3
        addi t2, t2, 1
        j    p1_bits
    p1_next:
        addi t4, t4, 1
        j    p1_regions
    p1_done:
        sw   t2, 0(s4)        # emit row count
        # ---- Pass 2: emit pairs, consuming the real cursors.
        li   t4, 0            # region within row
    p2_regions:
        bge  t4, s7, row_done
        add  t5, s1, t4
        srli t6, t5, 5
        slli t6, t6, 2
        add  t6, t6, a6
        lw   t6, 0(t6)
        andi t5, t5, 31
        srl  t6, t6, t5
        andi t6, t6, 1
        beqz t6, p2_next
        lw   t1, 0(a7)        # consume the L1 word
        addi a7, a7, 4
        li   t5, 0            # bit position
    p2_bits:
        beqz t1, p2_next
        andi t6, t1, 1
        beqz t6, p2_shift
        lw   t3, 0(a3)        # packed matrix value
        sw   t3, 0(s5)
        addi a3, a3, 4
        slli t6, t4, 5        # col = region_in_row*32 + bit
        add  t6, t6, t5
        slli t6, t6, 2
        add  t6, t6, a4
        lw   t6, 0(t6)
        sw   t6, 0(s6)
    p2_shift:
        srli t1, t1, 1
        addi t5, t5, 1
        j    p2_bits
    p2_next:
        addi t4, t4, 1
        j    p2_regions
    row_done:
        add  s1, s1, s7       # advance the global region index
        addi s0, s0, 1
        blt  s0, a0, row
    done:
        halt
    """)


#: Firmware registry by format name.
FIRMWARES = {
    "csr": firmware_spmv_csr,
    "coo": firmware_spmv_coo,
    "bitvector": firmware_spmv_bitvector,
    "smash": firmware_spmv_smash,
}
