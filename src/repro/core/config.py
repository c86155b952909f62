"""HHT configuration and memory-mapped register map (Section 3.1).

The front-end is programmed through memory-mapped registers; the paper
lists ``M_Num_Rows``, ``M_Rows_Base``, ``M_Cols_Base``, ``V_Base``,
``ElementSizes`` and ``Start``.  We add the registers the SpMSpV variants
need (sparse-vector metadata bases) and a MODE select, plus the fixed
FIFO load addresses the CPU streams data from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class HHTMode(enum.IntEnum):
    """Operating mode programmed into the MODE register."""

    SPMV = 0           # indexed-gather support for sparse M x dense V
    SPMSPV_ALIGNED = 1  # variant-1: aligned (matrix, vector) non-zero pairs
    SPMSPV_VALUES = 2   # variant-2: vector value (or 0) per matrix non-zero
    PROGRAMMABLE = 3    # firmware on the helper core (conclusion, Section 7)


class MMR:
    """Word offsets of the memory-mapped registers (relative to HHT base)."""

    M_NUM_ROWS = 0x00
    M_ROWS_BASE = 0x04
    M_COLS_BASE = 0x08
    M_VALS_BASE = 0x0C
    V_BASE = 0x10          # dense vector base (SpMV)
    V_NNZ = 0x14           # sparse vector: number of non-zeros
    V_IDX_BASE = 0x18      # sparse vector: indices array
    V_VALS_BASE = 0x1C     # sparse vector: padded values array (vpad[0]=0)
    V_MAP_BASE = 0x20      # sparse vector: position map (variant-2)
    ELEM_SIZE = 0x24       # bytes per element (ElementSizes register)
    MODE = 0x28
    START = 0x2C
    STATUS = 0x30          # read-only: 1 when the back-end has exhausted input
    M_NUM_COLS = 0x34
    AUX0 = 0x38            # format-specific pointer (programmable firmware)
    AUX1 = 0x3C

    # FIFO load addresses (fixed buffer addresses, Section 3.1)
    VVAL_FIFO = 0x40       # gathered vector values
    MVAL_FIFO = 0x44       # matrix values (variant-1 / programmable)
    COUNT_FIFO = 0x48      # per-row match count (variant-1 / programmable)

    AUX2 = 0x4C
    AUX3 = 0x50

    #: Size of the mapped region in bytes.
    REGION_SIZE = 0x100


#: Default base address where systems map the HHT (inside the MMIO window).
HHT_BASE = 0x4000_0000


@dataclass
class HHTConfig:
    """Design-time parameters of the HHT (Table 1 defaults).

    * ``n_buffers`` — N CPU-side buffers; N=1 single, N=2 double buffering.
    * ``buffer_elems`` — BLEN, elements per buffer.  Table 1 uses 32-byte
      buffers of 8 x 32-bit elements, matching the CPU's vector width.
    * ``fill_overhead`` — pipeline cycles between the last memory response
      of a fill and the buffer becoming CPU-visible.
    * ``fifo_read_latency`` — cycles for the FE to answer a CPU load that
      finds its data ready.
    * ``fifo_beat_per_elem`` — additional cycles per extra element when
      the CPU performs a vector-wide FIFO load.
    * ``merge_cycles_per_step`` — variant-1 index-merge rate.  The default
      of 2 models a compare-then-advance FSM (one comparison every other
      cycle); it places the variant-1/variant-2 crossover above 80 %
      sparsity, where the paper's Fig. 5 has it.
    * ``seq_words_per_slot`` — memory-side burst width for *sequential*
      streams (column indices, vector-index lists): the BE sits next to
      the RAM and reads 2 x 32-bit words per port slot, the reason the
      "ASIC HHT is more than adequate to supply data" (Section 5.1).
      Random gathers (vector elements, matched values) stay 1 word/slot.
    """

    n_buffers: int = 2
    buffer_elems: int = 8
    fill_overhead: int = 1
    fifo_read_latency: int = 1
    fifo_beat_per_elem: int = 1
    merge_cycles_per_step: int = 2
    seq_words_per_slot: int = 2

    def __post_init__(self) -> None:
        if self.n_buffers < 1:
            raise ValueError(f"n_buffers must be >= 1, got {self.n_buffers}")
        if self.buffer_elems < 1:
            raise ValueError(f"buffer_elems must be >= 1, got {self.buffer_elems}")
        if min(self.fill_overhead, self.fifo_read_latency,
               self.fifo_beat_per_elem) < 0:
            raise ValueError("overheads must be non-negative")
        if self.merge_cycles_per_step < 1:
            raise ValueError("merge_cycles_per_step must be >= 1")
        if self.seq_words_per_slot < 1:
            raise ValueError("seq_words_per_slot must be >= 1")

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "HHTConfig":
        return cls(**{k: int(v) for k, v in data.items()})

    @property
    def buffer_bytes(self) -> int:
        return self.buffer_elems * 4
