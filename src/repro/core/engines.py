"""HHT back-end engines (Section 3.2 + the SpMSpV variants of Section 5.1).

Each engine walks the sparse metadata, charging every memory access —
with its real address — against the shared :class:`MemorySystem` (the
flat Table-1 SRAM, or the Section 3.2 L1D-cached hierarchy), and stages
each fill's result words, with their ready time, into the front-end's
buffered streams.  Metadata streams are sequential bursts
(:meth:`MemorySystem.read_seq`) and every indexed fetch is a pipelined
gather (:meth:`MemorySystem.gather`), so the engines model no port
timing of their own.  A gather passes its element count, and its
addresses only as a callable: the flat port's closed form never builds
them.

The engines are *event-driven*: one ``step()`` call processes one unit of
work (one BLEN-sized buffer fill for SpMV/variant-2, one matrix row for
variant-1) and advances the engine clock to when its pipeline can accept
the next unit.  Functional values are read from RAM snapshots taken at
START — the kernels never modify the operand arrays during a run — so
the SpMV and variant-2 engines look up every fill's words once, at
START, and push slices of them.
"""

from __future__ import annotations

import numpy as np

from ..memory.hierarchy import MemorySystem
from ..memory.ram import Ram
from .config import HHTConfig
from .stream import BufferedStream


class EngineError(Exception):
    """Raised when the programmed configuration is unusable."""


class BackEndEngine:
    """Common machinery: streams, clock, capacity gating, wait accounting."""

    def __init__(self, config: HHTConfig, mem: MemorySystem,
                 start_cycle: int, requester: str = "hht"):
        self.config = config
        self.mem = mem
        self.port = self.mem.port
        #: Label charged on the shared port for this engine's traffic
        #: (the owning HHT's component name).
        self.requester = requester
        self.time = start_cycle
        self.exhausted = False
        self.blocked_since: int | None = None
        self.wait_for_buffer_cycles = 0
        self.buffers_filled = 0
        self.streams: dict[str, BufferedStream] = {}
        # Event sink for buffer_fill events; installed by the owning HHT
        # at START when a SimSession probe subscribed (None otherwise).
        self.probe_sink = None

    def _make_stream(self, name: str, n_buffers: int, buffer_elems: int) -> BufferedStream:
        stream = BufferedStream(name, n_buffers, buffer_elems)
        self.streams[name] = stream
        return stream

    def capacity_ok(self) -> bool:
        for stream in self.streams.values():
            if not stream.has_room:
                return False
        return True

    def _seq_read(self, cycle: int, addr: int, words: int) -> int:
        """Sequential metadata read through the BE's wide interface."""
        return self.mem.read_seq(
            addr, words, cycle, self.requester,
            words_per_slot=self.config.seq_words_per_slot,
        )

    def pump(self, now: int) -> None:
        """Run the back-end as far ahead as buffering allows.

        *now* is the CPU-visible cycle at which space may have been freed;
        if the engine had been blocked on full buffers, the idle interval
        is charged to ``wait_for_buffer_cycles`` (the paper's "HHT waiting
        for CPU to release free buffers" counter).
        """
        if self.exhausted:
            return
        sink = self.probe_sink
        while not self.exhausted and self.capacity_ok():
            if self.blocked_since is not None:
                resume = max(self.blocked_since, now)
                self.wait_for_buffer_cycles += resume - self.blocked_since
                self.time = max(self.time, resume)
                self.blocked_since = None
            self.step()
            if sink is not None:
                sink.buffer_fill(self)
        if not self.exhausted and self.blocked_since is None:
            self.blocked_since = self.time

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def drained(self) -> bool:
        """True when all input is processed and all streams are empty."""
        return self.exhausted and all(
            not s.unconsumed for s in self.streams.values())

    @staticmethod
    def _row_chunks(rows: np.ndarray, blen: int) -> list[int]:
        """Buffer-fill sizes aligned to the CPU's row-chunked vector loop.

        The CPU consumes ``min(blen, remaining_in_row)`` elements per
        vector load (``vsetvli``), so the BE emits groups on exactly those
        boundaries — a fill never straddles a row (the control unit knows
        the row structure from ``M_Rows_Base``).
        """
        chunks: list[int] = []
        lengths = np.diff(rows)
        for nnz_row in lengths:
            nnz_row = int(nnz_row)
            while nnz_row > 0:
                take = blen if nnz_row >= blen else nnz_row
                chunks.append(take)
                nnz_row -= take
        return chunks


class SpMVGatherEngine(BackEndEngine):
    """Indexed-gather engine for SpMV (the Fig. 3 pipeline).

    Stage 1 issues reads of the next BLEN ``M_cols`` elements; responses
    land in the column-indices buffer; stage 3 computes the element
    addresses ``V_Base + s*k``; stage 4 issues the ``V`` reads whose
    responses fill the CPU-side buffer.  The V requests for a chunk start
    streaming as soon as the first column response arrives.
    """

    def __init__(self, config, mem, start_cycle, ram: Ram, regs: dict[str, int],
                 requester: str = "hht"):
        super().__init__(config, mem, start_cycle, requester)
        nrows = regs["m_num_rows"]
        rows = ram.read_array(regs["m_rows_base"], nrows + 1, np.int32)
        # Row pointers may be absolute (a tile aliasing a larger matrix's
        # arrays, Section 5.5's 16x16 tiling): only differences matter,
        # with M_COLS_BASE/M_VALS_BASE pre-offset to the tile's first
        # non-zero.
        self.nnz = int(rows[-1] - rows[0]) if nrows else 0
        self.cols_base = regs["m_cols_base"]
        self.v_base = regs["v_base"]
        self.cols = (
            ram.read_array(self.cols_base, self.nnz, np.int32)
            if self.nnz
            else np.empty(0, np.int32)
        )
        ncols = regs["m_num_cols"]
        v_bits = (
            ram.read_array(self.v_base, ncols, np.uint32)
            if ncols
            else np.empty(0, np.uint32)
        )
        #: Every fill's words, in stream order.
        self.words = v_bits[self.cols]
        self.cursor = 0
        self.chunks = self._row_chunks(rows, config.buffer_elems)
        self.chunk_idx = 0
        self.vval = self._make_stream("vval", config.n_buffers, config.buffer_elems)
        if self.nnz == 0:
            self.exhausted = True

    def step(self) -> None:
        cfg = self.config
        count = self.chunks[self.chunk_idx]
        self.chunk_idx += 1
        start = self.cursor
        self.cursor += count
        chunk = self.cols[start : start + count]

        t = self.time
        # Stage 1/2: stream the column indices (wide sequential read).
        t_cols = self._seq_read(t, self.cols_base + 4 * start, count)
        # Stage 3/4: V gathers start once the first column index arrives,
        # one request per cycle thereafter.
        first_col_ready = t_cols - (count - 1) // cfg.seq_words_per_slot
        v_base = self.v_base
        t_v = self.mem.gather(
            count, lambda: [v_base + 4 * col for col in chunk.tolist()],
            first_col_ready + 1, self.requester,
        )
        ready = t_v + cfg.fill_overhead

        self.vval.push_group(ready, self.words[start : start + count])
        self.vval.stats.elements_supplied += count
        self.buffers_filled += 1
        # The pipeline can begin the next chunk once this chunk's requests
        # have all been issued (responses drain in the background).
        self.time = max(t + 1, t_v - self.port.latency + 1)
        if self.cursor >= self.nnz:
            self.exhausted = True


class SpMSpVValueEngine(BackEndEngine):
    """Variant-2: one vector value (or zero) per matrix non-zero.

    Per element the BE reads the column index, gathers the position map
    entry ``map[col]`` and — only on a hit — gathers the vector value.
    Misses cost no value fetch (``vpad[0]`` is architecturally zero), so
    the BE gets *faster* at high vector sparsity while the CPU keeps doing
    one multiply-accumulate per matrix non-zero: the paper's "wasted
    computations on zeros".
    """

    def __init__(self, config, mem, start_cycle, ram: Ram, regs: dict[str, int],
                 requester: str = "hht"):
        super().__init__(config, mem, start_cycle, requester)
        nrows = regs["m_num_rows"]
        rows = ram.read_array(regs["m_rows_base"], nrows + 1, np.int32)
        self.nnz = int(rows[-1] - rows[0]) if nrows else 0
        self.cols_base = regs["m_cols_base"]
        self.map_base = regs["v_map_base"]
        self.vpad_base = regs["v_vals_base"]
        self.cols = (
            ram.read_array(self.cols_base, self.nnz, np.int32)
            if self.nnz
            else np.empty(0, np.int32)
        )
        ncols = regs["m_num_cols"]
        self.posmap = (
            ram.read_array(self.map_base, ncols, np.int32)
            if ncols
            else np.empty(0, np.int32)
        )
        v_nnz = regs["v_nnz"]
        vpad_bits = ram.read_array(self.vpad_base, v_nnz + 1, np.uint32)
        positions = self.posmap[self.cols]
        #: Every fill's words (a miss reads ``vpad[0]``, a zero).
        self.words = vpad_bits[positions]
        self.cursor = 0
        self.chunks = self._row_chunks(rows, config.buffer_elems)
        #: Position-map hits (value fetches) per fill.
        self.hits: list[int] = []
        if self.chunks:
            starts = np.cumsum([0] + self.chunks[:-1])
            self.hits = np.add.reduceat(
                positions > 0, starts, dtype=np.int64).tolist()
        self.chunk_idx = 0
        self.vval = self._make_stream("vval", config.n_buffers, config.buffer_elems)
        if self.nnz == 0:
            self.exhausted = True

    def step(self) -> None:
        cfg = self.config
        count = self.chunks[self.chunk_idx]
        hits = self.hits[self.chunk_idx]
        self.chunk_idx += 1
        start = self.cursor
        self.cursor += count
        chunk = self.cols[start : start + count]

        t = self.time
        t_cols = self._seq_read(t, self.cols_base + 4 * start, count)
        first_col_ready = t_cols - (count - 1) // cfg.seq_words_per_slot
        map_base = self.map_base
        t_map = self.mem.gather(
            count, lambda: [map_base + 4 * col for col in chunk.tolist()],
            first_col_ready + 1, self.requester,
        )
        if hits:
            first_map_ready = t_map - (hits - 1)
            vpad_base = self.vpad_base
            t_val = self.mem.gather(
                hits, lambda: [vpad_base + 4 * pos
                               for pos in self.posmap[chunk].tolist() if pos],
                first_map_ready + 1, self.requester,
            )
        else:
            t_val = t_map
        ready = t_val + cfg.fill_overhead

        self.vval.push_group(ready, self.words[start : start + count])
        self.vval.stats.elements_supplied += count
        self.buffers_filled += 1
        self.time = max(t + 1, t_val - self.port.latency + 1)
        if self.cursor >= self.nnz:
            self.exhausted = True


class SpMSpVAlignedEngine(BackEndEngine):
    """Variant-1: aligned non-zero (matrix, vector) pairs plus row counts.

    Per row the BE two-pointer merges the row's column indices against the
    sparse vector's index list (re-streaming vector indices every row —
    this is why "HHT is performing more work than the CPU"), then fetches
    the matched matrix and vector values.  The CPU reads the match count
    from the COUNT FIFO, then streams the pairs.
    """

    def __init__(self, config, mem, start_cycle, ram: Ram, regs: dict[str, int],
                 requester: str = "hht"):
        super().__init__(config, mem, start_cycle, requester)
        self.nrows = regs["m_num_rows"]
        self.rows = ram.read_array(regs["m_rows_base"], self.nrows + 1, np.int32)
        if self.nrows and self.rows[0]:
            # Absolute pointers (tile view): rebase to the tile's start.
            self.rows = self.rows - self.rows[0]
        nnz = int(self.rows[-1]) if self.nrows else 0
        self.cols_base = regs["m_cols_base"]
        self.mvals_base = regs["m_vals_base"]
        self.v_idx_base = regs["v_idx_base"]
        self.vpad_base = regs["v_vals_base"]
        self.cols = (
            ram.read_array(self.cols_base, nnz, np.int32)
            if nnz
            else np.empty(0, np.int32)
        )
        self.mvals_bits = (
            ram.read_array(self.mvals_base, nnz, np.uint32)
            if nnz
            else np.empty(0, np.uint32)
        )
        v_nnz = regs["v_nnz"]
        self.v_idx = (
            ram.read_array(self.v_idx_base, v_nnz, np.int32)
            if v_nnz
            else np.empty(0, np.int32)
        )
        self.vpad_bits = ram.read_array(self.vpad_base, v_nnz + 1, np.uint32)
        self.row = 0
        self.count = self._make_stream("count", config.n_buffers, 1)
        self.mval = self._make_stream("mval", config.n_buffers, config.buffer_elems)
        self.vval = self._make_stream("vval", config.n_buffers, config.buffer_elems)
        if self.nrows == 0:
            self.exhausted = True

    def step(self) -> None:
        cfg = self.config
        i = self.row
        self.row += 1
        lo, hi = int(self.rows[i]), int(self.rows[i + 1])
        row_cols = self.cols[lo:hi]
        nc = hi - lo
        v_nnz = self.v_idx.size

        # Functional merge (sorted-index intersection).
        if nc and v_nnz:
            pos = np.searchsorted(self.v_idx, row_cols)
            valid = pos < v_nnz
            valid[valid] &= self.v_idx[pos[valid]] == row_cols[valid]
            matched_k = np.nonzero(valid)[0]
            matched_vpos = pos[valid]
            # Vector-index stream entries consumed before the merge ends.
            v_used = int(
                min(v_nnz, np.searchsorted(self.v_idx, row_cols[-1], side="right"))
            )
        else:
            matched_k = np.empty(0, np.int64)
            matched_vpos = np.empty(0, np.int64)
            v_used = 0
        nm = matched_k.size

        # Timing: stream both index lists, merge at one comparison per
        # merge_cycles_per_step, then gather the matched value pairs.
        t = self.time
        t_meta = self._seq_read(t, self.cols_base + 4 * lo, nc)
        t_meta = self._seq_read(
            (t_meta - self.port.latency + 1) if nc else t,
            self.v_idx_base,
            v_used,
        )
        steps = (nc + v_used) * cfg.merge_cycles_per_step
        merge_done = max(t_meta, t + steps)
        if nm:
            # Matched (matrix, vector) value pairs interleave on the
            # port: the matrix values at odd offsets, then the vector
            # values at even offsets.
            mvals = self.mvals_base + 4 * lo
            vpad = self.vpad_base + 4
            t_pairs = max(
                self.mem.gather(
                    nm, lambda: [mvals + 4 * k for k in matched_k.tolist()],
                    merge_done + 1, self.requester, step=2),
                self.mem.gather(
                    nm, lambda: [vpad + 4 * p for p in matched_vpos.tolist()],
                    merge_done + 2, self.requester, step=2),
            )
        else:
            t_pairs = merge_done
        ready = t_pairs + cfg.fill_overhead

        self.count.push(merge_done + cfg.fill_overhead, nm)
        self.count.stats.elements_supplied += 1
        if nm:
            self.mval.push_group(ready, self.mvals_bits[lo + matched_k])
            self.vval.push_group(ready, self.vpad_bits[matched_vpos + 1])
            self.mval.stats.elements_supplied += nm
            self.vval.stats.elements_supplied += nm
        self.buffers_filled += 1
        self.time = max(t + 1, t_pairs - self.port.latency + 1)
        if self.row >= self.nrows:
            self.exhausted = True
