"""HHT back-end engines (Section 3.2 + the SpMSpV variants of Section 5.1).

Each engine walks the sparse metadata, charging every memory access —
with its real address — against the shared :class:`MemorySystem` (the
flat Table-1 SRAM, or the Section 3.2 L1D-cached hierarchy), and stages
each fill's result words, with their ready time, into the front-end's
buffered streams.  Metadata streams are sequential reads
(:attr:`MemorySystem.read_seq`) and every indexed fetch is a pipelined
gather (:attr:`MemorySystem.gather`), so the engines model no port
timing of their own; each is looked up once, at START, and each call is
one call into the port (or the L1D).  A gather passes the array of its
planned addresses with a start and a count, so no fill builds an
address list: the flat port's closed form reads only the count, and a
per-element presentation slices the array.

The engines are *event-driven*: one ``step()`` call processes one unit of
work (one BLEN-sized buffer fill for SpMV/variant-2, one matrix row for
variant-1) and advances the engine clock to when its pipeline can accept
the next unit.  The kernels never modify the operand arrays during a
run, so the metadata alone fixes each unit's work: its size, the counts
its reads and gathers take and the words it delivers.  Each engine plans
every unit at START, with numpy, from RAM snapshots; only when a unit
lands depends on the shared port, so a ``step`` charges the port in unit
order and pushes a slice of the planned words.
"""

from __future__ import annotations

import numpy as np

from ..memory.hierarchy import MemorySystem
from ..memory.ram import Ram
from .config import HHTConfig
from .stream import BufferedStream


class EngineError(Exception):
    """Raised when the programmed configuration is unusable."""


def _read(ram: Ram, addr: int, count: int, dtype) -> np.ndarray:
    """*count* elements at *addr* (no RAM access when there are none)."""
    return ram.read_array(addr, count, dtype) if count else np.empty(0, dtype)


def _addresses(base: int, index: np.ndarray) -> np.ndarray:
    """The byte addresses ``base + 4 * index`` of 32-bit elements, as
    ``uint32`` (an address fits the 32-bit space, and the plan then
    takes no more room than the index it replaces)."""
    addrs = index.astype(np.uint32)
    addrs <<= 2
    addrs += base
    return addrs


class BackEndEngine:
    """Common machinery: streams, clock, capacity gating, wait accounting."""

    def __init__(self, config: HHTConfig, mem: MemorySystem,
                 start_cycle: int, requester: str = "hht"):
        self.config = config
        self.mem = mem
        self.port = mem.port
        # The two shapes the engines charge, looked up once.
        self._read_seq = mem.read_seq
        self._gather = mem.gather
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
        """The gate: every stream has a free buffer slot."""
        for stream in self.streams.values():
            if stream.occupied_slots >= stream.n_buffers:
                return False
        return True

    def pump(self, now: int) -> None:
        """Run the back-end as far ahead as buffering allows.

        *now* is the CPU-visible cycle at which space may have been freed;
        if the engine had been blocked on full buffers, the idle interval
        is charged to ``wait_for_buffer_cycles`` (the paper's "HHT waiting
        for CPU to release free buffers" counter).
        """
        if self.exhausted:
            return
        if self.capacity_ok():
            self.refill(now)
        elif self.blocked_since is None:
            self.blocked_since = self.time

    def refill(self, now: int) -> None:
        """:meth:`pump` for a caller that found the gate open: step until
        the engine is exhausted or gated, testing the gate (as
        :meth:`capacity_ok`, in place) once per step."""
        blocked = self.blocked_since
        if blocked is not None:
            resume = now if now > blocked else blocked
            self.wait_for_buffer_cycles += resume - blocked
            if resume > self.time:
                self.time = resume
            self.blocked_since = None
        sink = self.probe_sink
        streams = self.streams.values()
        while True:
            self.step()
            if sink is not None:
                sink.buffer_fill(self)
            if self.exhausted:
                return
            for stream in streams:
                if stream.occupied_slots >= stream.n_buffers:
                    self.blocked_since = self.time
                    return

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def drained(self) -> bool:
        """True when all input is processed and all streams are empty."""
        return self.exhausted and all(
            not s.unconsumed for s in self.streams.values())


def _row_fills(rows: np.ndarray, blen: int) -> np.ndarray:
    """Buffer-fill sizes aligned to the CPU's row-chunked vector loop.

    The CPU consumes ``min(blen, remaining_in_row)`` elements per vector
    load (``vsetvli``), so the BE emits fills on exactly those
    boundaries — a fill never straddles a row (the control unit knows
    the row structure from ``M_Rows_Base``): each row gives its whole
    BLEN chunks, then its remainder if any.
    """
    full, rem = np.divmod(np.diff(rows), blen)
    ends = np.cumsum(full + (rem > 0))
    sizes = np.full(int(ends[-1]) if ends.size else 0, blen, np.int32)
    tail = rem > 0
    sizes[ends[tail] - 1] = rem[tail]
    return sizes


class SpMVGatherEngine(BackEndEngine):
    """Indexed-gather engine for SpMV (the Fig. 3 pipeline).

    Stage 1 issues reads of the next BLEN ``M_cols`` elements; responses
    land in the column-indices buffer; stage 3 computes the element
    addresses ``V_Base + s*k``; stage 4 issues the ``V`` reads whose
    responses fill the CPU-side buffer.  The V requests for a chunk start
    streaming as soon as the first column response arrives.

    Variant 2 runs the same pipeline over the position map, plus a value
    gather per map hit, so it shares :meth:`step`; for SpMV every fill
    has zero hits.
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
        cols = _read(ram, self.cols_base, self.nnz, np.int32)
        # Every non-zero's gather address (into V; variant 2: into the
        # position map) and word, in stream order.
        self.addrs, self.words, hit = self._operands(ram, regs, cols)
        # The plan: each fill's size and value-gather (map hit) count;
        # fill i starts where fill i - 1 ended, and so do its hits.
        sizes = _row_fills(rows, config.buffer_elems)
        self.chunks: list[int] = sizes.tolist()
        if hit is None or not self.chunks:
            self.hits = [0] * len(self.chunks)
        else:
            starts = np.cumsum(sizes) - sizes
            self.hits = np.add.reduceat(hit, starts, dtype=np.int64).tolist()
        self.fill = 0
        self.cursor = 0
        self.hit_cursor = 0
        self.vval = self._make_stream("vval", config.n_buffers, config.buffer_elems)
        if self.nnz == 0:
            self.exhausted = True

    def _operands(self, ram: Ram, regs: dict[str, int], cols: np.ndarray):
        """``(gather addresses, words, hit)``: *hit* marks the non-zeros
        whose vector value is fetched after the gather (None: none
        are)."""
        ncols = regs["m_num_cols"]
        v_bits = _read(ram, regs["v_base"], ncols, np.uint32)
        return _addresses(regs["v_base"], cols), v_bits[cols], None

    def step(self) -> None:
        cfg = self.config
        requester = self.requester
        i = self.fill
        self.fill = i + 1
        count = self.chunks[i]
        hits = self.hits[i]
        start = self.cursor
        end = self.cursor = start + count

        t = self.time
        # Stage 1/2: stream the column indices (wide sequential read).
        wide = cfg.seq_words_per_slot
        t_cols = self._read_seq(self.cols_base + 4 * start, count, t,
                                requester, wide)
        # Stage 3/4: V (map) gathers start once the first column index
        # arrives, one request per cycle thereafter.
        t_val = self._gather(self.addrs, start, count,
                             t_cols - (count - 1) // wide + 1, requester)
        if hits:
            # Variant 2: one value gather per map hit, pipelined behind
            # the map responses.
            h = self.hit_cursor
            self.hit_cursor = h + hits
            t_val = self._gather(self.value_addrs, h, hits,
                                 t_val - hits + 2, requester)

        vval = self.vval
        vval.push_fill(t_val + cfg.fill_overhead, self.words[start:end])
        vval.stats.elements_supplied += count
        self.buffers_filled += 1
        # The pipeline can begin the next chunk once this chunk's requests
        # have all been issued (responses drain in the background).
        t_next = t_val - self.port.latency + 1
        self.time = t_next if t_next > t else t + 1
        if end >= self.nnz:
            self.exhausted = True


class SpMSpVValueEngine(SpMVGatherEngine):
    """Variant-2: one vector value (or zero) per matrix non-zero.

    Per element the BE reads the column index, gathers the position map
    entry ``map[col]`` and — only on a hit — gathers the vector value.
    Misses cost no value fetch (``vpad[0]`` is architecturally zero), so
    the BE gets *faster* at high vector sparsity while the CPU keeps doing
    one multiply-accumulate per matrix non-zero: the paper's "wasted
    computations on zeros".
    """

    def _operands(self, ram: Ram, regs: dict[str, int], cols: np.ndarray):
        vpad_base = regs["v_vals_base"]
        posmap = _read(ram, regs["v_map_base"], regs["m_num_cols"], np.int32)
        vpad_bits = ram.read_array(vpad_base, regs["v_nnz"] + 1, np.uint32)
        positions = posmap[cols]
        hit = positions > 0
        #: Every value gather's address (one per map hit), in stream order.
        self.value_addrs = _addresses(vpad_base, positions[hit])
        # A miss reads vpad[0], a zero.
        return _addresses(regs["v_map_base"], cols), vpad_bits[positions], hit


class SpMSpVAlignedEngine(BackEndEngine):
    """Variant-1: aligned non-zero (matrix, vector) pairs plus row counts.

    Per row the BE two-pointer merges the row's column indices against the
    sparse vector's index list (re-streaming vector indices every row —
    this is why "HHT is performing more work than the CPU"), then fetches
    the matched matrix and vector values.  The CPU reads the match count
    from the COUNT FIFO, then streams the pairs.

    The merge's outcome depends on the metadata alone, so START runs it
    once over every row (a sorted-index intersection of all column
    indices with the vector's index list) and each row's step replays
    its timing.
    """

    def __init__(self, config, mem, start_cycle, ram: Ram, regs: dict[str, int],
                 requester: str = "hht"):
        super().__init__(config, mem, start_cycle, requester)
        self.nrows = regs["m_num_rows"]
        rows = ram.read_array(regs["m_rows_base"], self.nrows + 1, np.int32)
        # Absolute pointers (tile view): rebase to the tile's start.
        bounds = rows - rows[0]
        lengths = np.diff(bounds)
        nnz = int(bounds[-1])
        self.cols_base = regs["m_cols_base"]
        self.mvals_base = regs["m_vals_base"]
        self.v_idx_base = regs["v_idx_base"]
        self.vpad_base = regs["v_vals_base"]
        cols = _read(ram, self.cols_base, nnz, np.int32)
        v_nnz = regs["v_nnz"]
        v_idx = _read(ram, self.v_idx_base, v_nnz, np.int32)
        # Functional merge (sorted-index intersection), every row at once.
        pos = np.searchsorted(v_idx, cols).astype(np.int32)
        hit = (v_idx.take(pos, mode="clip") == cols if v_nnz
               else np.zeros(nnz, bool))
        # Matched non-zeros (indices into M_COLS/M_VALS) and vector
        # positions, in stream order.
        match_k = np.flatnonzero(hit).astype(np.int32)
        match_vpos = pos[hit]
        matches = np.diff(np.searchsorted(match_k, bounds))
        # Vector-index stream entries a row's merge consumes: every entry
        # up to the row's last column.
        v_used = np.zeros(self.nrows, np.int32)
        busy = lengths > 0
        v_used[busy] = np.searchsorted(v_idx, cols[bounds[1:][busy] - 1],
                                       side="right")
        # The plan, per row: its length, vector-index entries consumed
        # and match count; row i's non-zeros and matches start where row
        # i - 1's ended.
        self.lengths: list[int] = lengths.tolist()
        self.v_used: list[int] = v_used.tolist()
        self.matches: list[int] = matches.tolist()
        #: Every row's stream words: its count, its pairs.
        self.count_words = matches.astype(np.uint32)
        self.mwords = _read(ram, self.mvals_base, nnz, np.uint32)[match_k]
        self.vwords = ram.read_array(self.vpad_base, v_nnz + 1,
                                     np.uint32)[match_vpos + 1]
        #: The pair gathers' addresses, in stream order: the matched
        #: matrix values, and the vector values (``vpad[pos + 1]``).
        self.m_addrs = _addresses(self.mvals_base, match_k)
        self.v_addrs = _addresses(self.vpad_base + 4, match_vpos)
        self.row = 0
        self.cursor = 0
        self.match_cursor = 0
        self.count = self._make_stream("count", config.n_buffers, 1)
        self.mval = self._make_stream("mval", config.n_buffers, config.buffer_elems)
        self.vval = self._make_stream("vval", config.n_buffers, config.buffer_elems)
        if self.nrows == 0:
            self.exhausted = True

    def step(self) -> None:
        cfg = self.config
        read_seq = self._read_seq
        requester = self.requester
        latency = self.port.latency
        i = self.row
        self.row = i + 1
        nc = self.lengths[i]
        v_used = self.v_used[i]
        nm = self.matches[i]
        lo = self.cursor
        self.cursor = lo + nc
        m0 = self.match_cursor
        m1 = self.match_cursor = m0 + nm

        # Timing: stream both index lists, merge at one comparison per
        # merge_cycles_per_step, then gather the matched value pairs.
        t = self.time
        wide = cfg.seq_words_per_slot
        t_meta = read_seq(self.cols_base + 4 * lo, nc, t, requester, wide)
        t_meta = read_seq(self.v_idx_base, v_used,
                          (t_meta - latency + 1) if nc else t, requester, wide)
        merge_done = max(t_meta, t + (nc + v_used) * cfg.merge_cycles_per_step)
        if nm:
            # Matched (matrix, vector) value pairs interleave on the
            # port: the matrix values at odd offsets, then the vector
            # values at even offsets.
            gather = self._gather
            t_pairs = max(
                gather(self.m_addrs, m0, nm, merge_done + 1, requester, 2),
                gather(self.v_addrs, m0, nm, merge_done + 2, requester, 2),
            )
        else:
            t_pairs = merge_done

        self.count.push_fill(merge_done + cfg.fill_overhead,
                             self.count_words[i:i + 1])
        self.count.stats.elements_supplied += 1
        if nm:
            ready = t_pairs + cfg.fill_overhead
            self.mval.push_fill(ready, self.mwords[m0:m1])
            self.vval.push_fill(ready, self.vwords[m0:m1])
            self.mval.stats.elements_supplied += nm
            self.vval.stats.elements_supplied += nm
        self.buffers_filled += 1
        self.time = max(t + 1, t_pairs - latency + 1)
        if self.row >= self.nrows:
            self.exhausted = True
