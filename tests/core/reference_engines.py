"""The per-fill HHT back-end engines, kept as the reference for the plan.

The engines in :mod:`repro.core.engines` plan every fill at START with
numpy.  These are the loop versions they replaced: each ``step`` derives
its fill from the metadata as it goes (a row-chunk loop for SpMV and
variant 2, a per-row sorted-index merge for variant 1).  They share the
production :class:`BackEndEngine` (streams, clock, ``pump``), so a test
that drives both over the same operands compares only what the plan
changed.

The programmable engine resumes its helper core's session once per row,
and the emit device stops the run at the store that completes the row.
:class:`ReferenceProgrammableEngine` is the loop those runs replaced: one
instruction per call, the emitted words drained after each.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.engines import BackEndEngine, EngineError
from repro.core.programmable import (
    EMIT_COUNT,
    EMIT_MVAL,
    EMIT_VVAL,
    HELPER_EMIT_BASE,
    ProgrammableEngine,
)


def row_chunks(rows: np.ndarray, blen: int) -> list[int]:
    """Buffer-fill sizes aligned to the CPU's row-chunked vector loop."""
    chunks: list[int] = []
    for nnz_row in np.diff(rows):
        nnz_row = int(nnz_row)
        while nnz_row > 0:
            take = blen if nnz_row >= blen else nnz_row
            chunks.append(take)
            nnz_row -= take
    return chunks


class _ReferenceEngine(BackEndEngine):
    def _seq_read(self, cycle: int, addr: int, words: int) -> int:
        return self.mem.read_seq(
            addr, words, cycle, self.requester,
            words_per_slot=self.config.seq_words_per_slot,
        )


class ReferenceSpMVEngine(_ReferenceEngine):
    def __init__(self, config, mem, start_cycle, ram, regs,
                 requester="hht"):
        super().__init__(config, mem, start_cycle, requester)
        nrows = regs["m_num_rows"]
        rows = ram.read_array(regs["m_rows_base"], nrows + 1, np.int32)
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
        self.words = v_bits[self.cols]
        self.cursor = 0
        self.chunks = row_chunks(rows, config.buffer_elems)
        self.chunk_idx = 0
        self.vval = self._make_stream("vval", config.n_buffers,
                                      config.buffer_elems)
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
        t_cols = self._seq_read(t, self.cols_base + 4 * start, count)
        first_col_ready = t_cols - (count - 1) // cfg.seq_words_per_slot
        v_base = self.v_base
        t_v = self.mem.gather(
            [v_base + 4 * col for col in chunk.tolist()], 0, count,
            first_col_ready + 1, self.requester,
        )
        ready = t_v + cfg.fill_overhead

        self.vval.push_group(ready, self.words[start : start + count])
        self.vval.stats.elements_supplied += count
        self.buffers_filled += 1
        self.time = max(t + 1, t_v - self.port.latency + 1)
        if self.cursor >= self.nnz:
            self.exhausted = True


class ReferenceValueEngine(_ReferenceEngine):
    def __init__(self, config, mem, start_cycle, ram, regs,
                 requester="hht"):
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
        self.words = vpad_bits[self.posmap[self.cols]]
        self.cursor = 0
        self.chunks = row_chunks(rows, config.buffer_elems)
        self.chunk_idx = 0
        self.vval = self._make_stream("vval", config.n_buffers,
                                      config.buffer_elems)
        if self.nnz == 0:
            self.exhausted = True

    def step(self) -> None:
        cfg = self.config
        count = self.chunks[self.chunk_idx]
        self.chunk_idx += 1
        start = self.cursor
        self.cursor += count
        chunk = self.cols[start : start + count]
        hits = int(np.count_nonzero(self.posmap[chunk]))

        t = self.time
        t_cols = self._seq_read(t, self.cols_base + 4 * start, count)
        first_col_ready = t_cols - (count - 1) // cfg.seq_words_per_slot
        map_base = self.map_base
        t_map = self.mem.gather(
            [map_base + 4 * col for col in chunk.tolist()], 0, count,
            first_col_ready + 1, self.requester,
        )
        if hits:
            first_map_ready = t_map - (hits - 1)
            vpad_base = self.vpad_base
            t_val = self.mem.gather(
                [vpad_base + 4 * pos
                 for pos in self.posmap[chunk].tolist() if pos], 0, hits,
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


class ReferenceAlignedEngine(_ReferenceEngine):
    def __init__(self, config, mem, start_cycle, ram, regs,
                 requester="hht"):
        super().__init__(config, mem, start_cycle, requester)
        self.nrows = regs["m_num_rows"]
        self.rows = ram.read_array(regs["m_rows_base"], self.nrows + 1,
                                   np.int32)
        if self.nrows and self.rows[0]:
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
        self.mval = self._make_stream("mval", config.n_buffers,
                                      config.buffer_elems)
        self.vval = self._make_stream("vval", config.n_buffers,
                                      config.buffer_elems)
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

        if nc and v_nnz:
            pos = np.searchsorted(self.v_idx, row_cols)
            valid = pos < v_nnz
            valid[valid] &= self.v_idx[pos[valid]] == row_cols[valid]
            matched_k = np.nonzero(valid)[0]
            matched_vpos = pos[valid]
            v_used = int(
                min(v_nnz, np.searchsorted(self.v_idx, row_cols[-1],
                                           side="right"))
            )
        else:
            matched_k = np.empty(0, np.int64)
            matched_vpos = np.empty(0, np.int64)
            v_used = 0
        nm = matched_k.size

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
            mvals = self.mvals_base + 4 * lo
            vpad = self.vpad_base + 4
            t_pairs = max(
                self.mem.gather(
                    [mvals + 4 * k for k in matched_k.tolist()], 0, nm,
                    merge_done + 1, self.requester, step=2),
                self.mem.gather(
                    [vpad + 4 * p for p in matched_vpos.tolist()], 0, nm,
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


def step_one(session) -> bool:
    """Run one instruction of *session* under an external clock; False
    once the core halted.  The budget counts the core's absolute
    instruction total."""
    cpu = session.cpu
    if cpu.halted:
        return False
    pc = session._pc
    fn = session._steps.get(pc) or session._bind_step(pc)
    session._pc = fn(cpu)
    stats = cpu.counters
    stats.instructions += 1
    if stats.instructions >= cpu.config.max_instructions:
        raise session._budget_error(cpu.config.max_instructions)
    stats.cycles = cpu.cycle
    return not cpu.halted


class ReferenceProgrammableEngine(ProgrammableEngine):
    """The helper core stepped one instruction at a time, its emitted
    words queued and drained after every instruction until a row is
    complete.  The engine itself is the emit device, and it never stops
    the helper."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pending: deque[tuple[str, int, int]] = deque()
        bus = self.helper.bus
        bus._devices.clear()
        bus._device_bases.clear()
        bus.attach_device(HELPER_EMIT_BASE, 0x10, self)

    def write_word(self, offset: int, value: int, cycle: int) -> int:
        stream = {EMIT_COUNT: "count", EMIT_MVAL: "mval",
                  EMIT_VVAL: "vval"}.get(offset)
        if stream is None:
            raise EngineError(f"firmware stored to bad emit offset 0x{offset:x}")
        self.pending.append((stream, value & 0xFFFFFFFF, cycle + 1))
        return cycle + 1

    def step(self) -> None:
        helper = self.helper
        if helper.cycle < self.time:
            helper.cycle = self.time
        pending = self.pending
        count_val = None
        count_ready = 0
        mvals: list[int] = []
        vvals: list[int] = []
        last_ready = helper.cycle
        while True:
            alive = step_one(self.session)
            while pending:
                stream, bits, ready = pending.popleft()
                last_ready = ready
                if stream == "count":
                    if count_val is not None:
                        raise EngineError(
                            "firmware emitted a second count before "
                            "completing the previous row's pairs"
                        )
                    count_val, count_ready = bits, ready
                elif stream == "mval":
                    mvals.append(bits)
                else:
                    vvals.append(bits)
            if count_val is not None and len(mvals) == count_val == len(vvals):
                break
            if not alive:
                if count_val is None and not mvals and not vvals:
                    self.exhausted = True
                    self.time = helper.cycle
                    return
                raise EngineError("firmware halted in the middle of a row")
        overhead = self.config.fill_overhead
        self.count.push(count_ready + overhead, count_val)
        self.count.stats.elements_supplied += 1
        if count_val:
            ready = last_ready + overhead
            self.mval.push_group(ready, np.array(mvals, np.uint32))
            self.vval.push_group(ready, np.array(vvals, np.uint32))
            self.mval.stats.elements_supplied += count_val
            self.vval.stats.elements_supplied += count_val
        self.buffers_filled += 1
        self.time = helper.cycle
        if helper.halted:
            self.exhausted = True
