"""Back-end engine tests: functional streams, timing ordering, gating."""

import numpy as np
import pytest

from repro.core import HHTConfig
from repro.core.engines import (
    SpMSpVAlignedEngine,
    SpMSpVValueEngine,
    SpMVGatherEngine,
)
from repro.formats import CSRMatrix, SparseVector
from repro.memory import MemoryPort, MemorySystem, Ram
from repro.workloads import (
    random_csr,
    random_dense_vector,
    random_sparse_vector,
)

from .test_engine_properties import consume


def flat_memory() -> MemorySystem:
    """The Table-1 memory system: one flat port, no L1D."""
    return MemorySystem(MemoryPort())


def load_operands(matrix: CSRMatrix, v=None, sv: SparseVector | None = None):
    """Place operands in a fresh RAM; return (ram, regs)."""
    ram = Ram(1 << 16)
    addr = 0x100
    regs = {
        "m_num_rows": matrix.nrows,
        "m_num_cols": matrix.ncols,
    }

    def place(key, arr):
        nonlocal addr
        arr = np.ascontiguousarray(arr)
        regs[key] = addr
        if arr.size:
            ram.write_array(addr, arr)
        addr += max(arr.size * 4, 4)

    place("m_rows_base", matrix.rows)
    place("m_cols_base", matrix.cols)
    place("m_vals_base", matrix.vals)
    if v is not None:
        place("v_base", np.asarray(v, np.float32))
    if sv is not None:
        regs["v_nnz"] = sv.nnz
        place("v_idx_base", sv.indices)
        place("v_vals_base", sv.padded_values())
        place("v_map_base", sv.position_map())
    return ram, regs


def drain(stream):
    """Every staged element as ``(ready_at, bits)``, read fill by fill."""
    out = []
    while (piece := stream.read(stream.unconsumed)) is not None:
        ready, words = piece
        out.extend((ready, bits) for bits in words.tolist())
    return out


@pytest.fixture
def small_matrix():
    dense = np.array(
        [
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [3.0, 4.0, 5.0, 6.0],
        ],
        dtype=np.float32,
    )
    return CSRMatrix.from_dense(dense)


class TestSpMVGatherEngine:
    def test_streams_gathered_values_in_order(self, small_matrix):
        v = np.array([10.0, 20.0, 30.0, 40.0], np.float32)
        ram, regs = load_operands(small_matrix, v=v)
        engine = SpMVGatherEngine(HHTConfig(), flat_memory(), 0, ram, regs)
        while not engine.exhausted:
            engine.step()
        items = drain(engine.vval)
        values = np.array([bits for _, bits in items], np.uint32).view(np.float32)
        # cols are [0,2, 0,1,2,3] -> v values [10,30, 10,20,30,40]
        assert values.tolist() == [10.0, 30.0, 10.0, 20.0, 30.0, 40.0]

    def test_ready_times_monotonic(self, small_matrix):
        v = np.ones(4, np.float32)
        ram, regs = load_operands(small_matrix, v=v)
        engine = SpMVGatherEngine(HHTConfig(), flat_memory(), 0, ram, regs)
        while not engine.exhausted:
            engine.step()
        readies = [r for r, _ in drain(engine.vval)]
        assert readies == sorted(readies)
        assert readies[0] > 0  # fills take time

    def test_row_aligned_chunking(self):
        """Fills never straddle rows (the CPU's vsetvli loop boundaries)."""
        dense = np.zeros((2, 16), np.float32)
        dense[0, :10] = 1.0  # row 0: 10 nnz -> chunks 8 + 2
        dense[1, :3] = 2.0   # row 1: 3 nnz -> chunk 3
        m = CSRMatrix.from_dense(dense)
        ram, regs = load_operands(m, v=np.ones(16, np.float32))
        engine = SpMVGatherEngine(HHTConfig(), flat_memory(), 0, ram, regs)
        assert engine.chunks == [8, 2, 3]

    def test_empty_matrix_immediately_exhausted(self):
        m = CSRMatrix.empty((3, 3))
        ram, regs = load_operands(m, v=np.ones(3, np.float32))
        engine = SpMVGatherEngine(HHTConfig(), flat_memory(), 0, ram, regs)
        assert engine.exhausted
        assert engine.drained()

    def test_capacity_gating_blocks_pump(self, small_matrix):
        v = np.ones(4, np.float32)
        ram, regs = load_operands(small_matrix, v=v)
        engine = SpMVGatherEngine(
            HHTConfig(n_buffers=1), flat_memory(), 0, ram, regs
        )
        engine.pump(0)
        # One buffer slot -> exactly one chunk staged, engine blocked.
        assert engine.vval.occupied_slots == 1
        assert not engine.exhausted
        assert engine.blocked_since is not None

    def test_hht_wait_accounting(self, small_matrix):
        v = np.ones(4, np.float32)
        ram, regs = load_operands(small_matrix, v=v)
        engine = SpMVGatherEngine(
            HHTConfig(n_buffers=1), flat_memory(), 0, ram, regs
        )
        engine.pump(0)
        blocked_at = engine.blocked_since
        # Free the buffer much later; the gap is charged as HHT wait.
        drain(engine.vval)
        engine.pump(blocked_at + 100)
        assert engine.wait_for_buffer_cycles >= 100


class TestSpMSpVValueEngine:
    def test_emits_value_or_zero_per_nonzero(self, small_matrix):
        sv = SparseVector(4, [0, 3], [10.0, 40.0])
        ram, regs = load_operands(small_matrix, sv=sv)
        engine = SpMSpVValueEngine(HHTConfig(), flat_memory(), 0, ram, regs)
        while not engine.exhausted:
            engine.step()
        values = np.array(
            [bits for _, bits in drain(engine.vval)], np.uint32
        ).view(np.float32)
        # matrix cols: [0,2, 0,1,2,3] -> vector values [10,0, 10,0,0,40]
        assert values.tolist() == [10.0, 0.0, 10.0, 0.0, 0.0, 40.0]

    def test_misses_skip_value_fetch(self, small_matrix):
        """At full vector sparsity the BE issues fewer memory requests."""
        def port_requests(sv):
            ram, regs = load_operands(small_matrix, sv=sv)
            port = MemoryPort()
            engine = SpMSpVValueEngine(HHTConfig(), MemorySystem(port), 0,
                                       ram, regs)
            while not engine.exhausted:
                engine.step()
            return port.counters.requests

        dense_v = SparseVector(4, [0, 1, 2, 3], [1.0, 1.0, 1.0, 1.0])
        empty_v = SparseVector(4, [], [])
        assert port_requests(empty_v) < port_requests(dense_v)


class TestSpMSpVAlignedEngine:
    def test_counts_and_pairs(self, small_matrix):
        sv = SparseVector(4, [0, 3], [10.0, 40.0])
        ram, regs = load_operands(small_matrix, sv=sv)
        engine = SpMSpVAlignedEngine(HHTConfig(), flat_memory(), 0, ram, regs)
        while not engine.exhausted:
            engine.step()
        counts = [bits for _, bits in drain(engine.count)]
        assert counts == [1, 0, 2]  # row matches: col0; none; col0+col3
        mvals = np.array(
            [bits for _, bits in drain(engine.mval)], np.uint32
        ).view(np.float32)
        vvals = np.array(
            [bits for _, bits in drain(engine.vval)], np.uint32
        ).view(np.float32)
        assert mvals.tolist() == [1.0, 3.0, 6.0]
        assert vvals.tolist() == [10.0, 10.0, 40.0]

    def test_pairwise_products_match_reference(self, rng):
        dense = rng.random((10, 16), dtype=np.float32)
        dense[rng.random((10, 16)) < 0.5] = 0
        m = CSRMatrix.from_dense(dense)
        dv = rng.random(16, dtype=np.float32)
        dv[rng.random(16) < 0.5] = 0
        sv = SparseVector.from_dense(dv)
        ram, regs = load_operands(m, sv=sv)
        engine = SpMSpVAlignedEngine(HHTConfig(), flat_memory(), 0, ram, regs)
        while not engine.exhausted:
            engine.step()
        counts = [bits for _, bits in drain(engine.count)]
        mvals = np.array(
            [bits for _, bits in drain(engine.mval)], np.uint32
        ).view(np.float32)
        vvals = np.array(
            [bits for _, bits in drain(engine.vval)], np.uint32
        ).view(np.float32)
        # Reconstruct y from the pair streams and compare to the reference.
        y = np.zeros(m.nrows, np.float64)
        k = 0
        for i, c in enumerate(counts):
            y[i] = np.sum(mvals[k : k + c].astype(np.float64)
                          * vvals[k : k + c].astype(np.float64))
            k += c
        ref = dense.astype(np.float64) @ dv.astype(np.float64)
        assert np.allclose(y, ref, rtol=1e-5)

    def test_count_ready_before_pairs(self, small_matrix):
        sv = SparseVector(4, [0, 3], [10.0, 40.0])
        ram, regs = load_operands(small_matrix, sv=sv)
        engine = SpMSpVAlignedEngine(HHTConfig(), flat_memory(), 0, ram, regs)
        engine.step()  # row 0
        count_ready = engine.count.read(1)[0]
        pair_ready = engine.mval.read(1)[0]
        assert count_ready <= pair_ready

    def test_empty_vector_all_zero_counts(self, small_matrix):
        sv = SparseVector(4, [], [])
        ram, regs = load_operands(small_matrix, sv=sv)
        engine = SpMSpVAlignedEngine(HHTConfig(), flat_memory(), 0, ram, regs)
        while not engine.exhausted:
            engine.step()
        counts = [bits for _, bits in drain(engine.count)]
        assert counts == [0, 0, 0]
        assert drain(engine.mval) == []


class TestTileView:
    """A row tile programmed as a view of a larger CSR — ``M_ROWS_BASE``
    at the tile's first row pointer (so ``rows[0] != 0``) and
    ``M_COLS_BASE``/``M_VALS_BASE`` pre-offset to its first non-zero —
    runs exactly as the same rows loaded as their own CSR."""

    ROWS = slice(8, 16)

    @pytest.fixture(scope="class")
    def operands(self):
        return (
            random_csr((24, 24), 0.4, seed=7),
            random_dense_vector(24, seed=8),
            random_sparse_vector(24, 0.5, seed=9),
        )

    def run(self, engine_cls, n_buffers, ram, regs):
        port = MemoryPort()
        engine = engine_cls(HHTConfig(n_buffers=n_buffers),
                            MemorySystem(port), 0, ram, regs)
        pieces = consume(engine)
        return pieces, engine.time, engine.buffers_filled, port.stats()

    @pytest.mark.parametrize("n_buffers", [1, 2])
    @pytest.mark.parametrize("engine_cls", [
        SpMVGatherEngine, SpMSpVAlignedEngine, SpMSpVValueEngine,
    ], ids=["spmv", "spmspv_v1", "spmspv_v2"])
    def test_tile_view_matches_own_csr(self, engine_cls, n_buffers,
                                       operands):
        matrix, v, sv = operands
        first, last = self.ROWS.start, self.ROWS.stop
        ram, regs = load_operands(matrix, v=v, sv=sv)
        offset = 4 * int(matrix.rows[first])
        assert offset
        regs["m_num_rows"] = last - first
        regs["m_rows_base"] += 4 * first
        regs["m_cols_base"] += offset
        regs["m_vals_base"] += offset
        view = self.run(engine_cls, n_buffers, ram, regs)

        tile = CSRMatrix.from_dense(matrix.to_dense()[self.ROWS])
        own = self.run(engine_cls, n_buffers,
                       *load_operands(tile, v=v, sv=sv))
        assert view == own
        assert view[2] > 1
