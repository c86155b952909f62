"""Property-based tests on the HHT back-end engines.

Whatever the random matrix/vector, each engine's emitted stream must be
functionally identical to the direct numpy computation, the ready times
must be monotonically non-decreasing, and wait accounting must stay
consistent.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HHTConfig
from repro.core.engines import (
    SpMSpVAlignedEngine,
    SpMSpVValueEngine,
    SpMVGatherEngine,
)
from repro.formats import CSRMatrix, SparseVector
from repro.memory import MemoryPort, Ram


@st.composite
def problems(draw, max_dim=16):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**31 - 1))
    density = draw(st.floats(0.0, 1.0))
    v_density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(seed)
    dense = rng.uniform(0.1, 1.0, (nrows, ncols)).astype(np.float32)
    dense[rng.random((nrows, ncols)) >= density] = 0.0
    vd = rng.uniform(0.1, 1.0, ncols).astype(np.float32)
    sv_dense = vd.copy()
    sv_dense[rng.random(ncols) >= v_density] = 0.0
    nbuf = draw(st.sampled_from([1, 2, 4]))
    blen = draw(st.sampled_from([2, 4, 8]))
    return (
        CSRMatrix.from_dense(dense),
        vd,
        SparseVector.from_dense(sv_dense),
        HHTConfig(n_buffers=nbuf, buffer_elems=blen),
    )


def build(engine_cls, matrix, config, *, v=None, sv=None):
    ram = Ram(1 << 16)
    addr = 0x100
    regs = {"m_num_rows": matrix.nrows, "m_num_cols": matrix.ncols}

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
    return engine_cls(config, MemoryPort(), 0, ram, regs)


def drain(stream):
    """Every staged element as ``(ready_at, bits)``, read fill by fill."""
    items = []
    while (piece := stream.read(stream.unconsumed)) is not None:
        ready, words = piece
        items.extend((ready, bits) for bits in words.tolist())
    return items


def run_to_exhaustion(engine):
    guard = 0
    while not engine.exhausted:
        engine.step()
        guard += 1
        assert guard < 10_000, "engine failed to converge"


@settings(max_examples=40, deadline=None)
@given(problem=problems())
def test_spmv_engine_stream_is_gather(problem):
    matrix, v, _, config = problem
    engine = build(SpMVGatherEngine, matrix, config, v=v)
    run_to_exhaustion(engine)
    items = drain(engine.vval)
    got = np.array([b for _, b in items], np.uint32).view(np.float32)
    expected = np.asarray(v, np.float32)[matrix.cols]
    assert np.array_equal(got, expected)
    readies = [r for r, _ in items]
    assert readies == sorted(readies)


@settings(max_examples=40, deadline=None)
@given(problem=problems())
def test_value_engine_stream_is_masked_lookup(problem):
    matrix, _, sv, config = problem
    engine = build(SpMSpVValueEngine, matrix, config, sv=sv)
    run_to_exhaustion(engine)
    got = np.array(
        [b for _, b in drain(engine.vval)], np.uint32
    ).view(np.float32)
    expected = sv.padded_values()[sv.position_map()[matrix.cols]]
    assert np.array_equal(got, expected)


@settings(max_examples=40, deadline=None)
@given(problem=problems())
def test_aligned_engine_reconstructs_product(problem):
    matrix, _, sv, config = problem
    engine = build(SpMSpVAlignedEngine, matrix, config, sv=sv)
    run_to_exhaustion(engine)
    counts = [b for _, b in drain(engine.count)]
    mvals = np.array(
        [b for _, b in drain(engine.mval)], np.uint32
    ).view(np.float32)
    vvals = np.array(
        [b for _, b in drain(engine.vval)], np.uint32
    ).view(np.float32)
    assert len(counts) == matrix.nrows
    assert sum(counts) == mvals.size == vvals.size
    y = np.zeros(matrix.nrows)
    k = 0
    for i, c in enumerate(counts):
        y[i] = float(
            mvals[k : k + c].astype(np.float64)
            @ vvals[k : k + c].astype(np.float64)
        )
        k += c
    ref = matrix.to_dense().astype(np.float64) @ sv.to_dense().astype(np.float64)
    assert np.allclose(y, ref, rtol=1e-5, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(problem=problems(max_dim=12))
def test_pump_with_consumer_never_deadlocks(problem):
    """Alternating pump/drain always terminates with everything consumed."""
    matrix, v, _, config = problem
    engine = build(SpMVGatherEngine, matrix, config, v=v)
    consumed = 0
    now = 0
    guard = 0
    engine.pump(now)
    while not engine.drained():
        piece = engine.streams["vval"].read(1)
        if piece is not None:
            consumed += piece[1].size
            now = max(now, piece[0])
        engine.pump(now)
        guard += 1
        assert guard < 50_000
    assert consumed == matrix.nnz
    assert engine.wait_for_buffer_cycles >= 0
