"""Property-based tests on the HHT back-end engines.

Whatever the random matrix/vector, each engine's emitted stream must be
functionally identical to the direct numpy computation, the ready times
must be monotonically non-decreasing, and wait accounting must stay
consistent.  The engines plan every fill at START; the per-fill loop
versions they replaced (``reference_engines``) must behave identically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HHTConfig
from repro.core.engines import (
    SpMSpVAlignedEngine,
    SpMSpVValueEngine,
    SpMVGatherEngine,
)
from repro.formats import CSRMatrix, SparseVector
from repro.memory import MemoryPort, MemorySystem, Ram

from .reference_engines import (
    ReferenceAlignedEngine,
    ReferenceSpMVEngine,
    ReferenceValueEngine,
)

#: Densities drawn often enough to reach an all-zero matrix, an empty
#: sparse vector and a full one, besides the random middle.
_DENSITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def problems(draw, max_dim=16):
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**31 - 1))
    density = draw(_DENSITY)
    v_density = draw(_DENSITY)
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


def build(engine_cls, matrix, config, *, v=None, sv=None, port=None):
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
    return engine_cls(config, MemorySystem(port or MemoryPort()), 0, ram,
                      regs)


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


def consume(engine):
    """Drive *engine* as a CPU would: pump, then read one buffer's worth
    from each stream in turn, advance the clock past it and pump again.
    Returns every piece read, per stream, as ``(ready_at, words)``."""
    pieces = {name: [] for name in engine.streams}
    now = 0
    engine.pump(now)
    guard = 0
    while not engine.drained():
        for name, stream in engine.streams.items():
            piece = stream.read(stream.buffer_elems)
            if piece is not None:
                ready, words = piece
                pieces[name].append((ready, words.tolist()))
                now = max(now, ready) + 1
            engine.pump(now)
        guard += 1
        assert guard < 10_000, "consumer failed to drain the engine"
    return pieces


_PAIRS = {
    "spmv": (SpMVGatherEngine, ReferenceSpMVEngine),
    "spmspv_v2": (SpMSpVValueEngine, ReferenceValueEngine),
    "spmspv_v1": (SpMSpVAlignedEngine, ReferenceAlignedEngine),
}


@pytest.mark.parametrize("banks", [1, 2], ids=["flat", "banks2"])
@pytest.mark.parametrize("kernel", sorted(_PAIRS))
@settings(max_examples=40, deadline=None)
@given(problem=problems())
def test_planned_engine_matches_per_fill_reference(kernel, banks, problem):
    """Planning every fill at START changes nothing a run can see: the
    same words and ready times per stream, the same engine clock, HHT
    wait and fill count, and the same port traffic — on the flat port's
    closed form and, with ``banks=2``, element by element."""
    matrix, v, sv, config = problem
    planned_cls, reference_cls = _PAIRS[kernel]
    runs = []
    for cls in (planned_cls, reference_cls):
        port = MemoryPort(banks=banks)
        engine = build(cls, matrix, config, v=v, sv=sv, port=port)
        pieces = consume(engine)
        runs.append((pieces, engine.time, engine.wait_for_buffer_cycles,
                      engine.buffers_filled, port.stats(),
                      port.next_free_slot))
    assert runs[0] == runs[1]
