"""Property-based end-to-end tests: simulated kernels == numpy, always."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import run_spmspv, run_spmv
from repro.formats import CSRMatrix, SparseVector


@st.composite
def sparse_problems(draw, max_dim=20):
    """A random CSR matrix + dense vector + sparse vector."""
    nrows = draw(st.integers(1, max_dim))
    ncols = draw(st.integers(1, max_dim))
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    dense = rng.uniform(0.1, 1.0, size=(nrows, ncols)).astype(np.float32)
    dense[rng.random((nrows, ncols)) >= density] = 0.0
    dv = rng.uniform(0.1, 1.0, size=ncols).astype(np.float32)
    sv_dense = dv.copy()
    sv_dense[rng.random(ncols) < draw(st.floats(0.0, 1.0))] = 0.0
    return CSRMatrix.from_dense(dense), dv, SparseVector.from_dense(sv_dense)


@settings(max_examples=25, deadline=None)
@given(problem=sparse_problems(), accel=st.sampled_from([None, "hht"]),
       vlmax=st.sampled_from([1, 4, 8]))
def test_spmv_always_matches_numpy(problem, accel, vlmax):
    matrix, v, _ = problem
    ref = matrix.to_dense().astype(np.float64) @ v.astype(np.float64)
    run = run_spmv(matrix, v, accel=accel, vlmax=vlmax, verify=False)
    assert np.allclose(run.y, ref, rtol=1e-3, atol=1e-4)


@settings(max_examples=25, deadline=None)
@given(problem=sparse_problems(),
       mode=st.sampled_from(["baseline", "hht_v1", "hht_v2"]),
       n_buffers=st.sampled_from([1, 2]))
def test_spmspv_always_matches_numpy(problem, mode, n_buffers):
    matrix, _, sv = problem
    ref = matrix.to_dense().astype(np.float64) @ sv.to_dense().astype(np.float64)
    run = run_spmspv(matrix, sv, mode=mode, n_buffers=n_buffers, verify=False)
    assert np.allclose(run.y, ref, rtol=1e-3, atol=1e-4)


@settings(max_examples=15, deadline=None)
@given(problem=sparse_problems(max_dim=16))
def test_hht_and_baseline_agree_bitwise_per_row_structure(problem):
    """Baseline and HHT versions compute the same chunked float32 sums."""
    matrix, v, _ = problem
    base = run_spmv(matrix, v, accel=None, verify=False)
    hht = run_spmv(matrix, v, accel="hht", verify=False)
    # Identical chunking order => identical float32 rounding.
    assert np.array_equal(base.y, hht.y)


@settings(max_examples=15, deadline=None)
@given(problem=sparse_problems(max_dim=16))
def test_cycle_counts_are_deterministic(problem):
    matrix, v, _ = problem
    a = run_spmv(matrix, v, accel="hht", verify=False)
    b = run_spmv(matrix, v, accel="hht", verify=False)
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
