"""Property-based tests (hypothesis) on the sparse format invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.formats import (
    FORMATS,
    COOMatrix,
    CSRMatrix,
    SparseVector,
    convert,
    read_mtx,
    write_mtx,
)

# Small dense float32 matrices with plenty of zeros.  Values are drawn
# from a finite set away from denormals so float32 round-trips exactly.
_VALUES = st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0, 0.5, 2.0, -3.25, 100.0])


def dense_matrices(max_dim: int = 12):
    return st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim)
    ).flatmap(
        lambda shape: arrays(np.float32, shape, elements=_VALUES)
    )


def dense_vectors(max_len: int = 40):
    return st.integers(1, max_len).flatmap(
        lambda n: arrays(np.float32, (n,), elements=_VALUES)
    )


@settings(max_examples=60, deadline=None)
@given(dense=dense_matrices(), target=st.sampled_from(sorted(FORMATS)))
def test_every_format_round_trips(dense, target):
    """from_dense . to_dense is the identity for every format."""
    m = FORMATS[target].from_dense(dense)
    assert np.array_equal(m.to_dense(), dense)
    m.validate()


@settings(max_examples=60, deadline=None)
@given(dense=dense_matrices(), a=st.sampled_from(sorted(FORMATS)),
       b=st.sampled_from(sorted(FORMATS)))
def test_conversion_chain_preserves_contents(dense, a, b):
    """convert(convert(x, a), b) has the same dense contents as x."""
    first = convert(FORMATS[a].from_dense(dense), a)
    second = convert(first, b)
    assert np.array_equal(second.to_dense(), dense)


@settings(max_examples=60, deadline=None)
@given(dense=dense_matrices())
def test_nnz_is_format_invariant(dense):
    """Every format agrees on the logical non-zero count."""
    expected = int(np.count_nonzero(dense))
    for name, cls in FORMATS.items():
        assert cls.from_dense(dense).nnz == expected, name


@settings(max_examples=50, deadline=None)
@given(dense=dense_matrices())
def test_sparsity_bounds(dense):
    m = CSRMatrix.from_dense(dense)
    assert 0.0 <= m.sparsity <= 1.0
    assert m.sparsity + m.density == 1.0


@settings(max_examples=50, deadline=None)
@given(dense=dense_matrices())
def test_mtx_round_trip(dense):
    """write_mtx . read_mtx preserves the matrix exactly (float32 values)."""
    m = COOMatrix.from_dense(dense)
    back = read_mtx(write_mtx(m))
    assert np.array_equal(back.to_dense(), dense)


@settings(max_examples=60, deadline=None)
@given(dense=dense_vectors())
def test_sparse_vector_map_composition(dense):
    """vpad[map[j]] == dense[j] for all j — the SpMSpV lookup identity."""
    sv = SparseVector.from_dense(dense)
    posmap, vpad = sv.position_map(), sv.padded_values()
    assert np.array_equal(vpad[posmap], dense)
