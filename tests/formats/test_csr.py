"""CSR format: construction, validation, row access, reference kernels."""

import numpy as np
import pytest

from repro.formats import CSRMatrix, SparseFormatError

# The paper's Fig. 1 example matrix:
#   [a 0 b]
#   [0 0 c]
#   [d 0 0]
FIG1_DENSE = np.array(
    [[1.0, 0.0, 2.0], [0.0, 0.0, 3.0], [4.0, 0.0, 0.0]], dtype=np.float32
)


def fig1_csr() -> CSRMatrix:
    return CSRMatrix.from_dense(FIG1_DENSE)


class TestConstruction:
    def test_fig1_arrays(self):
        m = fig1_csr()
        assert m.rows.tolist() == [0, 2, 3, 4]
        assert m.cols.tolist() == [0, 2, 2, 0]
        assert m.vals.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_round_trip(self):
        assert np.array_equal(fig1_csr().to_dense(), FIG1_DENSE)

    def test_nnz_and_sparsity(self):
        m = fig1_csr()
        assert m.nnz == 4
        assert m.sparsity == pytest.approx(5 / 9)
        assert m.density == pytest.approx(4 / 9)

    def test_from_arrays_validates(self):
        m = CSRMatrix.from_arrays((3, 3), [0, 2, 3, 4], [0, 2, 2, 0], [1, 2, 3, 4])
        assert m.nnz == 4

    def test_empty_matrix(self):
        m = CSRMatrix.empty((4, 5))
        assert m.nnz == 0
        assert m.shape == (4, 5)
        assert np.array_equal(m.to_dense(), np.zeros((4, 5), np.float32))
        assert m.sparsity == 1.0

    def test_zero_dimension(self):
        m = CSRMatrix.from_dense(np.zeros((0, 3), np.float32))
        assert m.nnz == 0
        assert m.to_dense().shape == (0, 3)

    def test_dtype_coercion(self):
        m = CSRMatrix((2, 2), [0, 1, 2], [0, 1], [1.5, 2.5])
        assert m.rows.dtype == np.int32
        assert m.vals.dtype == np.float32

    def test_non_2d_dense_rejected(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix.from_dense(np.zeros(5, np.float32))


class TestValidation:
    def test_bad_rows_length(self):
        with pytest.raises(SparseFormatError, match="rows array"):
            CSRMatrix((3, 3), [0, 2, 4], [0, 2, 2, 0], [1, 2, 3, 4])

    def test_mismatched_cols_vals(self):
        with pytest.raises(SparseFormatError, match="lengths differ"):
            CSRMatrix((3, 3), [0, 2, 3, 4], [0, 2, 2, 0], [1, 2, 3])

    def test_nonzero_first_pointer(self):
        with pytest.raises(SparseFormatError, match=r"rows\[0\]"):
            CSRMatrix((3, 3), [1, 2, 3, 4], [0, 2, 2], [1, 2, 3])

    def test_last_pointer_must_equal_nnz(self):
        with pytest.raises(SparseFormatError, match=r"rows\[-1\]"):
            CSRMatrix((3, 3), [0, 2, 3, 5], [0, 2, 2, 0], [1, 2, 3, 4])

    def test_decreasing_pointers(self):
        with pytest.raises(SparseFormatError, match="non-decreasing"):
            CSRMatrix((3, 3), [0, 3, 2, 4], [0, 1, 2, 0], [1, 2, 3, 4])

    def test_column_out_of_range(self):
        with pytest.raises(SparseFormatError, match="column indices"):
            CSRMatrix((3, 3), [0, 1, 1, 1], [3], [1.0])

    def test_negative_column(self):
        with pytest.raises(SparseFormatError, match="column indices"):
            CSRMatrix((3, 3), [0, 1, 1, 1], [-1], [1.0])

    def test_unsorted_columns_within_row(self):
        with pytest.raises(SparseFormatError, match="strictly increasing"):
            CSRMatrix((2, 3), [0, 2, 2], [2, 0], [1.0, 2.0])

    def test_duplicate_columns_within_row(self):
        with pytest.raises(SparseFormatError, match="strictly increasing"):
            CSRMatrix((2, 3), [0, 2, 2], [1, 1], [1.0, 2.0])

    def test_negative_shape(self):
        with pytest.raises(SparseFormatError):
            CSRMatrix((-1, 3), [0], [], [])


class TestRowAccess:
    def test_row_nnz(self):
        m = fig1_csr()
        assert [m.row_nnz(i) for i in range(3)] == [2, 1, 1]

    def test_row_slice(self):
        m = fig1_csr()
        cols, vals = m.row_slice(0)
        assert cols.tolist() == [0, 2]
        assert vals.tolist() == [1.0, 2.0]

    def test_iter_rows_covers_all(self):
        m = fig1_csr()
        seen = [(i, cols.tolist(), vals.tolist()) for i, cols, vals in m.iter_rows()]
        assert seen == [
            (0, [0, 2], [1.0, 2.0]),
            (1, [2], [3.0]),
            (2, [0], [4.0]),
        ]


class TestStorage:
    def test_storage_bytes(self):
        m = fig1_csr()
        # rows(4) + cols(4) + vals(4) words
        assert m.storage_bytes() == (4 + 4 + 4) * 4

    def test_compression_ratio_sparse_wins(self):
        dense = np.zeros((64, 64), np.float32)
        dense[0, 0] = 1.0
        m = CSRMatrix.from_dense(dense)
        assert m.compression_ratio() > 10

    def test_dense_bytes(self):
        assert fig1_csr().dense_bytes() == 9 * 4

    def test_allclose_other_format(self):
        m = fig1_csr()
        assert m.allclose(FIG1_DENSE)
        assert not m.allclose(FIG1_DENSE.T)
