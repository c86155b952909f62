"""COO format tests."""

import numpy as np
import pytest

from repro.formats import COOMatrix, SparseFormatError


class TestConstruction:
    def test_from_dense_round_trip(self, rng):
        dense = rng.random((7, 9), dtype=np.float32)
        dense[rng.random((7, 9)) < 0.5] = 0
        m = COOMatrix.from_dense(dense)
        assert np.array_equal(m.to_dense(), dense)

    def test_from_triples(self):
        m = COOMatrix.from_triples((3, 3), [(0, 1, 2.0), (2, 0, 5.0)])
        assert m.nnz == 2
        assert m.to_dense()[0, 1] == 2.0
        assert m.to_dense()[2, 0] == 5.0

    def test_from_triples_empty(self):
        m = COOMatrix.from_triples((2, 2), [])
        assert m.nnz == 0

    def test_sparsity(self):
        m = COOMatrix.from_triples((2, 2), [(0, 0, 1.0)])
        assert m.sparsity == pytest.approx(0.75)


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(SparseFormatError, match="equal length"):
            COOMatrix((2, 2), [0, 1], [0], [1.0])

    def test_row_out_of_range(self):
        with pytest.raises(SparseFormatError, match="row indices"):
            COOMatrix((2, 2), [2], [0], [1.0])

    def test_col_out_of_range(self):
        with pytest.raises(SparseFormatError, match="column indices"):
            COOMatrix((2, 2), [0], [5], [1.0])

    def test_duplicates_rejected(self):
        with pytest.raises(SparseFormatError, match="duplicate"):
            COOMatrix((2, 2), [0, 0], [1, 1], [1.0, 2.0])


class TestSorting:
    def test_sorted_row_major(self):
        m = COOMatrix((3, 3), [2, 0, 1], [1, 2, 0], [1.0, 2.0, 3.0])
        s = m.sorted_row_major()
        assert s.row_indices.tolist() == [0, 1, 2]
        assert s.col_indices.tolist() == [2, 0, 1]
        assert np.array_equal(s.to_dense(), m.to_dense())

    def test_row_major_breaks_ties_by_column(self):
        m = COOMatrix((2, 4), [0, 0, 0], [3, 1, 2], [1.0, 2.0, 3.0])
        s = m.sorted_row_major()
        assert s.col_indices.tolist() == [1, 2, 3]


def test_storage_bytes():
    m = COOMatrix.from_triples((4, 4), [(0, 0, 1.0), (1, 1, 2.0)])
    assert m.storage_bytes() == 2 * 3 * 4  # two triples, three words each
