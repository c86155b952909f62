"""Sparse vector tests (the SpMSpV operand)."""

import numpy as np
import pytest

from repro.formats import SparseFormatError, SparseVector


class TestConstruction:
    def test_from_dense(self):
        sv = SparseVector.from_dense(np.array([0, 2.0, 0, 3.0], np.float32))
        assert sv.n == 4
        assert sv.indices.tolist() == [1, 3]
        assert sv.values.tolist() == [2.0, 3.0]

    def test_round_trip(self, rng):
        dense = rng.random(37, dtype=np.float32)
        dense[rng.random(37) < 0.6] = 0
        sv = SparseVector.from_dense(dense)
        assert np.array_equal(sv.to_dense(), dense)

    def test_sparsity(self):
        sv = SparseVector(10, [0], [1.0])
        assert sv.sparsity == pytest.approx(0.9)

    def test_empty(self):
        sv = SparseVector(0, [], [])
        assert sv.sparsity == 1.0
        assert sv.nnz == 0


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(SparseFormatError):
            SparseVector(5, [1, 2], [1.0])

    def test_out_of_range(self):
        with pytest.raises(SparseFormatError, match="out of range"):
            SparseVector(3, [5], [1.0])

    def test_unsorted(self):
        with pytest.raises(SparseFormatError, match="strictly increasing"):
            SparseVector(5, [3, 1], [1.0, 2.0])

    def test_duplicates(self):
        with pytest.raises(SparseFormatError, match="strictly increasing"):
            SparseVector(5, [2, 2], [1.0, 2.0])

    def test_negative_length(self):
        with pytest.raises(SparseFormatError, match="non-negative"):
            SparseVector(-1, [], [])


class TestDerivedStructures:
    def test_position_map(self):
        sv = SparseVector(5, [1, 4], [2.0, 3.0])
        assert sv.position_map().tolist() == [0, 1, 0, 0, 2]

    def test_padded_values(self):
        sv = SparseVector(5, [1, 4], [2.0, 3.0])
        assert sv.padded_values().tolist() == [0.0, 2.0, 3.0]

    def test_map_and_padded_compose_to_lookup(self, rng):
        dense = rng.random(23, dtype=np.float32)
        dense[rng.random(23) < 0.5] = 0
        sv = SparseVector.from_dense(dense)
        posmap, vpad = sv.position_map(), sv.padded_values()
        reconstructed = vpad[posmap]
        assert np.array_equal(reconstructed, dense)

def test_storage_bytes():
    sv = SparseVector(100, [5, 50], [1.0, 2.0])
    assert sv.storage_bytes() == 4 * 4
