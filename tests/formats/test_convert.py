"""Format-conversion registry tests."""

import numpy as np
import pytest

from repro.formats import (
    FORMATS,
    COOMatrix,
    CSRMatrix,
    SMASHMatrix,
    SparseFormatError,
    convert,
)
from repro.formats.convert import coo_to_csr, csr_to_coo


@pytest.fixture
def dense(rng):
    d = rng.random((9, 12), dtype=np.float32)
    d[rng.random((9, 12)) < 0.6] = 0
    return d


class TestDirectPaths:
    def test_coo_csr_round_trip(self, dense):
        coo = COOMatrix.from_dense(dense)
        csr = coo_to_csr(coo)
        assert np.array_equal(csr.to_dense(), dense)
        back = csr_to_coo(csr)
        assert np.array_equal(back.to_dense(), dense)

    def test_coo_to_csr_validates_output(self, dense):
        csr = coo_to_csr(COOMatrix.from_dense(dense))
        csr.validate()  # must not raise

    def test_unsorted_coo_converts_correctly(self):
        coo = COOMatrix((3, 3), [2, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0])
        csr = coo_to_csr(coo)
        assert np.array_equal(csr.to_dense(), coo.to_dense())

    def test_empty_rows_handled(self):
        coo = COOMatrix((4, 4), [3], [3], [9.0])
        csr = coo_to_csr(coo)
        assert csr.rows.tolist() == [0, 0, 0, 0, 1]


class TestRegistry:
    def test_all_formats_registered(self):
        assert set(FORMATS) == {"csr", "coo", "bitvector", "smash"}

    @pytest.mark.parametrize("target", sorted(FORMATS))
    def test_csr_to_every_format(self, dense, target):
        csr = CSRMatrix.from_dense(dense)
        out = convert(csr, target)
        assert np.array_equal(out.to_dense(), dense)
        assert out.format_name == target

    @pytest.mark.parametrize("source", sorted(FORMATS))
    def test_every_format_to_coo(self, dense, source):
        m = FORMATS[source].from_dense(dense)
        out = convert(m, "coo")
        assert np.array_equal(out.to_dense(), dense)

    def test_identity_conversion_returns_same_object(self, dense):
        csr = CSRMatrix.from_dense(dense)
        assert convert(csr, "csr") is csr

    def test_convert_by_class(self, dense):
        csr = CSRMatrix.from_dense(dense)
        out = convert(csr, COOMatrix)
        assert isinstance(out, COOMatrix)

    def test_convert_with_kwargs(self, dense):
        # run_spmv_programmable builds its SMASH image through this path.
        csr = CSRMatrix.from_dense(dense)
        out = convert(csr, SMASHMatrix, fanout=8, depth=2)
        assert (out.fanout, out.depth) == (8, 2)
        assert np.array_equal(out.to_dense(), dense)
        out = convert(csr, "smash", fanout=4, depth=3)
        assert (out.fanout, out.depth) == (4, 3)
        assert np.array_equal(out.to_dense(), dense)

    def test_unknown_format_rejected(self, dense):
        with pytest.raises(SparseFormatError, match="unknown target"):
            convert(CSRMatrix.from_dense(dense), "ellpack")
