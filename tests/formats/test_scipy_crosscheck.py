"""Cross-validation of our formats against scipy.sparse."""

import numpy as np
import pytest

scipy_sparse = pytest.importorskip("scipy.sparse")

from repro.formats import COOMatrix, CSRMatrix
from repro.formats.convert import coo_to_csr
from repro.formats.mtx import read_mtx, write_mtx
from repro.workloads import random_csr


@pytest.fixture(params=[0.2, 0.6, 0.95])
def matrix(request, rng):
    dense = rng.random((37, 53), dtype=np.float32)
    dense[rng.random((37, 53)) < request.param] = 0
    return dense


class TestAgainstScipy:
    def test_csr_arrays_match(self, matrix):
        ours = CSRMatrix.from_dense(matrix)
        theirs = scipy_sparse.csr_matrix(matrix)
        assert np.array_equal(ours.rows, theirs.indptr)
        assert np.array_equal(ours.cols, theirs.indices)
        assert np.array_equal(ours.vals, theirs.data)

    def test_coo_matches_scipy(self, matrix):
        ours = COOMatrix.from_dense(matrix).sorted_row_major()
        theirs = scipy_sparse.coo_matrix(matrix)
        order = np.lexsort((theirs.col, theirs.row))
        assert np.array_equal(ours.row_indices, theirs.row[order])
        assert np.array_equal(ours.col_indices, theirs.col[order])

    def test_mtx_readable_by_scipy_writer_format(self, tmp_path, matrix):
        """scipy writes Matrix Market; our reader consumes it."""
        import scipy.io

        path = tmp_path / "scipy.mtx"
        scipy.io.mmwrite(path, scipy_sparse.coo_matrix(matrix.astype(np.float64)))
        ours = coo_to_csr(read_mtx(path))
        assert np.allclose(ours.to_dense(), matrix, rtol=1e-6)

    def test_our_mtx_readable_by_scipy(self, tmp_path, matrix):
        import scipy.io

        ours = COOMatrix.from_dense(matrix)
        path = tmp_path / "ours.mtx"
        write_mtx(ours, path)
        theirs = scipy.io.mmread(path)
        assert np.allclose(theirs.toarray(), matrix, rtol=1e-6)


class TestSimulatorAgainstScipy:
    def test_simulated_spmv_matches_scipy(self, rng):
        from repro.analysis import run_spmv

        m = random_csr((48, 48), 0.6, seed=500)
        v = rng.random(48, dtype=np.float32)
        run = run_spmv(m, v, accel="hht", verify=False)
        theirs = scipy_sparse.csr_matrix(m.to_dense()) @ v
        assert np.allclose(run.y, theirs, rtol=1e-4, atol=1e-5)
