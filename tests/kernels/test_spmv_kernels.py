"""SpMV kernel correctness and behaviour across configurations."""

import numpy as np
import pytest

from repro.analysis import run_spmv
from repro.workloads import random_csr, random_dense_vector
from repro.formats import CSRMatrix


def reference(matrix, v):
    return matrix.to_dense().astype(np.float64) @ np.asarray(v, np.float64)


@pytest.mark.parametrize("accel", [None, "hht"], ids=["baseline", "hht"])
@pytest.mark.parametrize("vlmax", [1, 4, 8])
def test_correct_result_all_configs(accel, vlmax):
    matrix = random_csr((24, 24), 0.6, seed=3)
    v = random_dense_vector(24, seed=4)
    run = run_spmv(matrix, v, accel=accel, vlmax=vlmax, verify=False)
    assert np.allclose(run.y, reference(matrix, v), rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("n_buffers", [1, 2, 4])
def test_buffer_counts(n_buffers):
    matrix = random_csr((20, 20), 0.5, seed=5)
    v = random_dense_vector(20, seed=6)
    run = run_spmv(matrix, v, accel="hht", n_buffers=n_buffers, verify=False)
    assert np.allclose(run.y, reference(matrix, v), rtol=1e-4, atol=1e-5)


class TestEdgeCases:
    def test_empty_rows(self):
        dense = np.zeros((6, 6), np.float32)
        dense[1, 3] = 2.0
        dense[4, 0] = 5.0
        matrix = CSRMatrix.from_dense(dense)
        v = random_dense_vector(6, seed=7)
        for accel in (None, "hht"):
            run = run_spmv(matrix, v, accel=accel, verify=False)
            assert np.allclose(run.y, reference(matrix, v), rtol=1e-4)

    def test_fully_dense_matrix(self):
        matrix = random_csr((12, 12), 0.0, seed=8)
        assert matrix.nnz == 144
        v = random_dense_vector(12, seed=9)
        run = run_spmv(matrix, v, accel="hht", verify=False)
        assert np.allclose(run.y, reference(matrix, v), rtol=1e-4)

    def test_single_element_matrix(self):
        dense = np.zeros((1, 1), np.float32)
        dense[0, 0] = 4.0
        matrix = CSRMatrix.from_dense(dense)
        run = run_spmv(matrix, np.array([2.0], np.float32), accel="hht", verify=False)
        assert run.y[0] == pytest.approx(8.0)

    def test_all_zero_matrix(self):
        matrix = CSRMatrix.empty((5, 5))
        v = random_dense_vector(5, seed=10)
        for accel in (None, "hht"):
            run = run_spmv(matrix, v, accel=accel, verify=False)
            assert np.all(run.y == 0.0)

    def test_rectangular_matrix(self):
        matrix = random_csr((8, 20), 0.5, seed=11)
        v = random_dense_vector(20, seed=12)
        run = run_spmv(matrix, v, accel="hht", verify=False)
        assert np.allclose(run.y, reference(matrix, v), rtol=1e-4)

    def test_row_not_multiple_of_vl(self):
        dense = np.zeros((2, 16), np.float32)
        dense[0, :13] = 1.0  # 13 = 8 + 5 chunks
        dense[1, :1] = 2.0
        matrix = CSRMatrix.from_dense(dense)
        v = random_dense_vector(16, seed=13)
        run = run_spmv(matrix, v, accel="hht", verify=False)
        assert np.allclose(run.y, reference(matrix, v), rtol=1e-4)


class TestPerformanceShape:
    def test_hht_is_faster_vectorised(self):
        matrix = random_csr((64, 64), 0.5, seed=14)
        v = random_dense_vector(64, seed=15)
        base = run_spmv(matrix, v, accel=None)
        hht = run_spmv(matrix, v, accel="hht")
        assert hht.cycles < base.cycles

    def test_hht_removes_metadata_instructions(self):
        matrix = random_csr((32, 32), 0.5, seed=16)
        v = random_dense_vector(32, seed=17)
        base = run_spmv(matrix, v, accel=None)
        hht = run_spmv(matrix, v, accel="hht")
        # Baseline executes gathers; the HHT version executes none.
        assert base.cpu_stats.class_counts.get("vector_gather", 0) > 0
        assert hht.cpu_stats.class_counts.get("vector_gather", 0) == 0

    def test_cpu_rarely_waits_for_spmv(self):
        """Fig. 6: 'with an ASIC HHT, the application CPU rarely waits'."""
        matrix = random_csr((64, 64), 0.3, seed=18)
        v = random_dense_vector(64, seed=19)
        hht = run_spmv(matrix, v, accel="hht")
        assert hht.cpu_wait_fraction < 0.02

    def test_verify_flag_raises_on_mismatch(self, monkeypatch):
        from repro.analysis import VerificationError
        from repro.analysis import runners

        matrix = random_csr((8, 8), 0.5, seed=20)
        v = random_dense_vector(8, seed=21)

        real_kernel = runners.spmv_kernel
        def corrupted(**kw):
            # Swap the multiply operands' source: store zero instead.
            return real_kernel(**kw).replace("vfmacc.vv v0, v2, v3",
                                             "vfmacc.vv v0, v2, v2")
        monkeypatch.setattr(runners, "spmv_kernel", corrupted)
        with pytest.raises(VerificationError):
            run_spmv(matrix, v, accel=None, verify=True)
