"""SpMSpV kernel correctness and behaviour across configurations."""

import numpy as np
import pytest

from repro.analysis import run_spmspv
from repro.formats import CSRMatrix, SparseVector
from repro.workloads import random_csr, random_sparse_vector

MODES = ["baseline", "hht_v1", "hht_v2"]


def reference(matrix, sv):
    return matrix.to_dense().astype(np.float64) @ sv.to_dense().astype(np.float64)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("vlmax", [1, 8])
def test_correct_result_all_modes(mode, vlmax):
    matrix = random_csr((24, 24), 0.5, seed=30)
    sv = random_sparse_vector(24, 0.5, seed=31)
    run = run_spmspv(matrix, sv, mode=mode, vlmax=vlmax, verify=False)
    assert np.allclose(run.y, reference(matrix, sv), rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("mode", ["hht_v1", "hht_v2"])
@pytest.mark.parametrize("n_buffers", [1, 2])
def test_buffer_counts(mode, n_buffers):
    matrix = random_csr((20, 20), 0.4, seed=32)
    sv = random_sparse_vector(20, 0.6, seed=33)
    run = run_spmspv(matrix, sv, mode=mode, n_buffers=n_buffers, verify=False)
    assert np.allclose(run.y, reference(matrix, sv), rtol=1e-4, atol=1e-5)


class TestEdgeCases:
    @pytest.mark.parametrize("mode", MODES)
    def test_empty_vector(self, mode):
        matrix = random_csr((10, 10), 0.5, seed=34)
        sv = SparseVector(10, [], [])
        run = run_spmspv(matrix, sv, mode=mode, verify=False)
        assert np.all(run.y == 0.0)

    @pytest.mark.parametrize("mode", MODES)
    def test_dense_vector(self, mode):
        matrix = random_csr((10, 10), 0.5, seed=35)
        sv = random_sparse_vector(10, 0.0, seed=36)
        assert sv.nnz == 10
        run = run_spmspv(matrix, sv, mode=mode, verify=False)
        assert np.allclose(run.y, reference(matrix, sv), rtol=1e-4)

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_matrix_rows(self, mode):
        dense = np.zeros((6, 8), np.float32)
        dense[2, 1] = 1.0
        dense[2, 5] = 2.0
        matrix = CSRMatrix.from_dense(dense)
        sv = SparseVector(8, [1, 6], [3.0, 4.0])
        run = run_spmspv(matrix, sv, mode=mode, verify=False)
        assert np.allclose(run.y, reference(matrix, sv), rtol=1e-4)

    @pytest.mark.parametrize("mode", MODES)
    def test_no_overlap_at_all(self, mode):
        """Matrix columns and vector indices are disjoint: y == 0."""
        dense = np.zeros((4, 8), np.float32)
        dense[:, 0] = 1.0
        dense[:, 2] = 2.0
        matrix = CSRMatrix.from_dense(dense)
        sv = SparseVector(8, [1, 3], [5.0, 6.0])
        run = run_spmspv(matrix, sv, mode=mode, verify=False)
        assert np.all(run.y == 0.0)

    def test_variant1_row_with_many_matches(self):
        """A row whose matches exceed the buffer capacity still works."""
        dense = np.zeros((2, 40), np.float32)
        dense[0, :] = 1.0  # 40 matches in row 0 with a dense vector
        matrix = CSRMatrix.from_dense(dense)
        sv = random_sparse_vector(40, 0.0, seed=37)
        run = run_spmspv(matrix, sv, mode="hht_v1", verify=False)
        assert np.allclose(run.y, reference(matrix, sv), rtol=1e-4)


class TestPerformanceShape:
    @pytest.fixture(scope="class")
    def runs(self):
        matrix = random_csr((96, 96), 0.5, seed=38)
        sv = random_sparse_vector(96, 0.5, seed=39)
        return {
            mode: run_spmspv(matrix, sv, mode=mode)
            for mode in MODES
        }

    def test_both_variants_beat_baseline(self, runs):
        assert runs["hht_v1"].cycles < runs["baseline"].cycles
        assert runs["hht_v2"].cycles < runs["baseline"].cycles

    def test_variant1_cpu_waits_substantially(self, runs):
        """Fig. 7: variant-1 idles the CPU for a significant fraction."""
        assert runs["hht_v1"].cpu_wait_fraction > 0.2

    def test_variant2_cpu_barely_waits(self, runs):
        assert runs["hht_v2"].cpu_wait_fraction < 0.05

    def test_variant1_executes_fewest_instructions(self, runs):
        """The CPU only touches matched pairs in variant-1."""
        assert (runs["hht_v1"].instructions
                < runs["hht_v2"].instructions
                < runs["baseline"].instructions)

    def test_crossover_at_high_sparsity(self):
        """Fig. 5: variant-1 overtakes variant-2 above ~80% sparsity."""
        matrix = random_csr((96, 96), 0.9, seed=40)
        sv = random_sparse_vector(96, 0.9, seed=41)
        v1 = run_spmspv(matrix, sv, mode="hht_v1")
        v2 = run_spmspv(matrix, sv, mode="hht_v2")
        assert v1.cycles < v2.cycles

    def test_variant2_wins_at_low_sparsity(self):
        matrix = random_csr((96, 96), 0.2, seed=42)
        sv = random_sparse_vector(96, 0.2, seed=43)
        v1 = run_spmspv(matrix, sv, mode="hht_v1")
        v2 = run_spmspv(matrix, sv, mode="hht_v2")
        assert v2.cycles < v1.cycles
