"""End-to-end programmable-HHT tests across all firmwares and formats."""

import numpy as np
import pytest

from repro.analysis import run_spmv, run_spmv_programmable
from repro.formats import CSRMatrix
from repro.kernels import FIRMWARES, SUPPORTED_FORMATS, programmable_consumer
from repro.workloads import random_csr, random_dense_vector

FORMATS = list(SUPPORTED_FORMATS)


def reference(matrix, v):
    return matrix.to_dense().astype(np.float64) @ np.asarray(v, np.float64)


class TestCorrectness:
    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("vlmax", [1, 8])
    def test_all_firmwares(self, fmt, vlmax):
        matrix = random_csr((24, 32), 0.6, seed=50)
        v = random_dense_vector(32, seed=51)
        run = run_spmv_programmable(
            matrix, v, format_name=fmt, vlmax=vlmax, verify=False
        )
        assert np.allclose(run.y, reference(matrix, v), rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_empty_rows(self, fmt):
        dense = np.zeros((6, 32), np.float32)
        dense[1, 5] = 2.0
        dense[4, 0] = 3.0
        dense[4, 31] = 4.0
        matrix = CSRMatrix.from_dense(dense)
        v = random_dense_vector(32, seed=52)
        run = run_spmv_programmable(matrix, v, format_name=fmt, verify=False)
        assert np.allclose(run.y, reference(matrix, v), rtol=1e-4)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_all_zero_matrix(self, fmt):
        matrix = CSRMatrix.empty((4, 32))
        v = random_dense_vector(32, seed=53)
        run = run_spmv_programmable(matrix, v, format_name=fmt, verify=False)
        assert np.all(run.y == 0.0)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_high_sparsity(self, fmt):
        matrix = random_csr((16, 64), 0.95, seed=54)
        v = random_dense_vector(64, seed=55)
        run = run_spmv_programmable(matrix, v, format_name=fmt, verify=True)
        assert run.cycles > 0

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_fully_dense(self, fmt):
        matrix = random_csr((8, 32), 0.0, seed=56)
        v = random_dense_vector(32, seed=57)
        run = run_spmv_programmable(matrix, v, format_name=fmt, verify=False)
        assert np.allclose(run.y, reference(matrix, v), rtol=1e-4)

    def test_all_formats_agree_exactly(self):
        """Same consumer chunking => identical float32 results."""
        matrix = random_csr((16, 32), 0.5, seed=58)
        v = random_dense_vector(32, seed=59)
        results = [
            run_spmv_programmable(matrix, v, format_name=fmt, verify=False).y
            for fmt in FORMATS
        ]
        for other in results[1:]:
            assert np.array_equal(results[0], other)


class TestConstraints:
    def test_bitvector_needs_32_multiple_columns(self):
        matrix = random_csr((8, 20), 0.5, seed=60)
        v = random_dense_vector(20, seed=61)
        with pytest.raises(ValueError, match="ncols % 32"):
            run_spmv_programmable(matrix, v, format_name="bitvector")

    def test_smash_needs_32_multiple_columns(self):
        matrix = random_csr((8, 20), 0.5, seed=62)
        v = random_dense_vector(20, seed=63)
        with pytest.raises(ValueError, match="ncols % 32"):
            run_spmv_programmable(matrix, v, format_name="smash")

    def test_unknown_format(self):
        matrix = random_csr((4, 32), 0.5, seed=64)
        v = random_dense_vector(32, seed=65)
        with pytest.raises(ValueError, match="no firmware"):
            run_spmv_programmable(matrix, v, format_name="ellpack")

    def test_consumer_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="no firmware protocol"):
            programmable_consumer("ellpack")

    def test_start_without_firmware_rejected(self, soc_factory):
        from repro.core import EngineError

        soc = soc_factory()
        soc.load_csr(random_csr((4, 4), 0.5, seed=66))
        soc.load_dense_vector(random_dense_vector(4, seed=67))
        soc.allocate_output(4)
        prog = soc.assemble(programmable_consumer("csr"))
        with pytest.raises(EngineError, match="load_firmware"):
            soc.run(prog)


class TestPerformanceShape:
    """The flexibility/throughput trade-off of Sections 6-7."""

    @pytest.fixture(scope="class")
    def runs(self):
        matrix = random_csr((48, 64), 0.6, seed=70)
        v = random_dense_vector(64, seed=71)
        base = run_spmv(matrix, v, accel=None)
        asic = run_spmv(matrix, v, accel="hht")
        prog = {
            fmt: run_spmv_programmable(matrix, v, format_name=fmt)
            for fmt in FORMATS
        }
        return base, asic, prog

    def test_asic_beats_programmable(self, runs):
        base, asic, prog = runs
        for fmt, run in prog.items():
            assert asic.cycles < run.cycles, fmt

    def test_programmable_idles_the_cpu(self, runs):
        """Section 6: the HHT working harder than the CPU causes idling."""
        _, _, prog = runs
        for fmt, run in prog.items():
            assert run.cpu_wait_fraction > 0.3, fmt

    def test_smash_is_the_most_work(self, runs):
        """SMASH's 'complicated indexing' makes it the slowest walk."""
        _, _, prog = runs
        assert prog["smash"].cycles >= prog["csr"].cycles

    def test_firmware_registry_matches_protocols(self):
        assert set(FIRMWARES) == set(SUPPORTED_FORMATS)
