"""SSR and IndexMAC kernel variants: correctness, speed, dispatch shim.

``run_spmv``/``run_spmspv`` verify every result against numpy (rtol
1e-3), so a passing run *is* the correctness check; the tests here add
the performance contract (the rivals must actually beat the pure-CPU
baseline) and the kernel-selector semantics.
"""

import numpy as np
import pytest

from repro.analysis.runners import run_spmspv, run_spmv
from repro.kernels import spmspv_kernel, spmv_kernel
from repro.workloads import (
    random_csr,
    random_dense_vector,
    random_sparse_vector,
)

SHAPE = (32, 32)
SPARSITY = 0.5


@pytest.fixture(scope="module")
def workload():
    return (
        random_csr(SHAPE, SPARSITY, seed=41),
        random_dense_vector(SHAPE[1], seed=42),
        random_sparse_vector(SHAPE[1], 0.5, seed=43),
    )


class TestSpmvVariants:
    @pytest.mark.parametrize("accel", [None, "hht", "ssr", "indexmac"])
    def test_vector_variant_verifies(self, workload, accel):
        matrix, v, _ = workload
        run = run_spmv(matrix, v, accel=accel, vlmax=8)
        expected = matrix.to_dense() @ v
        np.testing.assert_allclose(run.y, expected, rtol=1e-3, atol=1e-4)

    @pytest.mark.parametrize("accel", [None, "hht", "ssr"])
    def test_scalar_variant_verifies(self, workload, accel):
        matrix, v, _ = workload
        run = run_spmv(matrix, v, accel=accel, vlmax=1)
        expected = matrix.to_dense() @ v
        np.testing.assert_allclose(run.y, expected, rtol=1e-3, atol=1e-4)

    def test_rivals_beat_baseline_and_trail_hht(self, workload):
        matrix, v, _ = workload
        cycles = {
            accel: run_spmv(matrix, v, accel=accel, vlmax=8).cycles
            for accel in (None, "hht", "ssr", "indexmac")
        }
        # The paper's HHT wins; the rivals sit between it and the
        # software baseline on this dense-ish workload.
        assert cycles["hht"] < cycles["ssr"] < cycles[None]
        assert cycles["hht"] < cycles["indexmac"] < cycles[None]


class TestSpmspvVariants:
    @pytest.mark.parametrize("mode", ["ssr", "indexmac"])
    def test_vector_variant_verifies(self, workload, mode):
        matrix, _, sv = workload
        run = run_spmspv(matrix, sv, mode=mode, vlmax=8)
        expected = matrix.to_dense() @ sv.to_dense()
        np.testing.assert_allclose(run.y, expected, rtol=1e-3, atol=1e-4)

    def test_ssr_scalar_verifies(self, workload):
        matrix, _, sv = workload
        run = run_spmspv(matrix, sv, mode="ssr", vlmax=1)
        expected = matrix.to_dense() @ sv.to_dense()
        np.testing.assert_allclose(run.y, expected, rtol=1e-3, atol=1e-4)

    def test_rivals_beat_software_baseline(self, workload):
        matrix, _, sv = workload
        base = run_spmspv(matrix, sv, mode="baseline", vlmax=8).cycles
        for mode in ("ssr", "indexmac"):
            assert run_spmspv(matrix, sv, mode=mode, vlmax=8).cycles < base


class TestSpmvKernelSelector:
    def test_accel_names_select_distinct_programs(self):
        texts = {
            accel: spmv_kernel(accel=accel, vector=True)
            for accel in (None, "hht", "ssr", "indexmac")
        }
        assert len(set(texts.values())) == 4

    def test_both_selectors_rejected(self):
        # Only accel= selects the front-end; an hht= flag is rejected.
        with pytest.raises(TypeError, match="hht"):
            spmv_kernel(accel="hht", hht=True, vector=True)

    def test_unknown_accel_rejected(self):
        with pytest.raises(ValueError, match="ssr"):
            spmv_kernel(accel="tpu", vector=True)

    def test_indexmac_has_no_scalar_variant(self):
        with pytest.raises(ValueError, match="scalar"):
            spmv_kernel(accel="indexmac", vector=False)
        with pytest.raises(ValueError, match="scalar"):
            spmspv_kernel(mode="indexmac", vector=False)


class TestCrossBackendDeterminism:
    """New kernels are bit-identical under REPRO_BACKEND=compiled."""

    @pytest.mark.parametrize("accel", ["ssr", "indexmac"])
    def test_spmv_matches_reference(self, workload, accel, monkeypatch):
        matrix, v, _ = workload
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        ref = run_spmv(matrix, v, accel=accel, vlmax=8)
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        jit = run_spmv(matrix, v, accel=accel, vlmax=8)
        assert jit.result.cycles == ref.result.cycles
        assert jit.result.instructions == ref.result.instructions
        assert jit.result.stats == ref.result.stats
        np.testing.assert_array_equal(jit.y, ref.y)

    @pytest.mark.parametrize("mode", ["ssr", "indexmac"])
    def test_spmspv_matches_reference(self, workload, mode, monkeypatch):
        matrix, _, sv = workload
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        ref = run_spmspv(matrix, sv, mode=mode, vlmax=8)
        monkeypatch.setenv("REPRO_BACKEND", "compiled")
        jit = run_spmspv(matrix, sv, mode=mode, vlmax=8)
        assert jit.result.cycles == ref.result.cycles
        assert jit.result.stats == ref.result.stats
        np.testing.assert_array_equal(jit.y, ref.y)
