"""Cross-feature integration: cache x variants x programmable."""

import numpy as np
import pytest

from repro.analysis import (
    run_spmspv,
    run_spmv,
    run_spmv_programmable,
)
from repro.memory import CacheConfig
from repro.system import SystemConfig
from repro.workloads import (
    random_csr,
    random_dense_vector,
    random_sparse_vector,
)


def cached_config(**kw):
    cfg = SystemConfig.paper_table1(**kw)
    cfg.cache = CacheConfig(line_bytes=32, n_sets=32, assoc=2)
    cfg.ram_latency = 6
    return cfg


@pytest.fixture(scope="module")
def problem():
    matrix = random_csr((64, 64), 0.5, seed=600)
    v = random_dense_vector(64, seed=601)
    sv = random_sparse_vector(64, 0.5, seed=602)
    ref_dense = matrix.to_dense().astype(np.float64) @ v.astype(np.float64)
    ref_sparse = matrix.to_dense().astype(np.float64) @ sv.to_dense().astype(np.float64)
    return matrix, v, sv, ref_dense, ref_sparse


class TestCachedVariants:
    def test_cached_spmv_correct(self, problem):
        matrix, v, _, ref, _ = problem
        run = run_spmv(matrix, v, accel="hht", config=cached_config(), verify=False)
        assert np.allclose(run.y, ref, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("mode", ["baseline", "hht_v1", "hht_v2"])
    def test_cached_spmspv_correct(self, problem, mode):
        matrix, _, sv, _, ref = problem
        run = run_spmspv(matrix, sv, mode=mode, config=cached_config(),
                         verify=False)
        assert np.allclose(run.y, ref, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("fmt", ["csr", "bitvector"])
    def test_cached_programmable_correct(self, problem, fmt):
        matrix, v, _, ref, _ = problem
        run = run_spmv_programmable(
            matrix, v, format_name=fmt, config=cached_config(), verify=False
        )
        assert np.allclose(run.y, ref, rtol=1e-4, atol=1e-5)

    def test_cache_never_changes_results_only_timing(self, problem):
        matrix, v, _, _, _ = problem
        flat = run_spmv(matrix, v, accel="hht", verify=False)
        cached = run_spmv(matrix, v, accel="hht", config=cached_config(),
                          verify=False)
        assert np.array_equal(flat.y, cached.y)
        assert flat.cycles != cached.cycles  # timing differs


class TestProtocolViolations:
    def test_variant1_count_skipping_detected(self):
        """Reading pairs while counts back up must fail loudly, not hang:
        the COUNT buffers fill, the back-end gates, and the pair stream
        runs dry — a deadlock, not an underflow (the input is not
        exhausted)."""
        from repro.core import EngineError
        from repro.system import Soc

        matrix = random_csr((8, 8), 0.2, seed=603)
        sv = random_sparse_vector(8, 0.2, seed=604)
        soc = Soc(SystemConfig.paper_table1())
        soc.load_csr(matrix)
        soc.load_sparse_vector(sv)
        soc.allocate_output(8)
        # A broken consumer: reads far more pairs than one row holds
        # without ever consuming the counts.
        from repro.kernels import program_hht
        from repro.core.config import HHTMode

        bad = program_hht(HHTMode.SPMSPV_ALIGNED, sparse_vector=True) + """
        la a6, hht_mval_fifo
        li t0, 10000
    loop:
        lw t1, 0(a6)
        addi t0, t0, -1
        bnez t0, loop
        halt
        """
        with pytest.raises(EngineError) as excinfo:
            soc.run(soc.assemble(bad))
        assert excinfo.type is EngineError
        assert str(excinfo.value) == (
            "FIFO deadlock on 'mval': back-end blocked while the stream "
            "is empty (kernel protocol violation)"
        )
