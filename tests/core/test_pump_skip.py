"""The front-end pumps the back-end only after a read that reopened it.

``HHT._fifo_read`` calls ``engine.pump`` only while the engine is live
and ``capacity_ok()`` holds.  That is exact because every pump returns
with the engine exhausted or gated, and only FIFO reads change slot
occupancy between pumps — so after every read the engine must again be
exhausted or gated.  At N=1 any read of a fill frees the only slot, so
a wrongly skipped pump shows up at N=2.
"""

import pytest

from repro.analysis.runners import run_spmspv, run_spmv, run_spmv_programmable
from repro.core.hht import HHT
from repro.workloads import (
    random_csr,
    random_dense_vector,
    random_sparse_vector,
)

KERNELS = {
    "spmv_hht": lambda m, v, sv, n: run_spmv(
        m, v, accel="hht", n_buffers=n),
    "spmspv_hht_v1": lambda m, v, sv, n: run_spmspv(
        m, sv, mode="hht_v1", n_buffers=n),
    "spmspv_hht_v2": lambda m, v, sv, n: run_spmspv(
        m, sv, mode="hht_v2", n_buffers=n),
    "spmv_programmable_csr": lambda m, v, sv, n: run_spmv_programmable(
        m, v, format_name="csr", n_buffers=n),
}


@pytest.fixture(scope="module")
def workload():
    return (
        random_csr((24, 24), 0.4, seed=7),
        random_dense_vector(24, seed=8),
        random_sparse_vector(24, 0.5, seed=9),
    )


@pytest.mark.parametrize("backend", ["reference", "compiled"])
@pytest.mark.parametrize("n_buffers", [1, 2])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_every_read_leaves_the_engine_gated_or_exhausted(
        kernel, n_buffers, backend, workload, monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", backend)
    fifo_read = HHT._fifo_read
    reads = 0
    left_open = []

    def checked(self, stream_name, count, cycle):
        nonlocal reads
        out = fifo_read(self, stream_name, count, cycle)
        reads += 1
        engine = self.engine
        if not engine.exhausted and engine.capacity_ok():
            left_open.append((stream_name, cycle))
        return out

    monkeypatch.setattr(HHT, "_fifo_read", checked)
    matrix, v, sv = workload
    KERNELS[kernel](matrix, v, sv, n_buffers)
    assert reads
    assert left_open == []
