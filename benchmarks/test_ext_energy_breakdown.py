"""X8 — Extension: activity-based energy breakdown of Section 5.5.

The paper reports only total power/energy; this bench decomposes the
energy by activity (per-op switching + per-access memory energy,
calibrated to the 223 uW anchor) to show *where* the HHT saves: fewer
CPU instructions and cheaper access patterns, at the cost of the
accelerator's own traffic.
"""

from repro.analysis import run_spmv
from repro.power import breakdown_table, energy_breakdown
from repro.workloads import random_csr, random_dense_vector


def test_ext_energy_breakdown(benchmark, record_table):
    def build():
        matrix = random_csr((192, 192), 0.5, seed=800)
        v = random_dense_vector(192, seed=801)
        base = run_spmv(matrix, v, accel=None)
        hht = run_spmv(matrix, v, accel="hht")
        table = breakdown_table(base, hht)
        table._runs = (base, hht)
        return table

    table = benchmark.pedantic(build, rounds=1, iterations=1)
    record_table(table, "ext_energy_breakdown")

    base, hht = table._runs
    b = energy_breakdown(base, with_hht=False)
    h = energy_breakdown(hht)
    assert h.total_uj < b.total_uj                  # net saving
    assert h.cpu_memory_uj < b.cpu_memory_uj        # traffic moved off CPU
    assert h.hht_memory_uj > 0                      # …onto the HHT
    assert h.cpu_compute_uj < b.cpu_compute_uj      # fewer instructions
