"""I4 — reference vs compiled backend throughput (instructions/s).

Companion to I1: times the fig4 SpMV kernel under both execution
backends and archives host instructions/sec plus the compiled/reference
ratio.  Both the scalar and the vector baseline kernels are measured —
the scalar kernel is dispatch-bound (where block translation pays),
while the vector kernel retires most work inside numpy ufuncs whose
fixed call latency caps any dispatch-side gain; reporting both keeps
the speedup story honest.

Timing is best-of-N over the *same* Soc/program pair, so the compiled
backend's one-off translation cost lands in the warm-up round and the
steady-state (block-cache-warm) rate is reported, matching how sweeps
amortise compilation.
"""

import time

from repro.analysis.tables import Table
from repro.kernels.spmv import spmv_kernel
from repro.system import Soc, SystemConfig
from repro.workloads.synthetic import random_csr, random_dense_vector


def _setup(backend: str, vector: bool, size: int = 64):
    cfg = SystemConfig.paper_table1()
    cfg.cpu.backend = backend
    matrix = random_csr((size, size), 0.5, seed=11)
    v = random_dense_vector(size, seed=12)
    soc = Soc(cfg)
    soc.load_csr(matrix)
    soc.load_dense_vector(v)
    soc.allocate_output(matrix.nrows)
    program = soc.assemble(spmv_kernel(accel=None, vector=vector))
    return soc, program


def _measure(backend: str, vector: bool, rounds: int = 7):
    soc, program = _setup(backend, vector)
    best = float("inf")
    instructions = 0
    for _ in range(rounds):
        start = time.perf_counter()
        result = soc.run(program)
        best = min(best, time.perf_counter() - start)
        instructions = result.instructions
    return instructions, best, instructions / best


def test_backend_dispatch_speed(record_table):
    table = Table(
        "execution backend throughput (64x64 SpMV baseline, best of 7)",
        ["kernel", "backend", "instructions", "best_seconds",
         "instructions_per_second", "speedup_vs_reference"],
    )
    ratios = {}
    for vector in (False, True):
        kernel = "vector" if vector else "scalar"
        ref_n, ref_s, ref_ips = _measure("reference", vector)
        com_n, com_s, com_ips = _measure("compiled", vector)
        # Identical simulated work, or the ratio is meaningless.
        assert com_n == ref_n
        ratios[kernel] = com_ips / ref_ips
        table.add_row(kernel, "reference", ref_n, ref_s, ref_ips, 1.0)
        table.add_row(kernel, "compiled", com_n, com_s, com_ips,
                      ratios[kernel])
    record_table(table, "backend_speed")

    # Loose floors: the compiled backend's scalar advantage is ~2.5x on
    # a quiet box (its loads and stores are bus calls, like the
    # reference's); only a catastrophic regression (e.g. the fast path
    # silently deferring to reference) should trip these.
    assert ratios["scalar"] > 1.5, (
        f"compiled backend only {ratios['scalar']:.2f}x the reference on "
        "the dispatch-bound scalar kernel"
    )
    assert ratios["vector"] > 1.0, (
        f"compiled backend slower than reference ({ratios['vector']:.2f}x) "
        "on the vector kernel"
    )
