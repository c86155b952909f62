"""I4 — reference vs compiled backend throughput (instructions/s).

Companion to I1: times the fig4 SpMV kernel under both execution
backends and archives host instructions/sec plus the compiled/reference
ratio.  Both the scalar and the vector baseline kernels are measured —
the scalar kernel is dispatch-bound (where block translation pays),
while the vector kernel retires most work inside numpy ufuncs whose
fixed call latency caps any dispatch-side gain; reporting both keeps
the speedup story honest.

Each round times one ``Soc.run`` per backend back to back, alternating
which goes first, as I3 does.  The table keeps each backend's best
round, and the gates read those, and it adds the median of the
per-round compiled/reference ratios: adjacent runs share the host's
phase (frequency scaling, noisy neighbours), so the paired ratio does
not follow it the way a ratio of two best-ofs can.  The *reused* rows
run one Soc/program pair every round; the *fresh* rows build a new Soc
each round, as ``execute()`` does for every sweep point, and time its
run alone.  The compiled backend translates each basic block once per
process (:mod:`repro.cpu.compiled`), so its one-off translation cost
lands in the first round either way, and a fresh SoC pays a key and a
bind per block: the fresh row is what a sweep gets after its first
point.  ``bench/run.py``'s headline-compiled workload is the end-to-end
number.
"""

import statistics
import time

from repro.analysis.tables import Table
from repro.kernels import spmv_kernel
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


BACKENDS = ("reference", "compiled")


def _measure(vector: bool, fresh: bool, rounds: int = 7):
    """``(instructions, best seconds)`` per backend, and the median of
    the per-round reference/compiled time ratios."""
    runs = {}
    best = dict.fromkeys(BACKENDS, float("inf"))
    instructions = {}
    ratios = []
    for k in range(rounds):
        seconds = {}
        for backend in BACKENDS[::-1] if k % 2 else BACKENDS:
            if fresh or k == 0:
                runs[backend] = _setup(backend, vector)
            soc, program = runs[backend]
            start = time.perf_counter()
            result = soc.run(program)
            seconds[backend] = time.perf_counter() - start
            best[backend] = min(best[backend], seconds[backend])
            instructions[backend] = result.instructions
        ratios.append(seconds["reference"] / seconds["compiled"])
    return instructions, best, statistics.median(ratios)


def test_backend_dispatch_speed(record_table):
    table = Table(
        "execution backend throughput (64x64 SpMV baseline, best of 7; "
        "paired: median of 7 per-round ratios)",
        ["kernel", "soc", "backend", "instructions", "best_seconds",
         "instructions_per_second", "speedup_vs_reference",
         "paired_speedup"],
    )
    ratios = {}
    for vector in (False, True):
        kernel = "vector" if vector else "scalar"
        for soc in ("reused", "fresh"):
            n, best, paired = _measure(vector, soc == "fresh")
            # Identical simulated work, or the ratio is meaningless.
            assert n["compiled"] == n["reference"]
            ratios[kernel, soc] = best["reference"] / best["compiled"]
            for backend in BACKENDS:
                compiled = backend == "compiled"
                table.add_row(
                    kernel, soc, backend, n[backend], best[backend],
                    n[backend] / best[backend],
                    ratios[kernel, soc] if compiled else 1.0,
                    paired if compiled else 1.0)
    record_table(table, "backend_speed")

    # Loose floors: the compiled backend's scalar advantage is ~2.5x on
    # a quiet box (its loads and stores are bus calls, like the
    # reference's); only a catastrophic regression (e.g. the fast path
    # silently deferring to reference) should trip these.
    assert ratios["scalar", "reused"] > 1.5, (
        f"compiled backend only {ratios['scalar', 'reused']:.2f}x the "
        "reference on the dispatch-bound scalar kernel"
    )
    assert ratios["vector", "reused"] > 1.0, (
        "compiled backend slower than reference "
        f"({ratios['vector', 'reused']:.2f}x) on the vector kernel"
    )
