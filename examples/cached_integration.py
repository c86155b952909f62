#!/usr/bin/env python3
"""The L1D-cached integration (paper Section 3.2) + kernel profiling.

The paper evaluates the cacheless MCU system; Section 3.2 also describes
a high-performance integration where the HHT back-end "issues requests
to the L1D cache".  This example compares both in front of a slow
(DRAM-ish) memory, and uses the kernel profiler to show where the
baseline's cycles go in each case.

Run:  python examples/cached_integration.py
"""

from repro.analysis import profile_spmv, run_spmv
from repro.memory import CacheConfig
from repro.system import SystemConfig
from repro.workloads import random_csr, random_dense_vector

RAM_LATENCY = 8  # slow memory: the regime where a cache matters


def build_config(cached: bool) -> SystemConfig:
    cfg = SystemConfig.paper_table1()
    cfg.ram_latency = RAM_LATENCY
    if cached:
        cfg.cache = CacheConfig(line_bytes=32, n_sets=64, assoc=2)
    return cfg


def main() -> None:
    matrix = random_csr((128, 128), sparsity=0.5, seed=51)
    v = random_dense_vector(128, seed=52)
    print("=== flat SRAM vs L1D-cached integration (RAM latency "
          f"{RAM_LATENCY} cycles) ===")
    print(f"matrix: {matrix.nrows}x{matrix.ncols}, "
          f"{matrix.sparsity:.0%} sparse\n")

    for cached in (False, True):
        label = "L1D-cached" if cached else "flat SRAM "
        base = run_spmv(matrix, v, accel=None, config=build_config(cached))
        hht = run_spmv(matrix, v, accel="hht", config=build_config(cached))
        print(f"{label}: baseline {base.cycles:>9,} cycles | "
              f"HHT {hht.cycles:>9,} cycles | "
              f"speedup {base.cycles / hht.cycles:.2f}x")

    # Where do the baseline's cycles go?  Profile the hottest lines
    # (on the default Table-1 SRAM; the shares shift further toward the
    # gather as memory slows down).
    print("\n=== baseline profile (flat SRAM, Table-1 latency) ===")
    prof = profile_spmv(matrix, v, accel=None)
    print(prof.table(5).render())

    # And show the cache absorbing the gathers (the last baseline run
    # above is the cached one).
    hits, misses = base.cache_stats["hits"], base.cache_stats["misses"]
    print(f"cached baseline: L1D hit rate {hits / (hits + misses):.1%} "
          f"({hits:,} hits / {misses:,} misses)")
    print("""
take-away: with an L1D the gathers mostly hit (the 512-byte vector fits
easily), so the metadata overhead — and therefore the HHT's advantage —
shrinks.  On the paper's cacheless edge devices every gather pays the
full memory latency, which is exactly where the HHT earns its area.""")


if __name__ == "__main__":
    main()
