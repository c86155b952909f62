#!/usr/bin/env python3
"""Quickstart: run SpMV with and without the Hardware Helper Thread.

Builds the paper's Fig. 1 example matrix, shows its compressed forms,
then simulates the CSR SpMV kernel on the Table-1 system twice — the
CPU-only baseline with indexed gathers, and the HHT-assisted version —
and reports cycles, speedup and where the work went.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.analysis import run_spmv
from repro.formats import BitVectorMatrix, CSRMatrix
from repro.system import SystemConfig
from repro.workloads import random_csr, random_dense_vector


def show_fig1_formats() -> None:
    """The paper's Fig. 1: one matrix, two compressed representations."""
    dense = np.array(
        [[1.0, 0.0, 2.0],
         [0.0, 0.0, 3.0],
         [4.0, 0.0, 0.0]],
        dtype=np.float32,
    )
    csr = CSRMatrix.from_dense(dense)
    bv = BitVectorMatrix.from_dense(dense)

    print("=== Fig. 1: a 3x3 sparse matrix in CSR and bit-vector formats ===")
    print(f"dense:\n{dense}")
    print(f"CSR   rows={csr.rows.tolist()} cols={csr.cols.tolist()} "
          f"vals={csr.vals.tolist()}")
    print(f"BitVec bitmap={bv.mask().astype(int).ravel().tolist()} "
          f"vals={bv.vals.tolist()}")
    print(f"sparsity={csr.sparsity:.1%}\n")


def main() -> None:
    show_fig1_formats()

    print("=== Simulated system (paper Table 1) ===")
    config = SystemConfig.paper_table1()
    print(config.describe(), "\n")

    # A 256 x 256 matrix at 50 % sparsity, like the paper's sweeps.
    matrix = random_csr((256, 256), sparsity=0.5, seed=1)
    v = random_dense_vector(256, seed=2)
    print(f"workload: {matrix.nrows}x{matrix.ncols} CSR, "
          f"{matrix.nnz} non-zeros ({matrix.sparsity:.0%} sparse)\n")

    print("running CPU-only baseline (vector indexed-gather loads) ...")
    base = run_spmv(matrix, v, accel=None)
    print(f"  cycles = {base.cycles:,}   instructions = "
          f"{base.instructions:,}")

    print("running with the HHT streaming gathered vector values ...")
    hht = run_spmv(matrix, v, accel="hht")
    print(f"  cycles = {hht.cycles:,}   instructions = "
          f"{hht.instructions:,}")

    print(f"\nspeedup                 : {base.cycles / hht.cycles:.2f}x "
          f"(paper Fig. 4: ~1.7x)")
    print(f"CPU wait for HHT        : {hht.cpu_wait_fraction:.2%} "
          f"of cycles (paper Fig. 6: rarely waits)")
    print(f"HHT idle (waiting CPU)  : {hht.hht_wait_cycles:,} cycles")
    print(f"memory requests (cpu)   : {hht.port_requests.get('cpu', 0):,}")
    print(f"memory requests (hht)   : {hht.port_requests.get('hht', 0):,}")

    # Both versions compute the same float32 result.
    assert np.array_equal(base.y, hht.y)
    ref = matrix.to_dense().astype(np.float64) @ v.astype(np.float64)
    assert np.allclose(hht.y, ref, rtol=1e-4)
    print("\nresult verified against numpy reference ✓")


if __name__ == "__main__":
    main()
