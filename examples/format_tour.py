#!/usr/bin/env python3
"""Tour of the sparse representations the paper surveys (Section 1).

Builds one matrix at several sparsity levels and compares the storage
cost of the formats the simulated system reads — CSR (the ASIC HHT's
engines), and COO, bit-vector and the SMASH-style hierarchical bitmap
(the programmable HHT's firmwares) — illustrating the storage-efficiency
motivation of the paper's introduction, then writes and reads a Matrix
Market file.

Run:  python examples/format_tour.py
"""

import io

from repro.formats import FORMATS, convert, read_mtx, write_mtx
from repro.workloads import random_csr


def main() -> None:
    size = 128
    print("=== storage cost (KiB) by format and sparsity ===\n")
    names = sorted(FORMATS)
    header = f"{'sparsity':>8}  {'dense':>7}  " + "  ".join(f"{n:>9}" for n in names)
    print(header)
    print("-" * len(header))

    for sparsity in (0.5, 0.9, 0.99):
        csr = random_csr((size, size), sparsity, seed=21)
        cells = [f"{sparsity:>8.0%}", f"{csr.dense_bytes() / 1024:>7.1f}"]
        for name in names:
            m = convert(csr, name)
            cells.append(f"{m.storage_bytes() / 1024:>9.1f}")
        print("  ".join(cells))

    print("""
observations (cf. Section 1's format survey):
  * the bit-vector's 1-bit-per-element metadata wins at moderate
    sparsity; CSR/COO win once the matrix is very sparse;
  * the hierarchical (SMASH-style) bitmap skips empty regions, beating
    the flat bitmap at 99 % sparsity.""")

    # Matrix Market round trip (the SuiteSparse interchange format).
    csr = random_csr((32, 32), 0.95, seed=22)
    buffer = io.StringIO(write_mtx(csr, comment="format_tour demo"))
    back = read_mtx(buffer)
    assert back.allclose(csr)
    print(f"\nMatrix Market round trip: {csr.nnz} entries preserved ✓")


if __name__ == "__main__":
    main()
