"""Reproduction of *Heterogeneous Architecture for Sparse Data Processing*
(Adavally et al., IPPS 2022).

The package models the paper's full system in Python:

* :mod:`repro.formats` — the sparse representations the kernels and
  firmwares read (CSR, COO, bit-vector, SMASH-style hierarchical bitmaps,
  sparse vectors) and Matrix Market I/O.
* :mod:`repro.isa` / :mod:`repro.cpu` — the RV32I/F/V instructions the
  kernels execute, with an assembler and a cycle-approximate in-order
  core model.
* :mod:`repro.memory` — the shared pipelined on-chip RAM and MMIO bus.
* :mod:`repro.core` — **the paper's contribution**: the Hardware Helper
  Thread (HHT) front-end/back-end, for SpMV and both SpMSpV variants.
* :mod:`repro.kernels` — the SpMV/SpMSpV assembly kernels (baselines with
  indexed gathers, and HHT-assisted versions).
* :mod:`repro.system` — SoC composition and run infrastructure.
* :mod:`repro.power` — synthesis-anchored area/power/energy models.
* :mod:`repro.workloads` — synthetic sweeps, DNN FC layers, .mtx corpus.
* :mod:`repro.analysis` — one harness entry point per paper figure/table.

Quickstart::

    from repro.workloads import random_csr, random_dense_vector
    from repro.analysis import run_spmv

    m = random_csr((256, 256), sparsity=0.7, seed=1)
    v = random_dense_vector(256, seed=2)
    base = run_spmv(m, v, accel=None)
    hht = run_spmv(m, v, accel="hht")
    print(f"speedup: {base.cycles / hht.cycles:.2f}x")
"""

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "core",
    "cpu",
    "formats",
    "instrument",
    "isa",
    "kernels",
    "memory",
    "power",
    "system",
    "workloads",
]
