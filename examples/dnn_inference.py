#!/usr/bin/env python3
"""Edge-inference scenario: a sparse DNN classifier layer on the HHT.

The paper's motivation (Sections 1-2) is real-time ML inference on
microcontroller-class devices.  This example simulates the final
fully-connected layer of MobileNet — quantization-sparsified weights —
computing class logits with the Table-1 system, baseline vs HHT, and
reports latency at the 1.1 GHz core clock plus the 16 nm / 50 MHz energy
comparison of Section 5.5.

Run:  python examples/dnn_inference.py
"""

import numpy as np

from repro.analysis import run_spmspv, run_spmv
from repro.formats import SparseVector
from repro.power import energy_comparison
from repro.workloads import get_layer


def main() -> None:
    layer = get_layer("MobileNet")
    rows = 128  # a row tile of the 1000-class layer (see DESIGN.md)
    weights = layer.weights(seed=7, rows=rows)
    activations = layer.activations(seed=8)

    print("=== Sparse FC-layer inference (MobileNet classifier) ===")
    print(f"layer shape  : {weights.nrows} x {weights.ncols} "
          f"(tile of {layer.classes} classes)")
    print(f"sparsity     : {weights.sparsity:.1%} zero weights")
    print(f"storage      : {weights.storage_bytes() / 1024:.1f} KiB CSR vs "
          f"{weights.dense_bytes() / 1024:.1f} KiB dense "
          f"({weights.compression_ratio():.2f}x)\n")

    # --- dense activations: SpMV ---
    base = run_spmv(weights, activations, accel=None)
    hht = run_spmv(weights, activations, accel="hht")
    speedup = base.cycles / hht.cycles
    print("dense activations (SpMV):")
    print(f"  baseline : {base.cycles:,} cycles "
          f"({base.seconds * 1e6:.1f} us @ 1.1 GHz)")
    print(f"  with HHT : {hht.cycles:,} cycles "
          f"({hht.seconds * 1e6:.1f} us @ 1.1 GHz)")
    print(f"  speedup  : {speedup:.2f}x  (paper Fig. 9: 1.53-1.92x)")

    cmp = energy_comparison(base.cycles, hht.cycles)
    print(f"  energy   : {cmp.baseline_uj:.2f} uJ -> {cmp.hht_uj:.2f} uJ "
          f"at 16 nm / 50 MHz ({cmp.savings_fraction:.1%} saved)\n")

    # --- ReLU-sparsified activations: SpMSpV ---
    sparse_act = activations.copy()
    rng = np.random.default_rng(9)
    sparse_act[rng.random(sparse_act.size) < 0.6] = 0.0  # post-ReLU zeros
    sv = SparseVector.from_dense(sparse_act)
    print(f"ReLU-sparse activations ({sv.sparsity:.0%} zero): SpMSpV")
    sbase = run_spmspv(weights, sv, mode="baseline")
    sv2 = run_spmspv(weights, sv, mode="hht_v2")
    sv1 = run_spmspv(weights, sv, mode="hht_v1")
    print(f"  baseline           : {sbase.cycles:,} cycles")
    print(f"  HHT variant-2      : {sv2.cycles:,} cycles "
          f"({sbase.cycles / sv2.cycles:.2f}x)")
    print(f"  HHT variant-1      : {sv1.cycles:,} cycles "
          f"({sbase.cycles / sv1.cycles:.2f}x, CPU idle "
          f"{sv1.cpu_wait_fraction:.0%})\n")

    # --- verify the logits ---
    ref = weights.to_dense().astype(np.float64) @ activations.astype(np.float64)
    top = int(np.argmax(hht.y))
    assert np.allclose(hht.y, ref, rtol=1e-4)
    assert int(np.argmax(ref)) == top
    print(f"predicted class (tile-local): {top}  — logits verified ✓")


if __name__ == "__main__":
    main()
