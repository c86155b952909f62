"""One-shot reproduction self-check: ``python -m repro validate``.

Runs a miniature version of every paper claim and reports a pass/fail
checklist.  This is the fast (~half-minute) way to confirm the
reproduction behaves before launching the full benchmark campaign —
the same assertions the benchmark suite makes at full size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..power.area import area_ratio_vs_ibex
from ..power.energy import energy_comparison
from ..power.power import system_power
from .tables import Table


@dataclass
class Claim:
    """One checkable statement from the paper."""

    ref: str
    statement: str
    check: Callable[[], tuple[bool, str]]


def _spmv_claims(size: int):
    from ..exec import run_specs, spmv_spec

    cache: dict = {}

    def get():
        if not cache:
            sparsities = (0.1, 0.9)
            summaries = run_specs([
                spmv_spec((size, size), s, accel=accel,
                          matrix_seed=1, vector_seed=2)
                for s in sparsities
                for accel in (None, "hht")
            ])
            for k, s in enumerate(sparsities):
                base, hht = summaries[2 * k], summaries[2 * k + 1]
                cache[s] = (base.cycles / hht.cycles, hht.cpu_wait_fraction)
        return cache

    def speedup_band():
        lo = min(v[0] for v in get().values())
        hi = max(v[0] for v in get().values())
        return 1.3 < lo and hi < 2.3, f"speedups {lo:.2f}-{hi:.2f}"

    def declining():
        data = get()
        return (
            data[0.1][0] > data[0.9][0],
            f"{data[0.1][0]:.2f} at 10% vs {data[0.9][0]:.2f} at 90%",
        )

    def rarely_waits():
        worst = max(v[1] for v in get().values())
        return worst < 0.05, f"worst CPU wait {worst:.1%}"

    return [
        Claim("Fig. 4", "SpMV speedup ~1.7x over the vector baseline", speedup_band),
        Claim("Fig. 4", "gains are smaller at higher sparsities", declining),
        Claim("Fig. 6", "with an ASIC HHT the CPU rarely waits", rarely_waits),
    ]


def _spmspv_claims(size: int):
    from ..exec import run_specs, spmspv_spec

    cache: dict = {}

    def get():
        if not cache:
            sparsities = (0.1, 0.9)
            summaries = run_specs([
                spmspv_spec(size, s, mode=mode, matrix_seed=3, vector_seed=4)
                for s in sparsities
                for mode in ("baseline", "hht_v1", "hht_v2")
            ])
            for k, s in enumerate(sparsities):
                base, v1, v2 = summaries[3 * k: 3 * k + 3]
                cache[s] = {
                    "v1": base.cycles / v1.cycles,
                    "v2": base.cycles / v2.cycles,
                    "v1_wait": v1.cpu_wait_fraction,
                }
        return cache

    def v1_rises():
        d = get()
        return (
            d[0.9]["v1"] > d[0.1]["v1"],
            f"{d[0.1]['v1']:.2f} -> {d[0.9]['v1']:.2f}",
        )

    def crossover():
        d = get()
        low_ok = d[0.1]["v2"] > d[0.1]["v1"]
        high_ok = d[0.9]["v1"] > d[0.9]["v2"]
        return low_ok and high_ok, (
            f"10%: v2 {d[0.1]['v2']:.2f} vs v1 {d[0.1]['v1']:.2f}; "
            f"90%: v1 {d[0.9]['v1']:.2f} vs v2 {d[0.9]['v2']:.2f}"
        )

    def v1_idles():
        worst = max(v["v1_wait"] for v in get().values())
        return worst > 0.2, f"variant-1 CPU idle up to {worst:.0%}"

    return [
        Claim("Fig. 5", "variant-1 speedup increases with sparsity", v1_rises),
        Claim("Fig. 5", "variant-1 overtakes variant-2 above ~80% sparsity",
              crossover),
        Claim("Fig. 7", "variant-1 idles the CPU significantly", v1_idles),
    ]


def _static_claims():
    def area():
        ratio = area_ratio_vs_ibex()
        return abs(ratio - 0.389) < 0.002, f"measured {ratio:.1%}"

    def power():
        cpu = system_power(16, 50, with_hht=False)
        both = system_power(16, 50, with_hht=True)
        ok = abs(cpu - 223) < 1 and abs(both - 314) < 1
        return ok, f"{cpu:.0f} / {both:.0f} uW"

    def energy():
        cmp = energy_comparison(174, 100)
        return abs(cmp.savings_fraction - 0.19) < 0.01, (
            f"1.74x speedup -> {cmp.savings_fraction:.1%} saving"
        )

    return [
        Claim("Sec. 5.5", "HHT is ~38.9% of an Ibex core", area),
        Claim("Sec. 5.5", "223 uW CPU / 314 uW CPU+HHT at 16nm, 50MHz", power),
        Claim("Sec. 5.5", "~19% energy saving at the paper's 1.74x speedup",
              energy),
    ]


def _correctness_claims(size: int):
    import numpy as np

    from ..exec import programmable_spec, run_specs, spmv_spec

    def kernels_agree():
        base, hht = run_specs([
            spmv_spec((size, size), 0.5, accel=accel, matrix_seed=5,
                      vector_seed=6)
            for accel in (None, "hht")
        ])
        ok = np.array_equal(base.y, hht.y)
        return ok, "baseline and HHT results bit-identical"

    def firmware_agrees():
        runs = run_specs([
            programmable_spec((32, 32), 0.5, format_name=f,
                              matrix_seed=7, vector_seed=8)
            for f in ("csr", "coo", "bitvector", "smash")
        ])
        ok = all(np.array_equal(runs[0].y, r.y) for r in runs[1:])
        return ok, "4 firmwares, identical results"

    return [
        Claim("correctness", "HHT never changes numerical results", kernels_agree),
        Claim("Sec. 7", "one consumer kernel serves four formats", firmware_agrees),
    ]


def validate(size: int = 64) -> tuple[Table, bool]:
    """Run every claim check; returns (checklist table, all_passed)."""
    claims = (
        _static_claims()
        + _spmv_claims(size)
        + _spmspv_claims(size)
        + _correctness_claims(size)
    )
    table = Table(
        f"reproduction self-check (miniature sweeps at {size}x{size})",
        ["ref", "claim", "status", "detail"],
    )
    all_ok = True
    for claim in claims:
        try:
            ok, detail = claim.check()
        except Exception as exc:  # a crash is a failure with a reason
            ok, detail = False, f"error: {exc}"
        all_ok &= ok
        table.add_row(claim.ref, claim.statement, "PASS" if ok else "FAIL", detail)
    table.add_note(
        "full-size regeneration: REPRO_FULL=1 python -m pytest benchmarks/ "
        "--benchmark-only"
    )
    return table, all_ok
