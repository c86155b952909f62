"""Experiment harness: one entry point per paper table/figure.

Each ``fig*``/``table*``/``sec*`` function regenerates the corresponding
artifact of the paper's evaluation as a :class:`~repro.analysis.tables.Table`
(rows = bar groups, columns = bars) plus the raw series.

Figures 4/6 (and 5/7) are different projections of the same simulation
sweep, so the sweeps are memoised: running the full benchmark suite
simulates each configuration once.

Every measurement is expressed as a :class:`repro.exec.RunSpec` and
executed through the parallel sweep engine (:func:`repro.exec.run_specs`)
— independent points fan out across worker processes (``--jobs`` /
``REPRO_JOBS``), and the content-addressed cache under
``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``) serves repeated points
without re-simulating them.

Sizing: the paper sweeps a 512 x 512 matrix.  The default here is 256
(quarter the work, same shapes — verified by tests); set ``REPRO_FULL=1``
for the paper's exact size or ``REPRO_SIZE=n`` for anything else.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

from ..exec import (
    corpus_spec,
    dnn_spec,
    programmable_spec,
    run_specs,
    spmspv_spec,
    spmv_spec,
)
from ..power.area import area_ratio_vs_ibex, hht_area, ibex_area_um2
from ..power.energy import energy_comparison
from ..power.power import system_power
from ..system.config import SystemConfig
from ..workloads.dnn import FC_LAYERS, FIG9_ORDER
from ..workloads.mtx_corpus import CORPUS_NAMES, load_corpus_matrix
from .tables import Table

#: The paper's sparsity sweep: 10 % to 90 % zeroes.
SPARSITIES = tuple(round(0.1 * k, 1) for k in range(1, 10))

_SEED = 20220530  # IPPS 2022


def default_size() -> int:
    """Matrix dimension for the synthetic sweeps (paper: 512)."""
    if os.environ.get("REPRO_FULL"):
        return 512
    return int(os.environ.get("REPRO_SIZE", "256"))


def default_dnn_rows() -> int | None:
    """Row-tile size for the Fig. 9 DNN layers (None = all 1000 rows)."""
    if os.environ.get("REPRO_FULL"):
        return None
    return int(os.environ.get("REPRO_DNN_ROWS", "128"))


# ---------------------------------------------------------------------------
# Shared sweeps (memoised)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    """One (configuration, sparsity) measurement."""

    sparsity: float
    baseline_cycles: int
    hht_cycles: int
    cpu_wait_cycles: int
    hht_wait_cycles: int

    @property
    def speedup(self) -> float:
        return self.baseline_cycles / self.hht_cycles

    @property
    def cpu_wait_fraction(self) -> float:
        return self.cpu_wait_cycles / self.hht_cycles if self.hht_cycles else 0.0


def _sweep_points(
    base_specs: list, hht_specs: list, sparsities: tuple[float, ...]
) -> tuple[SweepPoint, ...]:
    """Run a baseline/HHT spec pair per sparsity through the engine.

    Both series go to :func:`repro.exec.run_specs` as ONE batch, so the
    whole sweep parallelises and shared points (e.g. the baselines the
    1-buffer and 2-buffer sweeps have in common) simulate only once.
    """
    summaries = run_specs(base_specs + hht_specs)
    base, hht = summaries[: len(base_specs)], summaries[len(base_specs):]
    return tuple(
        SweepPoint(
            sparsity=s,
            baseline_cycles=b.cycles,
            hht_cycles=h.cycles,
            cpu_wait_cycles=h.cpu_wait_cycles,
            hht_wait_cycles=h.hht_wait_cycles,
        )
        for s, b, h in zip(sparsities, base, hht)
    )


@lru_cache(maxsize=None)
def spmv_sweep(size: int, vlmax: int, n_buffers: int,
               sparsities: tuple[float, ...] = SPARSITIES) -> tuple[SweepPoint, ...]:
    """Baseline-vs-HHT SpMV cycles across the sparsity sweep."""
    base = [
        spmv_spec((size, size), s, accel=None, vlmax=vlmax,
                  matrix_seed=_SEED + i, vector_seed=_SEED + 100 + i)
        for i, s in enumerate(sparsities)
    ]
    hht = [
        spmv_spec((size, size), s, accel="hht", vlmax=vlmax, n_buffers=n_buffers,
                  matrix_seed=_SEED + i, vector_seed=_SEED + 100 + i)
        for i, s in enumerate(sparsities)
    ]
    return _sweep_points(base, hht, sparsities)


@lru_cache(maxsize=None)
def spmspv_sweep(size: int, variant: str, n_buffers: int,
                 sparsities: tuple[float, ...] = SPARSITIES) -> tuple[SweepPoint, ...]:
    """Baseline-vs-HHT SpMSpV cycles; variant in {'hht_v1', 'hht_v2'}.

    Matrix and vector share each sweep point's sparsity level, as in the
    paper ("randomly generated matrices and vectors with varying degrees
    of sparsities").
    """
    base = [
        spmspv_spec(size, s, mode="baseline",
                    matrix_seed=_SEED + i, vector_seed=_SEED + 200 + i)
        for i, s in enumerate(sparsities)
    ]
    hht = [
        spmspv_spec(size, s, mode=variant, n_buffers=n_buffers,
                    matrix_seed=_SEED + i, vector_seed=_SEED + 200 + i)
        for i, s in enumerate(sparsities)
    ]
    return _sweep_points(base, hht, sparsities)


# ---------------------------------------------------------------------------
# Accelerator front-end bake-off (repro compare)
# ---------------------------------------------------------------------------
#: The five execution variants the bake-off compares, in display order:
#: the two pure-CPU baselines, then one column per registered rival.
COMPARE_SERIES = ("scalar", "vector", "hht", "ssr", "indexmac")

#: Kernel selector per series: (accel name, vlmax).
_COMPARE_VARIANTS = {
    "scalar": (None, 1),
    "vector": (None, 8),
    "hht": ("hht", 8),
    "ssr": ("ssr", 8),
    "indexmac": ("indexmac", 8),
}


@lru_cache(maxsize=None)
def accelerator_sweep(size: int) -> dict[str, tuple[int, ...]]:
    """SpMV cycles per series across the sparsity sweep, one batch.

    Every variant sees the *same* matrix/vector per sparsity point
    (shared seeds), so cycle ratios are pure architecture differences.
    """
    specs = []
    for i, s in enumerate(SPARSITIES):
        for name in COMPARE_SERIES:
            accel, vlmax = _COMPARE_VARIANTS[name]
            specs.append(
                spmv_spec(
                    (size, size), s, accel=accel, vlmax=vlmax,
                    matrix_seed=_SEED + 800 + i,
                    vector_seed=_SEED + 810 + i,
                )
            )
    summaries = run_specs(specs)
    n = len(COMPARE_SERIES)
    return {
        name: tuple(
            summaries[i * n + j].cycles for i in range(len(SPARSITIES))
        )
        for j, name in enumerate(COMPARE_SERIES)
    }


def compare_speedup_table(size: int | None = None) -> Table:
    """The bake-off figure: speedup over the scalar CPU vs sparsity."""
    size = size or default_size()
    cycles = accelerator_sweep(size)
    series = [name for name in COMPARE_SERIES if name != "scalar"]
    table = Table(
        f"Compare: SpMV speedup over scalar CPU vs sparsity "
        f"({size}x{size}, VL=8)",
        ["sparsity"] + series,
    )
    for i, s in enumerate(SPARSITIES):
        scalar = cycles["scalar"][i]
        table.add_row(
            f"{s:.0%}", *(scalar / cycles[name][i] for name in series)
        )
    for name in series:
        table.add_note(
            f"{name}: geomean speedup "
            f"{compare_geomean_speedup(cycles, name):.2f}x over scalar"
        )
    return table


def compare_detail_table(size: int | None = None) -> Table:
    """The bake-off table: raw cycles per variant and sparsity."""
    size = size or default_size()
    cycles = accelerator_sweep(size)
    table = Table(
        f"Compare: SpMV cycles per accelerator front-end ({size}x{size})",
        ["sparsity"] + list(COMPARE_SERIES),
    )
    for i, s in enumerate(SPARSITIES):
        table.add_row(f"{s:.0%}", *(cycles[name][i] for name in COMPARE_SERIES))
    table.add_note(
        "scalar/vector are the pure-CPU baselines (VL=1 / VL=8); "
        "hht/ssr/indexmac run the VL=8 CPU with that front-end"
    )
    return table


def compare_geomean_speedup(
    cycles: dict[str, tuple[int, ...]], name: str,
    baseline: str = "scalar",
) -> float:
    """Geometric-mean speedup of one series over a baseline series."""
    ratios = [b / c for b, c in zip(cycles[baseline], cycles[name])]
    product = 1.0
    for r in ratios:
        product *= r
    return product ** (1.0 / len(ratios))


# ---------------------------------------------------------------------------
# Table 1 and Figure 1
# ---------------------------------------------------------------------------
def table1_config() -> Table:
    """The system configuration actually simulated (paper Table 1)."""
    cfg = SystemConfig.paper_table1()
    table = Table("Table 1: system configuration", ["component", "value"])
    for line in cfg.describe().splitlines():
        key, _, value = line.partition("  ")
        table.add_row(key.strip(), value.strip())
    return table


# ---------------------------------------------------------------------------
# Figure 4 / Figure 6 — SpMV speedup and CPU wait
# ---------------------------------------------------------------------------
def fig4_spmv_speedup(size: int | None = None) -> Table:
    """Fig. 4: SpMV speedup over CPU-only baseline, 1 and 2 buffers."""
    size = size or default_size()
    one = spmv_sweep(size, 8, 1)
    two = spmv_sweep(size, 8, 2)
    table = Table(
        f"Fig. 4: SpMV speedup vs sparsity ({size}x{size}, VL=8)",
        ["sparsity", "Dedicated_HHT_1buffer", "Dedicated_HHT_2buffer"],
    )
    for p1, p2 in zip(one, two):
        table.add_row(f"{p1.sparsity:.0%}", p1.speedup, p2.speedup)
    table.add_note(
        f"averages: 1buf {sum(p.speedup for p in one) / len(one):.2f}, "
        f"2buf {sum(p.speedup for p in two) / len(two):.2f} "
        "(paper: 1.70 and 1.73)"
    )
    return table


def fig6_spmv_wait(size: int | None = None) -> Table:
    """Fig. 6: fraction of time the CPU idles waiting for the HHT (SpMV)."""
    size = size or default_size()
    one = spmv_sweep(size, 8, 1)
    two = spmv_sweep(size, 8, 2)
    table = Table(
        f"Fig. 6: SpMV CPU wait fraction ({size}x{size}, VL=8)",
        ["sparsity", "HHT_1buffer", "HHT_2buffer"],
    )
    for p1, p2 in zip(one, two):
        table.add_row(f"{p1.sparsity:.0%}", p1.cpu_wait_fraction, p2.cpu_wait_fraction)
    table.add_note("paper: 'with an ASIC HHT, the application CPU rarely waits'")
    return table


# ---------------------------------------------------------------------------
# Figure 5 / Figure 7 — SpMSpV speedup and CPU wait
# ---------------------------------------------------------------------------
def fig5_spmspv_speedup(size: int | None = None) -> Table:
    """Fig. 5: SpMSpV speedup, variants 1 and 2 with 1 and 2 buffers."""
    size = size or default_size()
    series = {
        "v1_1buffer": spmspv_sweep(size, "hht_v1", 1),
        "v1_2buffer": spmspv_sweep(size, "hht_v1", 2),
        "v2_1buffer": spmspv_sweep(size, "hht_v2", 1),
        "v2_2buffer": spmspv_sweep(size, "hht_v2", 2),
    }
    table = Table(
        f"Fig. 5: SpMSpV speedup vs sparsity ({size}x{size}, VL=8)",
        ["sparsity"] + list(series),
    )
    for i, s in enumerate(SPARSITIES):
        table.add_row(f"{s:.0%}", *(pts[i].speedup for pts in series.values()))
    avg1 = sum(p.speedup for p in series["v1_2buffer"]) / len(SPARSITIES)
    avg2 = sum(p.speedup for p in series["v2_2buffer"]) / len(SPARSITIES)
    table.add_note(
        f"averages (2buf): variant-1 {avg1:.2f} (paper 2.47), "
        f"variant-2 {avg2:.2f} (paper 3.05)"
    )
    return table


def fig7_spmspv_wait(size: int | None = None) -> Table:
    """Fig. 7: CPU wait fraction for SpMSpV, both variants."""
    size = size or default_size()
    series = {
        "v1_1buffer": spmspv_sweep(size, "hht_v1", 1),
        "v1_2buffer": spmspv_sweep(size, "hht_v1", 2),
        "v2_1buffer": spmspv_sweep(size, "hht_v2", 1),
        "v2_2buffer": spmspv_sweep(size, "hht_v2", 2),
    }
    table = Table(
        f"Fig. 7: SpMSpV CPU wait fraction ({size}x{size}, VL=8)",
        ["sparsity"] + list(series),
    )
    for i, s in enumerate(SPARSITIES):
        table.add_row(
            f"{s:.0%}", *(pts[i].cpu_wait_fraction for pts in series.values())
        )
    table.add_note(
        "paper: variant-1 idles the CPU significantly; variant-2 reduces it"
    )
    return table


# ---------------------------------------------------------------------------
# Figure 8 — sensitivity to vector width
# ---------------------------------------------------------------------------
def fig8_vector_width(size: int | None = None) -> Table:
    """Fig. 8: SpMV speedup at vector widths 1 (scalar), 4 and 8."""
    size = size or default_size()
    widths = (1, 4, 8)
    sweeps = {vl: spmv_sweep(size, vl, 2) for vl in widths}
    table = Table(
        f"Fig. 8: SpMV speedup vs vector width ({size}x{size}, 2 buffers)",
        ["sparsity"] + [f"VL={vl}" for vl in widths],
    )
    for i, s in enumerate(SPARSITIES):
        table.add_row(f"{s:.0%}", *(sweeps[vl][i].speedup for vl in widths))
    for vl in widths:
        lo = min(p.speedup for p in sweeps[vl])
        hi = max(p.speedup for p in sweeps[vl])
        table.add_note(f"VL={vl}: speedup range {lo:.2f}-{hi:.2f}")
    table.add_note("paper ranges: 1.77-1.81 (scalar), 1.51-1.62 (VL4), 1.71-1.75 (VL8)")
    return table


# ---------------------------------------------------------------------------
# Figure 9 — DNN fully-connected layers
# ---------------------------------------------------------------------------
def fig9_dnn_layers(rows: int | None = "default") -> Table:
    """Fig. 9: SpMV speedup on DNN classifier layers (VL=8, 2 buffers)."""
    if rows == "default":
        rows = default_dnn_rows()
    table = Table(
        "Fig. 9: HHT speedup on DNN fully-connected layers",
        ["network", "shape", "sparsity", "baseline_cycles", "hht_cycles", "speedup"],
    )
    specs = []
    for i, name in enumerate(FIG9_ORDER):
        for hht in (False, True):
            specs.append(
                dnn_spec(name, hht=hht, rows=rows,
                         matrix_seed=_SEED + i, vector_seed=_SEED + 50 + i)
            )
    summaries = run_specs(specs)
    for i, name in enumerate(FIG9_ORDER):
        layer = FC_LAYERS[name]
        base, hht = summaries[2 * i], summaries[2 * i + 1]
        nrows = layer.classes if rows is None else min(rows, layer.classes)
        table.add_row(
            name,
            f"{nrows}x{layer.features}",
            f"{layer.sparsity:.0%}",
            base.cycles,
            hht.cycles,
            base.cycles / hht.cycles,
        )
    if rows is not None:
        table.add_note(f"row-tiled to {rows} output rows (REPRO_FULL=1 for all 1000)")
    table.add_note("paper range: 1.53x (DenseNet) to 1.92x (VGG19)")
    return table


# ---------------------------------------------------------------------------
# Section 5.5 — area, power, energy
# ---------------------------------------------------------------------------
def sec55_area_power_energy(
    *, size: int | None = None, feature_nm: int = 16, clock_mhz: float = 50.0
) -> Table:
    """Section 5.5: the synthesis-anchored area/power/energy comparison.

    The paper's synthesised design processes a 16x16 tile at a time
    ("any bigger matrices can be broken into 16x16 sized matrices on
    HHT").  The simulator does not tile: the energy rows apply the
    16 nm / 50 MHz power anchors to the cycles of the untiled Fig. 4
    SpMV sweep (``spmv_sweep(size, 8, 2)``: VL=8, two buffers).  The
    paper reports 223 uW (CPU), 314 uW (CPU+HHT), an HHT at 38.9 % of
    an Ibex core, and a 19 % average energy saving across sparsities
    10-90 %.
    """
    size = size or default_size()
    table = Table(
        f"Sec. 5.5: energy at {feature_nm} nm / {clock_mhz:.0f} MHz "
        f"({size}x{size} untiled SpMV sweep, VL=8, N=2)",
        ["sparsity", "baseline_cycles", "hht_cycles", "speedup", "energy_savings"],
    )
    savings = []
    for point in spmv_sweep(size, 8, 2):
        cmp = energy_comparison(
            point.baseline_cycles, point.hht_cycles,
            feature_nm=feature_nm, clock_mhz=clock_mhz,
        )
        savings.append(cmp.savings_fraction)
        table.add_row(
            f"{point.sparsity:.0%}",
            point.baseline_cycles,
            point.hht_cycles,
            cmp.speedup,
            cmp.savings_fraction,
        )
    table.add_note(
        f"average energy saving: {sum(savings) / len(savings):.1%} (paper: 19%)"
    )
    table.add_note(
        f"power: CPU {system_power(feature_nm, clock_mhz, with_hht=False):.0f} uW, "
        f"CPU+HHT {system_power(feature_nm, clock_mhz, with_hht=True):.0f} uW "
        "(paper: 223 and 314 uW)"
    )
    table.add_note(
        f"area: HHT = {area_ratio_vs_ibex():.1%} of Ibex "
        f"({hht_area().total_gates} vs {int(ibex_area_um2(feature_nm) / 0.20)} GE"
        " at 16 nm) — paper: 38.9%"
    )
    return table


# ---------------------------------------------------------------------------
# Extensions: .mtx corpus and ablations
# ---------------------------------------------------------------------------
def ext_mtx_corpus() -> Table:
    """Texas A&M-style high-sparsity corpus (paper: 'results inline with
    synthetic workloads')."""
    table = Table(
        "Extension: HHT on the bundled .mtx corpus (>90% sparse)",
        ["matrix", "shape", "sparsity", "baseline_cycles", "hht_cycles", "speedup"],
    )
    specs = []
    for name in CORPUS_NAMES:
        for hht in (False, True):
            specs.append(corpus_spec(name, hht=hht, vector_seed=_SEED))
    summaries = run_specs(specs)
    for i, name in enumerate(CORPUS_NAMES):
        matrix = load_corpus_matrix(name)
        base, hht = summaries[2 * i], summaries[2 * i + 1]
        table.add_row(
            name,
            f"{matrix.nrows}x{matrix.ncols}",
            f"{matrix.sparsity:.1%}",
            base.cycles,
            hht.cycles,
            base.cycles / hht.cycles,
        )
    return table


def ext_programmable_hht(size: int = 96, sparsity: float = 0.7) -> Table:
    """Extension (Sections 6-7): the programmable HHT across formats.

    The paper's conclusion proposes a RISC-V-like helper core so one HHT
    can handle "many different sparse representations" (CSR, COO, bit
    vector, SMASH); Section 6 reports that SMASH's "complicated
    indexing" makes the HHT work harder than the CPU, "causing CPU to
    idle".  This experiment quantifies both: the same consumer kernel
    runs against four firmwares, compared with the fixed-function ASIC
    engine and the CPU-only baseline.
    """
    from ..power.area import area_ratio_vs_ibex, programmable_area_ratio_vs_ibex

    formats = ("csr", "coo", "bitvector", "smash")
    specs = [
        spmv_spec((size, size), sparsity, accel=None,
                  matrix_seed=_SEED + 500, vector_seed=_SEED + 501),
        spmv_spec((size, size), sparsity, accel="hht",
                  matrix_seed=_SEED + 500, vector_seed=_SEED + 501),
    ] + [
        programmable_spec((size, size), sparsity, format_name=fmt,
                          matrix_seed=_SEED + 500, vector_seed=_SEED + 501)
        for fmt in formats
    ]
    summaries = run_specs(specs)
    base, asic = summaries[0], summaries[1]

    table = Table(
        f"Extension: programmable HHT vs ASIC ({size}x{size}, "
        f"{sparsity:.0%} sparse, VL=8)",
        ["backend", "format", "cycles", "speedup_vs_baseline",
         "cpu_wait_fraction"],
    )
    table.add_row("cpu-only", "csr", base.cycles, 1.0, 0.0)
    table.add_row(
        "asic-hht", "csr", asic.cycles, base.cycles / asic.cycles,
        asic.cpu_wait_fraction,
    )
    for fmt, run in zip(formats, summaries[2:]):
        table.add_row(
            "prog-hht", fmt, run.cycles, base.cycles / run.cycles,
            run.cpu_wait_fraction,
        )
    table.add_note(
        "flexibility costs throughput: the scalar helper core cannot feed "
        "an 8-wide vector CPU, so the CPU idles (the paper's Section 6 "
        "observation for SMASH) — the ASIC engine remains the fast path"
    )
    table.add_note(
        f"area: ASIC HHT {area_ratio_vs_ibex():.1%} of Ibex, programmable "
        f"HHT {programmable_area_ratio_vs_ibex():.1%}"
    )
    return table


def ext_cached_system(size: int = 128, *, ram_latency: int = 8) -> Table:
    """Extension (Section 3.2): the L1D-cached high-performance integration.

    The paper's MCU evaluation uses flat SRAM, but Section 3 describes the
    other integration: "the BE issues requests to the L1D cache".  This
    experiment reruns the SpMV comparison with a 4 KiB L1D in front of a
    slow (DRAM-ish) memory, for both the CPU and the HHT, and reports how
    the HHT's advantage changes when the baseline's gathers start hitting
    the cache.
    """
    from ..memory.cache import CacheConfig

    def config(cached: bool) -> SystemConfig:
        cfg = SystemConfig.paper_table1()
        cfg.ram_latency = ram_latency
        if cached:
            cfg.cache = CacheConfig(line_bytes=32, n_sets=64, assoc=2)
        return cfg

    sparsities = (0.1, 0.5, 0.9)
    specs = [
        spmv_spec((size, size), s, accel=accel, config=config(cached),
                  matrix_seed=_SEED + 600 + i, vector_seed=_SEED + 610 + i)
        for i, s in enumerate(sparsities)
        for cached in (False, True)
        for accel in (None, "hht")
    ]
    summaries = run_specs(specs)

    table = Table(
        f"Extension: L1D-cached integration ({size}x{size}, "
        f"RAM latency {ram_latency})",
        ["sparsity", "uncached_speedup", "cached_speedup",
         "baseline_hit_rate", "hht_hit_rate"],
    )
    for i, s in enumerate(sparsities):
        ub, uh, cb, ch = summaries[4 * i: 4 * i + 4]
        # Hit rates straight from the stats registry.
        hits = cb.stats.get("soc.l1d.hits", 0)
        accesses = hits + cb.stats.get("soc.l1d.misses", 0)
        base_hr = hits / accesses if accesses else 0.0
        hht_hits = ch.stats.get("soc.l1d.requester.hht.hits", 0)
        hht_accesses = hht_hits + ch.stats.get(
            "soc.l1d.requester.hht.misses", 0
        )
        hht_hr = hht_hits / hht_accesses if hht_accesses else 0.0
        table.add_row(
            f"{s:.0%}", ub.cycles / uh.cycles, cb.cycles / ch.cycles,
            base_hr, hht_hr,
        )
    table.add_note(
        "with an L1D, the baseline's gathers hit the cache (the whole "
        "vector fits), narrowing the HHT's advantage — the reason the "
        "paper targets cacheless MCUs where gathers always pay RAM latency"
    )
    return table


def ablation_memory(size: int = 128) -> Table:
    """Ablation: RAM latency x buffer count on SpMV speedup (50% sparse)."""
    def config(latency: int, n_buffers: int) -> SystemConfig:
        cfg = SystemConfig.paper_table1(vlmax=8, n_buffers=n_buffers)
        cfg.ram_latency = latency
        return cfg

    grid = [
        (latency, n_buffers)
        for latency in (1, 2, 4, 8)
        for n_buffers in (1, 2, 4)
    ]
    specs = [
        spmv_spec((size, size), 0.5, accel=accel,
                  config=config(latency, n_buffers),
                  matrix_seed=_SEED, vector_seed=_SEED + 1)
        for latency, n_buffers in grid
        for accel in (None, "hht")
    ]
    summaries = run_specs(specs)

    table = Table(
        f"Ablation: RAM latency x buffers ({size}x{size}, 50% sparse, VL=8)",
        ["ram_latency", "n_buffers", "speedup", "cpu_wait_fraction"],
    )
    for k, (latency, n_buffers) in enumerate(grid):
        base, hht = summaries[2 * k], summaries[2 * k + 1]
        table.add_row(
            latency,
            n_buffers,
            base.cycles / hht.cycles,
            hht.cpu_wait_fraction,
        )
    return table


def ablation_banks(size: int = 128, *, ram_latency: int = 4) -> Table:
    """Ablation: word-interleaved RAM banking vs port contention.

    Sweeps the new ``SystemConfig.banks`` topology field on the HHT SpMV
    system.  With one bank every CPU/HHT request serialises on the
    single issue port; extra banks let requests to different words
    proceed in parallel, which shows up directly in the registry's
    ``soc.ram.queue_cycles`` counter.
    """
    banks_sweep = (1, 2, 4, 8)

    def config(banks: int) -> SystemConfig:
        cfg = SystemConfig.paper_table1()
        cfg.ram_latency = ram_latency
        cfg.banks = banks
        return cfg

    # Two workloads with different contention profiles: the ASIC engine
    # (paced, bursty) and the programmable helper core (a second scalar
    # core genuinely interleaving with the main CPU on the port).
    prog_size = min(size, 64)
    workloads = [
        ("spmv+asic", lambda banks: spmv_spec(
            (size, size), 0.7, accel="hht", config=config(banks),
            matrix_seed=_SEED + 700, vector_seed=_SEED + 710)),
        ("spmv+prog", lambda banks: programmable_spec(
            (prog_size, prog_size), 0.7, format_name="csr",
            config=config(banks),
            matrix_seed=_SEED + 701, vector_seed=_SEED + 711)),
    ]
    specs = [make(banks) for _, make in workloads for banks in banks_sweep]
    summaries = run_specs(specs)

    table = Table(
        f"Ablation: RAM banks ({size}x{size}, 70% sparse, "
        f"RAM latency {ram_latency})",
        ["workload", "banks", "cycles", "queue_cycles", "port_busy",
         "speedup_vs_1_bank"],
    )
    for i, (label, _) in enumerate(workloads):
        group = summaries[len(banks_sweep) * i: len(banks_sweep) * (i + 1)]
        one_bank = group[0]
        for banks, summary in zip(banks_sweep, group):
            table.add_row(
                label,
                banks,
                summary.cycles,
                int(summary.stats.get("soc.ram.queue_cycles", 0)),
                int(summary.stats.get("soc.ram.busy_cycles", 0)),
                one_bank.cycles / summary.cycles,
            )
    table.add_note(
        "banks=1 is the paper's single-issue port (bit-identical to the "
        "main figures); extra banks relieve CPU/HHT queueing"
    )
    return table


def ablation_cores(size: int = 128, *, ram_latency: int = 4) -> Table:
    """Ablation: core count x MMU on the row-partitioned SpMV baseline.

    Sweeps ``SystemConfig.n_cores`` (and optionally attaches the per-core
    TLB/page-table-walk model) on the pure-CPU SpMV kernel: cores own
    static row blocks and contend for the single shared RAM port, so the
    sweep measures both contention scaling (``queue_cycles`` growth,
    sub-linear ``speedup_vs_1core``) and the virtual-memory overhead
    (``vm_overhead`` = extra cycles of the MMU run over its physical
    twin, walks charged as real requests on the same port).
    """
    from ..memory.mmu import MmuConfig
    from ..power.power import system_power as _sys_power

    core_sweep = (1, 2, 4)

    def config(n_cores: int, mmu: bool) -> SystemConfig:
        cfg = SystemConfig.paper_table1()
        cfg.ram_latency = ram_latency
        cfg.n_cores = n_cores
        if mmu:
            cfg.mmu = MmuConfig()
        return cfg

    grid = [(n, mmu) for n in core_sweep for mmu in (False, True)]
    specs = [
        spmv_spec((size, size), 0.7, accel=None, config=config(n, mmu),
                  matrix_seed=_SEED + 900, vector_seed=_SEED + 910)
        for n, mmu in grid
    ]
    summaries = run_specs(specs)
    by_point = dict(zip(grid, summaries))

    def walk_cycles(summary) -> int:
        return int(sum(v for k, v in summary.stats.items()
                       if k.endswith(".tlb.walk_cycles")))

    table = Table(
        f"Ablation: cores x MMU ({size}x{size}, 70% sparse, "
        f"RAM latency {ram_latency}, pure-CPU row-partitioned SpMV)",
        ["cores", "mmu", "cycles", "queue_cycles", "walk_cycles",
         "speedup_vs_1core", "vm_overhead", "power_uw"],
    )
    for n, mmu in grid:
        summary = by_point[(n, mmu)]
        one_core = by_point[(1, mmu)]
        phys = by_point[(n, False)]
        table.add_row(
            n,
            "on" if mmu else "off",
            summary.cycles,
            int(summary.stats.get("soc.ram.queue_cycles", 0)),
            walk_cycles(summary),
            one_core.cycles / summary.cycles,
            summary.cycles / phys.cycles - 1.0,
            _sys_power(16, 50, with_hht=False, n_cores=n, with_mmu=mmu),
        )
    table.add_note(
        "cores=1/mmu=off is the paper's configuration (bit-identical to "
        "the main figures); speedup saturates as the shared port queues, "
        "and the MMU's walks pay the same port's contention (power "
        "prices each core, and each TLB when the MMU is on, per instance "
        "at 16nm/50MHz)"
    )
    return table
