"""Activity-based energy breakdown.

The anchored power model (:mod:`repro.power.power`) reproduces the
paper's two PrimeTime totals; this module decomposes a run's energy by
*what the machine actually did*: per-instruction-class switching energy
plus per-memory-access energy, calibrated so that a typical SpMV
instruction mix at 16 nm / 50 MHz integrates to the anchored CPU power.

This is the standard architecture-energy methodology (energy per op x
activity counts) and lets experiments report *where* the HHT saves
energy: fewer executed instructions, cheaper access patterns, and the
accelerator's own traffic moved to simpler hardware.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..system.soc import RunSummary
from .power import DYNAMIC_SCALE, STATIC_SCALE, cpu_power, hht_power

#: Switching energy per executed instruction at 16 nm, in picojoules.
#: Relative magnitudes follow the usual ASIC energy hierarchy (integer <
#: FP < vector, memory pipe on top); the absolute scale is calibrated so
#: a representative SpMV mix matches the 223 uW anchor at 50 MHz.
ENERGY_PER_OP_PJ = {
    "int_alu": 1.5,
    "branch": 1.8,
    "jump": 2.0,
    "scalar_load": 6.0,
    "scalar_store": 5.0,
    "fp_alu": 5.0,
    "fp_fma": 9.0,
    "vector_config": 1.5,
    "vector_load": 14.0,
    "vector_gather": 26.0,
    "vector_fp": 16.0,
    "vector_int": 8.0,
    "system": 1.0,
    # Accelerator front-end instructions (repro.accel): an SSR pop moves
    # data from the stream queue (cheaper than a port-traversing load);
    # the IndexMAC gathers pay the vector memory pipe without the
    # serialised address-generation energy, and the fused MAC adds the
    # vector FP datapath minus the saved operand-read energy.
    "ssr_pop": 3.5,
    "vector_pgather": 20.0,
    "vector_mac_idx": 30.0,
}

#: Energy per 32-bit on-chip RAM access (pJ at 16 nm) — charged per port
#: request, attributed to whoever issued it.
ENERGY_PER_MEM_ACCESS_PJ = 5.5

#: The HHT back-end's control/datapath energy per element it supplies.
ENERGY_PER_HHT_ELEMENT_PJ = 3.0

#: Final calibration factor on dynamic energy: set so the baseline SpMV
#: instruction mix at 16 nm / 50 MHz integrates to the paper's 223 uW
#: CPU power anchor.
DYNAMIC_CALIBRATION = 1.095


@dataclass(frozen=True)
class EnergyBreakdown:
    """Component energies of one run, in microjoules."""

    cpu_compute_uj: float
    cpu_memory_uj: float
    hht_memory_uj: float
    hht_datapath_uj: float
    leakage_uj: float

    @property
    def total_uj(self) -> float:
        return (
            self.cpu_compute_uj
            + self.cpu_memory_uj
            + self.hht_memory_uj
            + self.hht_datapath_uj
            + self.leakage_uj
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "cpu_compute": self.cpu_compute_uj,
            "cpu_memory": self.cpu_memory_uj,
            "hht_memory": self.hht_memory_uj,
            "hht_datapath": self.hht_datapath_uj,
            "leakage": self.leakage_uj,
        }


def energy_breakdown(
    result: RunSummary,
    *,
    feature_nm: int = 16,
    clock_mhz: float = 50.0,
    with_hht: bool | None = None,
) -> EnergyBreakdown:
    """Decompose a run's energy from its activity counters.

    ``with_hht`` defaults to whether the run actually used the HHT
    (non-zero elements supplied).
    """
    if feature_nm not in DYNAMIC_SCALE:
        raise ValueError(f"unsupported feature size {feature_nm} nm")
    dyn_scale = DYNAMIC_SCALE[feature_nm]
    stats = result.cpu_stats

    compute_pj = sum(
        ENERGY_PER_OP_PJ.get(klass, 2.0) * count
        for klass, count in stats.class_counts.items()
    )
    cpu_mem_pj = (
        ENERGY_PER_MEM_ACCESS_PJ * result.port_requests.get("cpu", 0)
    )
    hht_mem_pj = (
        ENERGY_PER_MEM_ACCESS_PJ * result.port_requests.get("hht", 0)
    )
    elements = result.hht_stats.get("elements_supplied", 0)
    hht_dp_pj = ENERGY_PER_HHT_ELEMENT_PJ * elements

    if with_hht is None:
        with_hht = elements > 0
    seconds = result.cycles / (clock_mhz * 1e6)
    static_uw = cpu_power(feature_nm, clock_mhz).static_uw
    if with_hht:
        static_uw += hht_power(feature_nm, clock_mhz).static_uw
    leak_uj = static_uw * seconds

    to_uj = 1e-6 * dyn_scale * DYNAMIC_CALIBRATION  # pJ -> uJ, node-scaled
    return EnergyBreakdown(
        cpu_compute_uj=compute_pj * to_uj,
        cpu_memory_uj=cpu_mem_pj * to_uj,
        hht_memory_uj=hht_mem_pj * to_uj,
        hht_datapath_uj=hht_dp_pj * to_uj,
        leakage_uj=leak_uj,
    )


def breakdown_table(baseline: RunSummary, hht: RunSummary, **kw):
    """Side-by-side activity-energy comparison of two runs."""
    from ..analysis.tables import Table

    base = energy_breakdown(baseline, **kw)
    helped = energy_breakdown(hht, **kw)
    table = Table(
        "activity-based energy breakdown (uJ)",
        ["component", "baseline", "with_hht"],
    )
    base_d, helped_d = base.as_dict(), helped.as_dict()
    for key in base_d:
        table.add_row(key, base_d[key], helped_d[key])
    table.add_row("total", base.total_uj, helped.total_uj)
    if base.total_uj:
        table.add_note(
            f"activity-energy saving: {1 - helped.total_uj / base.total_uj:.1%}"
        )
    return table
