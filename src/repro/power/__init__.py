"""Synthesis-anchored area, power and energy models (Section 5.5)."""

from .area import (
    AREA_PER_GATE_UM2,
    HELPER_CORE_GATES,
    IBEX_GATES,
    AreaBreakdown,
    area_ratio_vs_ibex,
    hht_area,
    ibex_area_um2,
    programmable_area_ratio_vs_ibex,
    programmable_hht_gates,
    tlb_gates,
)
from .activity import (
    ENERGY_PER_MEM_ACCESS_PJ,
    ENERGY_PER_OP_PJ,
    EnergyBreakdown,
    breakdown_table,
    energy_breakdown,
)
from .energy import EnergyComparison, energy_comparison, energy_uj, seconds
from .power import (
    CLOCKS_MHZ,
    FEATURE_SIZES_NM,
    EnginePower,
    PowerModelError,
    cpu_power,
    hht_power,
    system_power,
    tlb_power,
)

__all__ = [
    "AREA_PER_GATE_UM2",
    "IBEX_GATES",
    "AreaBreakdown",
    "area_ratio_vs_ibex",
    "hht_area",
    "ibex_area_um2",
    "ENERGY_PER_MEM_ACCESS_PJ",
    "ENERGY_PER_OP_PJ",
    "EnergyBreakdown",
    "breakdown_table",
    "energy_breakdown",
    "EnergyComparison",
    "energy_comparison",
    "energy_uj",
    "seconds",
    "CLOCKS_MHZ",
    "FEATURE_SIZES_NM",
    "EnginePower",
    "PowerModelError",
    "cpu_power",
    "hht_power",
    "system_power",
    "HELPER_CORE_GATES",
    "programmable_area_ratio_vs_ibex",
    "programmable_hht_gates",
    "tlb_gates",
    "tlb_power",
]
