"""Power model of the RISC-V core and the HHT (Section 5.5).

Anchored to the paper's two published PrimeTime numbers at 16 nm /
50 MHz: the RISC-V core alone draws 223 uW; RISC-V + HHT draws 314 uW
(i.e. the HHT adds 91 uW).  The model decomposes each engine's power into
a dynamic part, linear in clock frequency, and a static (leakage) part,
and scales both across the paper's synthesis corners (28/16/7 nm at
10/50/100 MHz) with representative technology factors.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Clock frequencies the paper synthesised at (MHz).
CLOCKS_MHZ = (10, 50, 100)

#: Feature sizes the paper synthesised at (nm).
FEATURE_SIZES_NM = (28, 16, 7)

#: Dynamic-power scale factor relative to 16 nm (C * V^2 trend).
DYNAMIC_SCALE = {28: 2.1, 16: 1.0, 7: 0.42}

#: Static (leakage) power scale relative to 16 nm.
STATIC_SCALE = {28: 1.4, 16: 1.0, 7: 0.55}

#: Calibration anchors at 16 nm (dynamic in uW/MHz, static in uW), chosen
#: to reproduce the paper's 223 uW (CPU) and 314 uW (CPU + HHT) at 50 MHz.
_CPU_DYN_UW_PER_MHZ = 4.1
_CPU_STATIC_UW = 18.0
_HHT_DYN_UW_PER_MHZ = 1.68
_HHT_STATIC_UW = 7.0


class PowerModelError(ValueError):
    """Raised for unsupported synthesis corners."""


def _check_corner(feature_nm: int, clock_mhz: float) -> None:
    if feature_nm not in DYNAMIC_SCALE:
        raise PowerModelError(
            f"unsupported feature size {feature_nm} nm; known: {FEATURE_SIZES_NM}"
        )
    if clock_mhz <= 0:
        raise PowerModelError(f"clock must be positive, got {clock_mhz} MHz")


@dataclass(frozen=True)
class EnginePower:
    """Power draw of one engine at a synthesis corner."""

    name: str
    dynamic_uw: float
    static_uw: float

    @property
    def total_uw(self) -> float:
        return self.dynamic_uw + self.static_uw


def cpu_power(feature_nm: int = 16, clock_mhz: float = 50.0) -> EnginePower:
    """RISC-V (Ibex-class) core power at a synthesis corner."""
    _check_corner(feature_nm, clock_mhz)
    dyn = _CPU_DYN_UW_PER_MHZ * clock_mhz * DYNAMIC_SCALE[feature_nm]
    sta = _CPU_STATIC_UW * STATIC_SCALE[feature_nm]
    return EnginePower("riscv", dyn, sta)


def hht_power(feature_nm: int = 16, clock_mhz: float = 50.0) -> EnginePower:
    """HHT power at a synthesis corner (variant-2 design, Section 5.5)."""
    _check_corner(feature_nm, clock_mhz)
    dyn = _HHT_DYN_UW_PER_MHZ * clock_mhz * DYNAMIC_SCALE[feature_nm]
    sta = _HHT_STATIC_UW * STATIC_SCALE[feature_nm]
    return EnginePower("hht", dyn, sta)


#: Per-core TLB + page-table walker anchors — a small fully associative
#: CAM plus a two-state walker FSM, sized from its gate count relative
#: to the HHT anchors (see repro.power.area.tlb_gates).
_TLB_DYN_UW_PER_MHZ = 0.34
_TLB_STATIC_UW = 1.4


def tlb_power(feature_nm: int = 16, clock_mhz: float = 50.0) -> EnginePower:
    """Per-core TLB/walker power at a synthesis corner."""
    _check_corner(feature_nm, clock_mhz)
    dyn = _TLB_DYN_UW_PER_MHZ * clock_mhz * DYNAMIC_SCALE[feature_nm]
    sta = _TLB_STATIC_UW * STATIC_SCALE[feature_nm]
    return EnginePower("tlb", dyn, sta)


def system_power(feature_nm: int = 16, clock_mhz: float = 50.0,
                 *, with_hht: bool = True, n_cores: int = 1,
                 with_mmu: bool = False) -> float:
    """Total system power in uW (paper: 223 uW alone, 314 uW with HHT).

    Cores and (when the MMU is on) their TLBs are priced per instance:
    an ``n_cores``-core system pays ``n_cores`` CPU draws, plus one TLB
    draw per core under ``with_mmu``.  The shared port/RAM and the
    accelerator are system-level and priced once.
    """
    if n_cores < 1:
        raise PowerModelError(f"n_cores must be >= 1, got {n_cores}")
    per_core = cpu_power(feature_nm, clock_mhz).total_uw
    if with_mmu:
        per_core += tlb_power(feature_nm, clock_mhz).total_uw
    total = n_cores * per_core
    if with_hht:
        total += hht_power(feature_nm, clock_mhz).total_uw
    return total
