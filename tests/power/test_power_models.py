"""Area, power and energy model tests (Section 5.5 anchors)."""

import pytest

from repro.core import HHTConfig
from repro.power import (
    AreaBreakdown,
    EnergyComparison,
    PowerModelError,
    area_ratio_vs_ibex,
    cpu_power,
    energy_comparison,
    energy_uj,
    hht_area,
    hht_power,
    ibex_area_um2,
    seconds,
    system_power,
)


class TestArea:
    def test_paper_ratio(self):
        """Headline number: HHT = 38.9% of an Ibex core."""
        assert area_ratio_vs_ibex() == pytest.approx(0.389, abs=0.002)

    def test_breakdown_sums(self):
        b = hht_area()
        assert b.total_gates == sum(b.as_dict().values())

    def test_area_scales_with_node(self):
        b = hht_area()
        assert b.area_um2(28) > b.area_um2(16) > b.area_um2(7)

    def test_more_buffers_cost_area(self):
        small = hht_area(HHTConfig(n_buffers=1))
        big = hht_area(HHTConfig(n_buffers=4))
        assert big.total_gates > small.total_gates

    def test_larger_buffers_cost_area(self):
        small = hht_area(HHTConfig(buffer_elems=4))
        big = hht_area(HHTConfig(buffer_elems=16))
        assert big.total_gates > small.total_gates

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="feature size"):
            hht_area().area_um2(45)
        with pytest.raises(ValueError, match="feature size"):
            ibex_area_um2(45)

    def test_hht_always_smaller_than_ibex(self):
        assert hht_area().area_um2(16) < ibex_area_um2(16)


class TestPower:
    def test_paper_anchors(self):
        """223 uW CPU-only and 314 uW CPU+HHT at 16 nm / 50 MHz."""
        assert system_power(16, 50, with_hht=False) == pytest.approx(223, abs=0.5)
        assert system_power(16, 50, with_hht=True) == pytest.approx(314, abs=0.5)

    def test_dynamic_power_scales_with_clock(self):
        p10 = cpu_power(16, 10)
        p100 = cpu_power(16, 100)
        assert p100.dynamic_uw == pytest.approx(10 * p10.dynamic_uw)
        assert p100.static_uw == p10.static_uw

    def test_node_scaling_ordering(self):
        assert (system_power(28, 50) > system_power(16, 50)
                > system_power(7, 50))

    def test_hht_draws_less_than_cpu(self):
        assert hht_power(16, 50).total_uw < cpu_power(16, 50).total_uw

    def test_invalid_corner(self):
        with pytest.raises(PowerModelError):
            system_power(10, 50)
        with pytest.raises(PowerModelError):
            system_power(16, 0)


class TestEnergy:
    def test_seconds(self):
        assert seconds(50_000_000, 50.0) == pytest.approx(1.0)

    def test_paper_arithmetic(self):
        """A 1.74x speedup with the 314/223 power ratio gives ~19% saving."""
        cmp = energy_comparison(174, 100)
        assert cmp.speedup == pytest.approx(1.74)
        assert cmp.savings_fraction == pytest.approx(0.19, abs=0.01)

    def test_no_speedup_means_negative_savings(self):
        cmp = energy_comparison(100, 100)
        assert cmp.savings_fraction < 0

    def test_break_even_speedup(self):
        """Savings cross zero at speedup = P_hht / P_cpu = 314/223."""
        ratio = 314.0 / 223.0
        cmp = energy_comparison(int(ratio * 10_000), 10_000)
        assert abs(cmp.savings_fraction) < 0.001

    def test_clock_gated_hht_saves_more(self):
        busy = energy_comparison(200, 100, hht_busy_fraction=1.0)
        gated = energy_comparison(200, 100, hht_busy_fraction=0.3)
        assert gated.savings_fraction > busy.savings_fraction

    def test_energy_uj_units(self):
        # 223 uW for one second is 223 uJ.
        e = energy_uj(50_000_000, clock_mhz=50.0)
        assert e == pytest.approx(223, abs=0.5)

    def test_invalid_busy_fraction(self):
        with pytest.raises(ValueError):
            energy_uj(100, with_hht=True, hht_busy_fraction=1.5)

    def test_comparison_dataclass_fields(self):
        cmp = energy_comparison(200, 100, feature_nm=7, clock_mhz=100)
        assert isinstance(cmp, EnergyComparison)
        assert cmp.feature_nm == 7
        assert cmp.clock_mhz == 100
