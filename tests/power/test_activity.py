"""Activity-based energy breakdown tests."""

import pytest

from repro.analysis import run_spmv, run_spmspv
from repro.power import breakdown_table, energy_breakdown
from repro.power.activity import ENERGY_PER_OP_PJ
from repro.workloads import random_csr, random_dense_vector, random_sparse_vector


@pytest.fixture(scope="module")
def runs():
    matrix = random_csr((96, 96), 0.5, seed=300)
    v = random_dense_vector(96, seed=301)
    base = run_spmv(matrix, v, accel=None)
    hht = run_spmv(matrix, v, accel="hht")
    return base, hht


class TestBreakdown:
    def test_components_sum_to_total(self, runs):
        base, _ = runs
        b = energy_breakdown(base)
        assert b.total_uj == pytest.approx(sum(b.as_dict().values()))

    def test_baseline_has_no_hht_energy(self, runs):
        base, _ = runs
        b = energy_breakdown(base)
        assert b.hht_memory_uj == 0.0
        assert b.hht_datapath_uj == 0.0

    def test_hht_run_shifts_memory_energy(self, runs):
        base, hht = runs
        b = energy_breakdown(base)
        h = energy_breakdown(hht)
        assert h.hht_memory_uj > 0
        assert h.cpu_memory_uj < b.cpu_memory_uj

    def test_hht_saves_total_activity_energy(self, runs):
        base, hht = runs
        b = energy_breakdown(base, with_hht=False)
        h = energy_breakdown(hht)
        assert h.total_uj < b.total_uj

    def test_implied_power_matches_anchor(self, runs):
        """The calibration target: baseline SpMV mix ~ 223 uW at 50 MHz."""
        base, _ = runs
        b = energy_breakdown(base, with_hht=False)
        implied_uw = b.total_uj / (base.cycles / 50e6)
        assert implied_uw == pytest.approx(223, rel=0.12)

    def test_node_scaling(self, runs):
        base, _ = runs
        b16 = energy_breakdown(base, feature_nm=16)
        b28 = energy_breakdown(base, feature_nm=28)
        b7 = energy_breakdown(base, feature_nm=7)
        assert b28.total_uj > b16.total_uj > b7.total_uj

    def test_unknown_node_rejected(self, runs):
        base, _ = runs
        with pytest.raises(ValueError, match="feature size"):
            energy_breakdown(base, feature_nm=45)

    def test_leakage_scales_with_runtime(self, runs):
        base, hht = runs
        b = energy_breakdown(base, with_hht=False)
        h = energy_breakdown(hht)
        # The HHT run is shorter; even with extra leakage sources its
        # leakage energy stays comparable or lower.
        assert h.leakage_uj < 2 * b.leakage_uj


class TestTable:
    def test_table_contents(self, runs):
        base, hht = runs
        table = breakdown_table(base, hht)
        assert table.column("component")[-1] == "total"
        assert "saving" in table.notes[0]

    def test_spmspv_breakdown(self):
        matrix = random_csr((64, 64), 0.6, seed=302)
        sv = random_sparse_vector(64, 0.6, seed=303)
        base = run_spmspv(matrix, sv, mode="baseline")
        v2 = run_spmspv(matrix, sv, mode="hht_v2")
        table = breakdown_table(base, v2)
        totals = table.rows[-1]
        assert totals[2] < totals[1]  # variant-2 saves energy


class TestEnergyTable:
    def test_all_classes_priced(self):
        from repro.isa.instructions import INSTRUCTION_CLASS

        for klass in set(INSTRUCTION_CLASS.values()):
            assert klass in ENERGY_PER_OP_PJ, klass

    def test_energy_hierarchy_sensible(self):
        assert ENERGY_PER_OP_PJ["int_alu"] < ENERGY_PER_OP_PJ["fp_fma"]
        assert ENERGY_PER_OP_PJ["vector_load"] < ENERGY_PER_OP_PJ["vector_gather"]
