"""Profiler tests: per-line attribution and metadata-overhead accounting."""

import numpy as np
import pytest

from repro.analysis import (
    metadata_overhead_table,
    profile_spmspv,
    profile_spmv,
    run_spmspv,
    run_spmv,
)
from repro.workloads import (
    random_csr,
    random_dense_vector,
    random_sparse_vector,
)


@pytest.fixture(scope="module")
def baseline_profile():
    matrix = random_csr((48, 48), 0.5, seed=90)
    v = random_dense_vector(48, seed=91)
    return profile_spmv(matrix, v, accel=None)


class TestLineAttribution:
    def test_line_cycles_sum_to_total(self, baseline_profile):
        assert sum(l.cycles for l in baseline_profile.lines) == (
            baseline_profile.total_cycles
        )

    def test_counts_recorded(self, baseline_profile):
        assert all(l.count > 0 for l in baseline_profile.lines)

    def test_gather_is_hottest(self, baseline_profile):
        """The indexed gather dominates the baseline (Section 2)."""
        hottest = baseline_profile.hottest(1)[0]
        assert "vluxei32" in hottest.text

    def test_fractions_sum_to_one(self, baseline_profile):
        assert sum(l.fraction for l in baseline_profile.lines) == (
            pytest.approx(1.0, abs=1e-6)
        )

    def test_table_renders(self, baseline_profile):
        text = baseline_profile.table(5).render()
        assert "vluxei32" in text
        assert "metadata" in text


class TestMetadataAttribution:
    def test_baseline_metadata_share_substantial(self, baseline_profile):
        assert 0.3 < baseline_profile.metadata_fraction < 0.8

    def test_hht_kernel_has_no_metadata_instructions(self):
        matrix = random_csr((32, 32), 0.5, seed=92)
        v = random_dense_vector(32, seed=93)
        prof = profile_spmv(matrix, v, accel="hht")
        assert prof.metadata_cycles == 0

    def test_spmspv_metadata_share_higher(self):
        """Two indirections per non-zero: more overhead than SpMV."""
        matrix = random_csr((48, 48), 0.5, seed=94)
        v = random_dense_vector(48, seed=95)
        sv = random_sparse_vector(48, 0.5, seed=96)
        spmv = profile_spmv(matrix, v, accel=None)
        spmspv = profile_spmspv(matrix, sv, mode="baseline")
        assert spmspv.metadata_fraction > spmv.metadata_fraction

    def test_scalar_kernel_also_tagged(self):
        matrix = random_csr((24, 24), 0.5, seed=97)
        v = random_dense_vector(24, seed=98)
        prof = profile_spmv(matrix, v, accel=None, vlmax=1)
        assert prof.metadata_fraction > 0.2

    def test_overhead_table(self):
        table = metadata_overhead_table(size=48, sparsities=(0.3, 0.7))
        assert len(table.rows) == 2
        for row in table.rows:
            assert 0.0 < row[1] < 1.0
            assert row[2] > row[1]  # SpMSpV overhead exceeds SpMV's


class TestProfilingMachinery:
    def test_profiling_does_not_change_timing(self):
        matrix = random_csr((32, 32), 0.5, seed=99)
        v = random_dense_vector(32, seed=100)
        plain = run_spmv(matrix, v, accel=None)
        profiled = profile_spmv(matrix, v, accel=None)
        assert profiled.total_cycles == plain.cycles

    @pytest.mark.parametrize("mode", ["ssr", "indexmac"])
    def test_profiles_the_rival_front_ends(self, mode):
        """The profiler runs the same system as the runner, rivals too."""
        matrix = random_csr((24, 24), 0.5, seed=105)
        sv = random_sparse_vector(24, 0.5, seed=106)
        prof = profile_spmspv(matrix, sv, mode=mode)
        assert prof.total_cycles == run_spmspv(matrix, sv, mode=mode).cycles
        assert prof.program.name == f"spmspv_{mode}"
        assert sum(l.cycles for l in prof.lines) == prof.total_cycles

    def test_profile_flag_restored(self):
        matrix = random_csr((16, 16), 0.5, seed=101)
        v = random_dense_vector(16, seed=102)
        prof = profile_spmv(matrix, v, accel=None)
        assert prof.result.cpu_stats.pc_cycles  # populated
        # A subsequent unprofiled run must not accumulate pc stats.
        plain = run_spmv(matrix, v, accel=None)
        assert not plain.cpu_stats.pc_cycles
