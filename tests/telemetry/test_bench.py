"""Bench harness tests: schema, round-trip compare, regression gate.

Gated metrics are simulated and deterministic, so the gate is exact up
to float round-off (``GATE_RTOL``) rather than a percentage band.
"""

import copy
import json

import pytest

from repro.telemetry import (
    BENCH_SCHEMA,
    GATE_RTOL,
    collect_bench,
    compare_bench,
    load_bench,
    write_bench,
)

SIZE = 24  # small enough for the test suite, same shape as the real run


@pytest.fixture(scope="module")
def bench():
    # The sweeps behind this are memoised in-process, so a module scope
    # costs one collection for the whole file.
    return collect_bench(SIZE, interpreter_rounds=1)


class TestCollect:
    def test_document_shape(self, bench):
        assert bench["schema"] == BENCH_SCHEMA
        assert bench["suite"]["size"] == SIZE
        assert len(bench["suite"]["sparsities"]) == 9
        assert bench["host"]["wall_seconds"] > 0
        assert bench["host"]["interpreter_instructions"] > 0

    def test_headline_metrics_present_and_directed(self, bench):
        metrics = bench["metrics"]
        expected = {
            "fig4.spmv_speedup_geomean.1buf": "higher",
            "fig4.spmv_speedup_geomean.2buf": "higher",
            "fig5.spmspv_speedup_geomean.v1_1buf": "higher",
            "fig5.spmspv_speedup_geomean.v1_2buf": "higher",
            "fig5.spmspv_speedup_geomean.v2_1buf": "higher",
            "fig5.spmspv_speedup_geomean.v2_2buf": "higher",
            "fig6.spmv_cpu_wait_mean.1buf": "lower",
            "fig6.spmv_cpu_wait_mean.2buf": "lower",
            "fig7.spmspv_cpu_wait_mean.v1_1buf": "lower",
            "fig7.spmspv_cpu_wait_mean.v1_2buf": "lower",
            "fig7.spmspv_cpu_wait_mean.v2_1buf": "lower",
            "fig7.spmspv_cpu_wait_mean.v2_2buf": "lower",
            "compare.spmv_speedup_geomean.vector": "higher",
            "compare.spmv_speedup_geomean.hht": "higher",
            "compare.spmv_speedup_geomean.ssr": "higher",
            "compare.spmv_speedup_geomean.indexmac": "higher",
            "scaling.spmv_2core_speedup": "higher",
            "scaling.spmv_vm_overhead": "lower",
            "host.interpreter_instructions_per_sec": "info",
            "host.vector_instructions_per_sec": "info",
        }
        assert set(metrics) == set(expected)
        for key, direction in expected.items():
            assert metrics[key]["direction"] == direction
            assert metrics[key]["value"] >= 0

    def test_speedups_beat_baseline(self, bench):
        for key, entry in bench["metrics"].items():
            if key.startswith(("fig4", "fig5", "compare")):
                assert entry["value"] > 1.0, f"{key} shows no speedup"

    def test_round_trip(self, bench, tmp_path):
        path = write_bench(bench, tmp_path / "bench.json")
        assert load_bench(path) == json.loads(json.dumps(bench))


class TestCompare:
    def test_self_compare_is_clean(self, bench):
        failures, report = compare_bench(bench, bench)
        assert failures == []
        assert len(report) == len(bench["metrics"])
        assert all("[ok]" in line for line in report)

    def test_higher_metric_drop_fails(self, bench):
        worse = copy.deepcopy(bench)
        key = "fig4.spmv_speedup_geomean.2buf"
        worse["metrics"][key]["value"] *= 0.90
        failures, _ = compare_bench(worse, bench)
        assert len(failures) == 1
        assert key in failures[0]

    def test_lower_metric_rise_fails(self, bench):
        worse = copy.deepcopy(bench)
        key = "fig7.spmspv_cpu_wait_mean.v1_1buf"
        worse["metrics"][key]["value"] *= 1.10
        failures, _ = compare_bench(worse, bench)
        assert len(failures) == 1
        assert key in failures[0]

    def test_three_percent_drift_fails(self, bench):
        near = copy.deepcopy(bench)
        key = "fig4.spmv_speedup_geomean.2buf"
        near["metrics"][key]["value"] *= 0.97
        failures, _ = compare_bench(near, bench)
        assert len(failures) == 1
        assert key in failures[0]

    def test_round_off_passes(self, bench):
        near = copy.deepcopy(bench)
        near["metrics"]["fig4.spmv_speedup_geomean.2buf"]["value"] *= (
            1 - GATE_RTOL / 10)
        failures, _ = compare_bench(near, bench)
        assert failures == []

    def test_improvement_passes(self, bench):
        better = copy.deepcopy(bench)
        better["metrics"]["fig4.spmv_speedup_geomean.2buf"]["value"] *= 1.5
        better["metrics"]["fig7.spmspv_cpu_wait_mean.v1_1buf"]["value"] *= 0.5
        failures, _ = compare_bench(better, bench)
        assert failures == []

    def test_info_metric_never_gates(self, bench):
        drifted = copy.deepcopy(bench)
        drifted["metrics"]["host.interpreter_instructions_per_sec"][
            "value"] *= 0.1
        failures, _ = compare_bench(drifted, bench)
        assert failures == []

    def test_missing_gated_metric_fails(self, bench):
        pruned = copy.deepcopy(bench)
        del pruned["metrics"]["fig4.spmv_speedup_geomean.2buf"]
        failures, _ = compare_bench(pruned, bench)
        assert any("missing" in f for f in failures)

    def test_gated_metric_missing_from_baseline_fails(self, bench):
        # A gated metric the baseline never recorded was never gated:
        # the baseline must be regenerated with it.
        old = copy.deepcopy(bench)
        del old["metrics"]["scaling.spmv_2core_speedup"]
        del old["metrics"]["host.vector_instructions_per_sec"]
        failures, _ = compare_bench(bench, old)
        assert failures == [
            "scaling.spmv_2core_speedup: gated metric missing from baseline"
        ]

    def test_suite_size_mismatch_fails(self, bench):
        other = copy.deepcopy(bench)
        other["suite"]["size"] = SIZE * 2
        failures, report = compare_bench(other, bench)
        assert any("size mismatch" in f for f in failures)
        assert report == []  # metric diffs would be meaningless

    def test_backend_mismatch_reports_but_passes(self, bench):
        # Simulated metrics are backend-independent by contract, so a
        # cross-backend diff must pass — it IS the bit-identity gate.
        other = copy.deepcopy(bench)
        other["suite"]["backend"] = (
            "compiled" if bench["suite"]["backend"] == "reference"
            else "reference"
        )
        failures, report = compare_bench(bench, other)
        assert failures == []
        assert any("suite.backend" in line for line in report)

    def test_schema_mismatch_fails(self, bench):
        other = copy.deepcopy(bench)
        other["schema"] = "repro-bench/999"
        failures, _ = compare_bench(other, bench)
        assert any("schema mismatch" in f for f in failures)
