"""Chrome-trace exporter tests: schema, monotonicity, golden sample."""

import json
from pathlib import Path

import pytest

from repro.kernels import spmv_kernel
from repro.telemetry import (
    CHROME_TRACE_SCHEMA,
    ChromeTraceProbe,
    write_chrome_trace,
)
from repro.workloads import random_csr, random_dense_vector

GOLDEN = Path(__file__).parent / "data" / "chrome_trace_spmv8.json"
GOLDEN_MULTICORE = (Path(__file__).parent / "data"
                    / "chrome_trace_multicore8.json")


def hht_workload(soc, size=8, seed=1):
    matrix = random_csr((size, size), 0.5, seed=seed)
    soc.load_csr(matrix)
    soc.load_dense_vector(random_dense_vector(size, seed=seed + 1))
    soc.allocate_output(size)
    return soc.assemble(spmv_kernel(accel="hht", vector=True), name="spmv_hht")


def multicore_workload(size=8, seed=3):
    """A 2-core + MMU SpMV pair: deterministic regardless of backend
    (an attached probe always runs the reference interleave)."""
    from repro.kernels import partition_rows, spmv_multicore_kernel
    from repro.memory import MmuConfig
    from repro.system import Soc, SystemConfig

    cfg = SystemConfig.paper_table1()
    cfg.ram_bytes = 1 << 16
    cfg.n_cores = 2
    cfg.mmu = MmuConfig()
    soc = Soc(cfg)
    matrix = random_csr((size, size), 0.5, seed=seed)
    soc.load_csr(matrix)
    soc.load_dense_vector(random_dense_vector(size, seed=seed + 1))
    soc.allocate_output(size)
    for name, value in partition_rows(size, 2).items():
        soc.define_symbol(name, value)
    prog = soc.assemble(spmv_multicore_kernel(2, vector=True),
                        name="spmv_mc2")
    return soc, prog


def traced_run(soc_factory, **probe_kwargs):
    soc = soc_factory()
    prog = hht_workload(soc)
    probe = ChromeTraceProbe(**probe_kwargs)
    result = soc.run(prog, probes=(probe,))
    return probe, result


class TestDocumentShape:
    def test_top_level_schema(self, soc_factory):
        probe, result = traced_run(soc_factory)
        payload = probe.payload()
        assert set(payload) == {"traceEvents", "displayTimeUnit",
                                "otherData"}
        assert isinstance(payload["traceEvents"], list)
        assert payload["otherData"]["schema"] == CHROME_TRACE_SCHEMA
        assert payload["otherData"]["program"] == "spmv_hht"
        assert payload["otherData"]["instructions"] == result.instructions
        assert payload["otherData"]["dropped_instructions"] == 0

    def test_metadata_names_every_track(self, soc_factory):
        probe, _ = traced_run(soc_factory)
        events = probe.payload()["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["name"] == "process_name"
        named_tids = {e["tid"] for e in meta if e["name"] == "thread_name"}
        used_tids = {e["tid"] for e in events
                     if e["ph"] != "M" and "tid" in e}
        assert used_tids <= named_tids
        # The paper's four views all show up on an HHT run.
        track_names = {e["args"]["name"] for e in meta
                       if e["name"] == "thread_name"}
        assert "cpu" in track_names
        assert "hht.backend" in track_names
        assert "hht.fifo" in track_names
        assert any(t.startswith("ram.") for t in track_names)

    def test_event_phases_are_valid(self, soc_factory):
        probe, _ = traced_run(soc_factory)
        for event in probe.payload()["traceEvents"]:
            assert event["ph"] in {"M", "X", "i", "C"}
            if event["ph"] == "X":
                assert event["dur"] >= 0
            if event["ph"] != "M":
                assert event["ts"] >= 0


class TestMonotonicity:
    def test_ts_monotonic_globally_and_per_track(self, soc_factory):
        probe, _ = traced_run(soc_factory)
        events = [e for e in probe.payload()["traceEvents"]
                  if e["ph"] != "M"]
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)  # global sort implies every track too

    def test_cpu_slices_cover_instruction_count(self, soc_factory):
        probe, result = traced_run(soc_factory)
        cpu = [e for e in probe.payload()["traceEvents"]
               if e.get("cat") == "cpu"]
        assert len(cpu) == result.instructions
        # Instruction slices are back-to-back: each starts where the
        # previous one ended.
        for prev, cur in zip(cpu, cpu[1:]):
            assert cur["ts"] == prev["ts"] + prev["dur"]


class TestLimit:
    def test_limit_caps_instruction_slices_only(self, soc_factory):
        probe, result = traced_run(soc_factory, limit=10)
        payload = probe.payload()
        cpu = [e for e in payload["traceEvents"] if e.get("cat") == "cpu"]
        assert len(cpu) == 10
        dropped = payload["otherData"]["dropped_instructions"]
        assert dropped == result.instructions - 10
        # Memory-side events survive the cap.
        assert any(e.get("cat") == "hht" for e in payload["traceEvents"])
        assert any(e.get("cat") == "port" for e in payload["traceEvents"])

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError, match="limit"):
            ChromeTraceProbe(limit=0)


class TestGolden:
    """The exporter's bytes are pinned: any format drift is a diff."""

    def test_matches_pinned_sample(self, soc_factory, tmp_path):
        probe, _ = traced_run(soc_factory)
        out = write_chrome_trace(probe.payload(), tmp_path / "trace.json")
        assert out.read_text() == GOLDEN.read_text(), (
            "chrome trace output changed; if intentional, regenerate "
            "tests/telemetry/data/chrome_trace_spmv8.json "
            "(see that file's provenance in this test module)"
        )

    def test_pinned_sample_is_valid_trace_json(self):
        payload = json.loads(GOLDEN.read_text())
        assert isinstance(payload["traceEvents"], list)
        assert payload["traceEvents"], "golden trace has no events"
        assert payload["otherData"]["schema"] == CHROME_TRACE_SCHEMA


class TestMultiCore:
    """Per-core instruction tracks plus a TLB-walk track when MMU on."""

    def _payload(self):
        soc, prog = multicore_workload()
        probe = ChromeTraceProbe()
        soc.run(prog, probes=(probe,))
        return probe.payload()

    def test_one_named_track_per_core(self):
        payload = self._payload()
        tracks = {e["args"]["name"] for e in payload["traceEvents"]
                  if e.get("name") == "thread_name"}
        assert {"cpu0", "cpu1"} <= tracks
        assert "cpu" not in tracks  # the single-core track is replaced

    def test_instruction_slices_split_by_core(self):
        payload = self._payload()
        meta = {e["args"]["name"]: e["tid"]
                for e in payload["traceEvents"]
                if e.get("name") == "thread_name"}
        per_core = {
            core: [e for e in payload["traceEvents"]
                   if e.get("cat") == "cpu" and e["tid"] == meta[core]]
            for core in ("cpu0", "cpu1")
        }
        assert per_core["cpu0"] and per_core["cpu1"]
        # Within one core's track, slices are back-to-back.
        for slices in per_core.values():
            for prev, cur in zip(slices, slices[1:]):
                assert cur["ts"] == prev["ts"] + prev["dur"]

    def test_tlb_walk_track_present_with_mmu(self):
        payload = self._payload()
        tracks = {e["args"]["name"] for e in payload["traceEvents"]
                  if e.get("name") == "thread_name"}
        assert {"cpu0.tlb", "cpu1.tlb"} <= tracks
        walks = [e for e in payload["traceEvents"]
                 if e.get("cat") == "tlb"]
        assert walks
        for walk in walks:
            assert walk["name"] == "ptw"
            assert walk["dur"] > 0

    def test_matches_pinned_multicore_sample(self, tmp_path):
        payload = self._payload()
        out = write_chrome_trace(payload, tmp_path / "trace.json")
        assert out.read_text() == GOLDEN_MULTICORE.read_text(), (
            "multi-core chrome trace output changed; if intentional, "
            "regenerate tests/telemetry/data/chrome_trace_multicore8.json "
            "from multicore_workload() in this module"
        )
