"""Shipped-probe tests: trace, pc-profile, timeline, contention."""

import pytest

from repro.instrument import (
    ContentionProbe,
    PcProfileProbe,
    TimelineProbe,
    TraceProbe,
)
from repro.kernels import spmv_hht_vector
from repro.workloads import random_csr, random_dense_vector


def hht_workload(soc, size=8, seed=1):
    matrix = random_csr((size, size), 0.5, seed=seed)
    soc.load_csr(matrix)
    soc.load_dense_vector(random_dense_vector(size, seed=seed + 1))
    soc.allocate_output(size)
    return soc.assemble(spmv_hht_vector())


class TestTraceProbe:
    def test_matches_trace_program(self, soc_factory):
        from repro.analysis.trace import trace_program

        soc = soc_factory()
        prog = hht_workload(soc)
        legacy = trace_program(soc, prog, limit=40)

        soc = soc_factory()
        prog = hht_workload(soc)
        probe = TraceProbe(limit=40)
        soc.run(prog, probes=(probe,))
        assert probe.entries == legacy

    def test_only_filter(self, soc):
        prog = soc.assemble("li a0, 3\nloop: addi a0, a0, -1\n"
                            "bnez a0, loop\nhalt")
        probe = TraceProbe(only={"bne"})
        soc.run(prog, probes=(probe,))
        assert [e.op for e in probe.entries] == ["bne"] * 3

    def test_trace_probe_payload_stays_off_result(self, soc):
        prog = soc.assemble("halt")
        result = soc.run(prog, probes=(TraceProbe(),))
        assert result.probe_payloads == {}


class TestPcProfileProbe:
    def test_cycles_sum_to_total(self, soc):
        prog = soc.assemble("li a0, 1\nmul a1, a0, a0\nhalt")
        result = soc.run(prog, probes=(PcProfileProbe(),))
        assert sum(result.cpu_stats.pc_cycles.values()) == result.cycles


class TestTimelineProbe:
    def test_fills_match_engine_counter(self, soc_factory):
        soc = soc_factory()
        prog = hht_workload(soc)
        probe = TimelineProbe()
        result = soc.run(prog, probes=(probe,))
        assert len(probe.fills) == result.stats["soc.hht.buffers_filled"]
        # Engine time advances monotonically across fills.
        times = [f["t"] for f in probe.fills]
        assert times == sorted(times)
        # Occupancy never exceeds the configured buffer count.
        n = soc.config.hht.n_buffers
        for fill in probe.fills:
            for s in fill["streams"].values():
                assert 0 <= s["occupied_slots"] <= n

    def test_fifo_reads_match_counters(self, soc_factory):
        soc = soc_factory()
        prog = hht_workload(soc)
        probe = TimelineProbe()
        result = soc.run(prog, probes=(probe,))
        assert len(probe.fifo_reads) == result.stats["soc.hht.fifo_reads"]
        assert sum(r["wait"] for r in probe.fifo_reads) == (
            result.stats["soc.hht.cpu_wait_cycles"]
        )
        assert sum(r["count"] for r in probe.fifo_reads) == (
            result.stats["soc.hht.elements_supplied"]
        )

    def test_payload_shape(self, soc_factory):
        soc = soc_factory()
        prog = hht_workload(soc)
        result = soc.run(prog, probes=(TimelineProbe(),))
        payload = result.probe_payloads["timeline"]
        assert set(payload) == {"fills", "fifo_reads"}


class TestContentionProbe:
    @pytest.mark.parametrize("banks", [1, 4])
    def test_totals_match_port_counters(self, banks, soc_factory):
        from repro.system import SystemConfig

        cfg = SystemConfig.paper_table1()
        cfg.ram_bytes = 1 << 16
        cfg.banks = banks
        from repro.system import Soc

        soc = Soc(cfg)
        prog = hht_workload(soc)
        probe = ContentionProbe(bin_cycles=32)
        result = soc.run(prog, probes=(probe,))
        assert sum(probe.requests.values()) == result.stats["soc.ram.requests"]
        assert sum(probe.queue_cycles.values()) == (
            result.stats["soc.ram.queue_cycles"]
        )
        for requester, n in probe.requests.items():
            assert n == result.stats[f"soc.ram.requester.{requester}"]
        # Bin totals agree with the per-requester totals.
        for requester, bins in probe.bins.items():
            assert sum(bins.values()) == probe.requests[requester]

    def test_bins_cover_run(self, soc_factory):
        soc = soc_factory()
        prog = hht_workload(soc)
        probe = ContentionProbe(bin_cycles=16)
        result = soc.run(prog, probes=(probe,))
        last_bin = max(b for bins in probe.bins.values() for b in bins)
        assert last_bin <= result.cycles // 16 + 1

    def test_rejects_bad_bin(self):
        with pytest.raises(ValueError, match="bin_cycles"):
            ContentionProbe(bin_cycles=0)

    def test_payload_bins_are_dense(self, soc_factory):
        """The payload fills in empty bins between the first and last
        active one, so rendered histograms have uniform spacing."""
        soc = soc_factory()
        prog = hht_workload(soc, size=16)
        probe = ContentionProbe(bin_cycles=8)
        result = soc.run(prog, probes=(probe,))
        payload = result.probe_payloads["contention"]
        lo = min(min(b) for b in probe.bins.values())
        hi = max(max(b) for b in probe.bins.values())
        for requester, bins in payload["bins"].items():
            assert sorted(bins) == list(range(lo, hi + 1))
            # Densifying must not invent requests.
            assert sum(bins.values()) == payload["requests"][requester]
        # At this bin width the CPU's setup-heavy prologue leaves gaps
        # in the HHT's activity, so the fix is actually exercised.
        assert any(
            0 in (v for v in bins.values())
            for bins in payload["bins"].values()
        )

    def test_live_bins_stay_sparse(self, soc_factory):
        soc = soc_factory()
        prog = hht_workload(soc, size=16)
        probe = ContentionProbe(bin_cycles=8)
        soc.run(prog, probes=(probe,))
        for bins in probe.bins.values():
            assert all(v > 0 for v in bins.values())


def multi_hht_soc(n_hhts=1, banks=1):
    from repro.system import Soc, SystemConfig

    cfg = SystemConfig.paper_table1()
    cfg.ram_bytes = 1 << 16
    cfg.n_hhts = n_hhts
    cfg.banks = banks
    return Soc(cfg)


class TestProbesUnderScaledConfigs:
    """Timeline/Contention payloads under n_hhts>1 and banks>1."""

    def test_multi_hht_fill_and_fifo_names(self):
        soc = multi_hht_soc(n_hhts=2)
        prog = hht_workload(soc)
        probe = TimelineProbe()
        result = soc.run(prog, probes=(probe,))
        # The default MMR symbols drive hht0; its name must be the
        # indexed one (registry key soc.hht0.*), never the bare "hht".
        assert {f["hht"] for f in probe.fills} == {"hht0"}
        assert {r["hht"] for r in probe.fifo_reads} == {"hht0"}
        assert len(probe.fills) == result.stats["soc.hht0.buffers_filled"]
        assert result.stats["soc.hht1.buffers_filled"] == 0

    def test_multi_hht_requester_names_stable(self):
        soc = multi_hht_soc(n_hhts=2)
        prog = hht_workload(soc)
        probe = ContentionProbe(bin_cycles=32)
        result = soc.run(prog, probes=(probe,))
        assert set(probe.requests) <= {"cpu", "hht0", "hht1"}
        assert "hht0" in probe.requests
        for requester, n in probe.requests.items():
            assert n == result.stats[f"soc.ram.requester.{requester}"]

    @pytest.mark.parametrize("banks", [1, 4])
    def test_banked_payload_invariants(self, banks):
        soc = multi_hht_soc(banks=banks)
        prog = hht_workload(soc)
        probes = (TimelineProbe(), ContentionProbe(bin_cycles=16))
        result = soc.run(prog, probes=probes)
        timeline = result.probe_payloads["timeline"]
        contention = result.probe_payloads["contention"]
        assert len(timeline["fills"]) == (
            result.stats["soc.hht.buffers_filled"]
        )
        for requester, bins in contention["bins"].items():
            assert sum(bins.values()) == contention["requests"][requester]
            assert sorted(bins) == list(bins)  # dense ⇒ already ordered


class TestSinkLifecycle:
    def test_sinks_detached_after_run(self, soc_factory):
        soc = soc_factory()
        prog = hht_workload(soc)
        soc.run(prog, probes=(TimelineProbe(), ContentionProbe()))
        assert soc.port.probe_sink is None
        assert soc.hht.probe_sink is None
        assert soc.hht.engine is None or soc.hht.engine.probe_sink is None

    def test_no_subscription_means_no_sink(self, soc_factory):
        """A probe that only watches instructions leaves every
        component's probe_sink untouched (the emitters stay on their
        one-test fast path)."""
        from repro.instrument import SimSession

        soc = soc_factory()
        prog = hht_workload(soc)
        soc.reset()
        session = SimSession(
            soc.cpu, prog, probes=(PcProfileProbe(),), system=soc
        )
        session._start_probes()
        assert soc.port.probe_sink is None
        assert soc.hht.probe_sink is None
        session.run()
