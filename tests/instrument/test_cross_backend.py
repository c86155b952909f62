"""Cross-backend bit-identity: compiled == reference, everywhere.

The compiled backend's contract is that *every* observable of a run —
cycle counts, instruction counts, the flat stats registry, rendered
traces, error messages — is bit-identical to the reference
interpreter.  These tests run the same workload under both backends
and diff the observables, including on the configurations where the
backend cannot inline memory (banked RAM, L1D), on multi-HHT systems
where foreign bus masters interleave with the CPU's port traffic, and
on multi-core systems where the cores contend for one port.
"""

import pytest

from repro.analysis.runners import run_spmspv, run_spmv
from repro.analysis.trace import render_trace, trace_program
from repro.instrument import ContentionProbe, TimelineProbe
from repro.memory import CacheConfig, MmuConfig
from repro.system import Soc, SystemConfig
from repro.workloads import (
    random_csr,
    random_dense_vector,
    random_sparse_vector,
)


@pytest.fixture(scope="module")
def workload():
    return (
        random_csr((24, 24), 0.4, seed=7),
        random_dense_vector(24, seed=8),
        random_sparse_vector(24, 0.5, seed=9),
    )


def _config(variant: str) -> SystemConfig:
    cfg = SystemConfig.paper_table1()
    if variant == "banked":
        cfg.banks = 4
    elif variant == "multi_hht":
        cfg.n_hhts = 2
    elif variant == "cached":
        cfg.cache = CacheConfig()
    return cfg


def _observables(result):
    return (result.cycles, result.instructions, dict(result.stats))


class TestRunsMatch:
    """Same workload, both backends, every registry counter equal."""

    @pytest.mark.parametrize("kernel", ["spmv_base", "spmv_hht", "spmspv_v2"])
    @pytest.mark.parametrize("variant", ["table1", "banked", "multi_hht",
                                         "cached"])
    def test_bit_identical(self, kernel, variant, workload, monkeypatch):
        matrix, v, sv = workload

        def run(backend):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            cfg = _config(variant)
            if kernel == "spmv_base":
                return run_spmv(matrix, v, hht=False, config=cfg).result
            if kernel == "spmv_hht":
                return run_spmv(matrix, v, hht=True, config=cfg).result
            return run_spmspv(matrix, sv, mode="hht_v2", config=cfg).result

        assert _observables(run("compiled")) == _observables(run("reference"))

    @pytest.mark.parametrize("kernel, n_cores, mmu", [
        ("spmv_vector", 2, False),
        ("spmv_vector", 4, False),
        ("spmv_scalar", 2, False),
        ("spmspv_base", 2, False),
        ("spmv_vector", 2, True),
    ], ids=["spmv_vector-2core", "spmv_vector-4core", "spmv_scalar-2core",
            "spmspv_base-2core", "spmv_vector-2core-mmu"])
    def test_multicore_bit_identical(self, kernel, n_cores, mmu, workload,
                                     monkeypatch):
        matrix, v, sv = workload
        vlmax = 1 if kernel == "spmv_scalar" else 8

        def run(backend):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            cfg = SystemConfig.paper_table1(vlmax=vlmax)
            cfg.n_cores = n_cores
            if mmu:
                cfg.mmu = MmuConfig()
            if kernel == "spmspv_base":
                return run_spmspv(matrix, sv, mode="baseline",
                                  config=cfg).result
            return run_spmv(matrix, v, vlmax=vlmax, config=cfg).result

        assert _observables(run("compiled")) == _observables(run("reference"))


class TestProbeParity:
    """Probes force deference to the reference path — and the deferred
    run must publish the same timing as the compiled fast path."""

    def _soc_prog(self, workload, backend):
        from repro.analysis.runners import _make_soc, _required_ram
        from repro.kernels import spmv_kernel

        matrix, v, _ = workload
        cfg = SystemConfig.paper_table1()
        cfg.cpu.backend = backend
        soc = _make_soc(vlmax=8, n_buffers=2, config=cfg,
                        ram_bytes=_required_ram(matrix))
        soc.load_csr(matrix)
        soc.load_dense_vector(v)
        soc.allocate_output(matrix.nrows)
        return soc, soc.assemble(spmv_kernel(accel="hht", vector=True))

    def test_probed_compiled_equals_bare_compiled(self, workload):
        soc, prog = self._soc_prog(workload, "compiled")
        bare = soc.run(prog)
        soc, prog = self._soc_prog(workload, "compiled")
        probed = soc.run(prog, probes=(TimelineProbe(), ContentionProbe()))
        assert probed.cycles == bare.cycles
        assert probed.instructions == bare.instructions
        assert dict(probed.stats) == dict(bare.stats)
        assert set(probed.probe_payloads) == {"timeline", "contention"}

    def test_probe_payloads_match_reference(self, workload):
        soc, prog = self._soc_prog(workload, "reference")
        ref = soc.run(prog, probes=(TimelineProbe(), ContentionProbe()))
        soc, prog = self._soc_prog(workload, "compiled")
        com = soc.run(prog, probes=(TimelineProbe(), ContentionProbe()))
        assert com.probe_payloads == ref.probe_payloads


class TestTracesMatch:
    """trace_program renders the same bytes under both backends."""

    def test_rendered_trace_identical(self, workload, monkeypatch):
        matrix, v, _ = workload

        def trace(backend):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            cfg = SystemConfig.paper_table1()
            cfg.ram_bytes = 1 << 16
            soc = Soc(cfg)
            prog = soc.assemble(
                "li a0, 5\nli a1, 7\nadd a2, a0, a1\n"
                "lw t0, 0x100(zero)\nhalt"
            )
            return render_trace(trace_program(soc, prog))

        assert trace("compiled") == trace("reference")
