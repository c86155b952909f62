"""Cross-backend bit-identity: compiled == reference, everywhere.

The compiled backend's contract is that *every* observable of a run —
cycle counts, instruction counts, the flat stats registry, rendered
traces, error messages — is bit-identical to the reference
interpreter.  These tests run the same workload under both backends
and diff the observables, including on the configurations where the
memory system presents gathers element by element (banked RAM, L1D),
on multi-HHT systems where foreign bus masters interleave with the
CPU's port traffic, and on multi-core systems where the cores contend
for one port.  Every run must also conserve the port's request count.
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

from .conservation import assert_fifo_conserved, assert_port_conserved


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
    assert_port_conserved(result.stats)
    assert_fifo_conserved(result.stats)
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
                return run_spmv(matrix, v, accel=None, config=cfg).result
            if kernel == "spmv_hht":
                return run_spmv(matrix, v, accel="hht", config=cfg).result
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
            return run_spmv(matrix, v, config=cfg).result

        assert _observables(run("compiled")) == _observables(run("reference"))


#: Probe-parity kernels: label -> (kernel family, accel or SpMSpV mode).
PARITY_KERNELS = {
    "spmv_base": ("spmv", None),
    "spmv_hht": ("spmv", "hht"),
    "spmspv_hht_v1": ("spmspv", "hht_v1"),
    "spmspv_hht_v2": ("spmspv", "hht_v2"),
    "spmv_indexmac": ("spmv", "indexmac"),
}


class TestProbeParity:
    """Probes force deference to the reference path — and the deferred
    run must publish the same timing as the compiled fast path."""

    def _soc_prog(self, workload, backend, kernel="spmv_hht"):
        from repro.analysis.runners import _make_soc, _required_ram
        from repro.kernels import spmspv_kernel, spmv_kernel
        from repro.system.config import run_config

        matrix, v, sv = workload
        family, variant = PARITY_KERNELS[kernel]
        cfg = SystemConfig.paper_table1()
        cfg.cpu.backend = backend
        if family == "spmv":
            soc = _make_soc(run_config(cfg, accel=variant),
                            _required_ram(matrix))
            soc.load_csr(matrix)
            soc.load_dense_vector(v)
            text = spmv_kernel(accel=variant, vector=True)
        else:
            soc = _make_soc(cfg, _required_ram(matrix, extra_words=3 * sv.n))
            soc.load_csr(matrix)
            soc.load_sparse_vector(sv)
            text = spmspv_kernel(mode=variant, vector=True)
        soc.allocate_output(matrix.nrows)
        return soc, soc.assemble(text)

    @pytest.mark.parametrize("backend", ["reference", "compiled"])
    @pytest.mark.parametrize("kernel", sorted(PARITY_KERNELS))
    def test_per_element_path_equals_closed_form(self, kernel, backend,
                                                 workload):
        # A ContentionProbe subscribes to per-request port events, so
        # the probed run presents every gather element by element; the
        # bare run takes the closed-form bursts and gathers.
        nrows = workload[0].nrows
        soc, prog = self._soc_prog(workload, backend, kernel)
        bare = soc.run(prog)
        bare_y = soc.read_output("y", nrows)
        soc, prog = self._soc_prog(workload, backend, kernel)
        probed = soc.run(prog, probes=(ContentionProbe(),))
        assert _observables(probed) == _observables(bare)
        assert soc.read_output("y", nrows).tobytes() == bare_y.tobytes()

    def test_probed_compiled_equals_bare_compiled(self, workload):
        soc, prog = self._soc_prog(workload, "compiled")
        bare = soc.run(prog)
        soc, prog = self._soc_prog(workload, "compiled")
        probed = soc.run(prog, probes=(TimelineProbe(), ContentionProbe()))
        assert_port_conserved(bare.stats)
        assert_fifo_conserved(bare.stats)
        assert_port_conserved(probed.stats)
        assert_fifo_conserved(probed.stats)
        assert probed.cycles == bare.cycles
        assert probed.instructions == bare.instructions
        assert dict(probed.stats) == dict(bare.stats)
        assert set(probed.probe_payloads) == {"timeline", "contention"}

    def test_probe_payloads_match_reference(self, workload):
        soc, prog = self._soc_prog(workload, "reference")
        ref = soc.run(prog, probes=(TimelineProbe(), ContentionProbe()))
        soc, prog = self._soc_prog(workload, "compiled")
        com = soc.run(prog, probes=(TimelineProbe(), ContentionProbe()))
        assert _observables(com) == _observables(ref)
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
            text = render_trace(trace_program(soc, prog))
            assert_port_conserved(soc.stats())
            assert_fifo_conserved(soc.stats())
            return text

        assert trace("compiled") == trace("reference")
