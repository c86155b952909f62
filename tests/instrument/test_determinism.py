"""Determinism gates for the SimSession refactor.

The golden values below were captured from the pre-refactor execution
path (duplicated profile/non-profile loops in ``Cpu.run``, the
``step_one`` tracer).  With no probes attached, the unified loop must
reproduce them bit for bit: cycles, instruction counts, the flat stats
registry, and ``trace_program``'s rendered text.  A fully-probed run
must change none of the timing either — probes observe, never perturb.
"""

import hashlib
import json

import pytest

from repro.analysis.runners import run_spmspv, run_spmv, run_spmv_programmable
from repro.analysis.trace import render_trace, trace_program
from repro.instrument import ContentionProbe, PcProfileProbe, TimelineProbe
from repro.system import Soc, SystemConfig
from repro.workloads import (
    random_csr,
    random_dense_vector,
    random_sparse_vector,
)

from .conservation import assert_fifo_conserved, assert_port_conserved

# Captured on the 24x24 / 40%-sparse seed-7 workload below: the first
# three from the pre-refactor interpreter (commit add1966), the HHT
# variant-2 and IndexMAC runs from commit 2856f2d, whose reference path
# still issued every gather element as its own port request, and the
# single-buffer and CSR-firmware runs from commit c86d775, whose HHT
# streams staged and popped every element on its own.
GOLDEN_RUNS = {
    "spmv_base": {
        "cycles": 3583,
        "instructions": 977,
        "stats_sha": "26af86c2bb1495a61bfe8c8b592acb28d7f3d41e7200c0fa5cb8d35ebe84dd81",
    },
    "spmv_hht": {
        "cycles": 2318,
        "instructions": 844,
        "stats_sha": "2d27210ab26d8cfff446316413a513fbae37b62a55a73e878f41b507504db3cd",
    },
    "spmspv_hht_v1": {
        "cycles": 1931,
        "instructions": 530,
        "stats_sha": "c3620f24efb39a6dc7364173ef8bfc62831716a6e847cb402ff58cb8a1e42432",
    },
    "spmspv_hht_v2": {
        "cycles": 2335,
        "instructions": 853,
        "stats_sha": "b88bfc11e498e586a2ea6c3468cb95c48736f2c11be76ec0b343282b3900bfe7",
    },
    "spmv_indexmac": {
        "cycles": 2838,
        "instructions": 871,
        "stats_sha": "a144a3a823786d818cd95a02f9a99176e1cf810a110808f6285c871a3eccc33c",
    },
    "spmv_hht_n1": {
        "cycles": 2310,
        "instructions": 844,
        "stats_sha": "9982e17f0ca6ea3ddfe6712d731ab6b51710308ea4576972c5e250765e541cf7",
    },
    # Five rows match more than BLEN=8 pairs: those fills span two
    # buffer slots, and some FIFO loads take part of a fill.
    "spmspv_hht_v1_n1": {
        "cycles": 2229,
        "instructions": 530,
        "stats_sha": "bac93c3068af8f86ef282af4b44e3203a5bb06dedd7d675d4a42586cb83f68ea",
    },
    "spmv_programmable_csr": {
        "cycles": 7310,
        "instructions": 665,
        "stats_sha": "1f32d57a0960026fa91e9258b64dae7a5e55cf9108dff78599e5ecd2e1810ad7",
    },
}

GOLDEN_SCALAR_TRACE = """\
   seq  pc     instruction                      [cycles] -> value
     1  @0     li a0, 5                         [0..1] -> 0x5
     2  @1     li a1, 7                         [1..2] -> 0x7
     3  @2     add a2, a0, a1                   [2..3] -> 0xc
     4  @3     lw t0, 0x100(zero)               [3..6] -> 0x0
     5  @4     halt                             [6..7]"""

GOLDEN_HHT_TRACE = """\
   seq  pc     instruction                      [cycles] -> value
     1  @0     la t0, hht_m_num_rows            [0..1] -> 0x40000000
     2  @1     li t1, m_num_rows                [1..2] -> 0x8
     3  @2     sw t1, 0(t0)                     [2..3]
     4  @3     la t0, hht_m_num_cols            [3..4] -> 0x40000034
     5  @4     li t1, m_num_cols                [4..5] -> 0x8
     6  @5     sw t1, 0(t0)                     [5..6]
     7  @6     la t0, hht_m_rows_base           [6..7] -> 0x40000004
     8  @7     li t1, m_rows                    [7..8] -> 0x100
     9  @8     sw t1, 0(t0)                     [8..9]
    10  @9     la t0, hht_m_cols_base           [9..10] -> 0x40000008
    11  @10    li t1, m_cols                    [10..11] -> 0x124
    12  @11    sw t1, 0(t0)                     [11..12]"""


def _stats_sha(stats: dict) -> str:
    blob = json.dumps(stats, sort_keys=True, default=int)
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture(scope="module")
def workload():
    return (
        random_csr((24, 24), 0.4, seed=7),
        random_dense_vector(24, seed=8),
        random_sparse_vector(24, 0.5, seed=9),
    )


def _run(label, workload):
    matrix, v, sv = workload
    if label == "spmv_base":
        return run_spmv(matrix, v, accel=None).result
    if label == "spmv_hht":
        return run_spmv(matrix, v, accel="hht").result
    if label == "spmv_hht_n1":
        return run_spmv(matrix, v, accel="hht", n_buffers=1).result
    if label == "spmv_indexmac":
        return run_spmv(matrix, v, accel="indexmac").result
    if label == "spmv_programmable_csr":
        return run_spmv_programmable(matrix, v, format_name="csr").result
    if label == "spmspv_hht_v1_n1":
        return run_spmspv(matrix, sv, mode="hht_v1", n_buffers=1).result
    return run_spmspv(matrix, sv, mode=label.removeprefix("spmspv_")).result


class TestGoldenRuns:
    """Bit-identical to the pre-refactor interpreter, per workload.

    Parametrized over both execution backends: the compiled backend
    must reproduce the same golden cycles, instruction counts and
    stats-registry hashes as the reference interpreter.
    """

    @pytest.mark.parametrize("backend", ["reference", "compiled"])
    @pytest.mark.parametrize("label", sorted(GOLDEN_RUNS))
    def test_matches_pre_refactor(self, label, backend, workload,
                                  monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        result = _run(label, workload)
        assert_port_conserved(result.stats)
        assert_fifo_conserved(result.stats)
        golden = GOLDEN_RUNS[label]
        assert result.cycles == golden["cycles"]
        assert result.instructions == golden["instructions"]
        assert _stats_sha(result.stats) == golden["stats_sha"]


class TestProbesDoNotPerturb:
    """A fully-probed run publishes the same registry as a bare run."""

    def test_full_probe_set_is_invisible(self, workload):
        matrix, v, _ = workload
        from repro.analysis.runners import _make_soc, _required_ram
        from repro.kernels import spmv_kernel

        def build():
            soc = _make_soc(SystemConfig.paper_table1(),
                            _required_ram(matrix))
            soc.load_csr(matrix)
            soc.load_dense_vector(v)
            soc.allocate_output(matrix.nrows)
            return soc, soc.assemble(spmv_kernel(accel="hht", vector=True))

        soc, prog = build()
        bare = soc.run(prog)
        soc, prog = build()
        probed = soc.run(prog, probes=(
            TimelineProbe(), ContentionProbe(), PcProfileProbe(),
        ))
        assert_port_conserved(bare.stats)
        assert_fifo_conserved(bare.stats)
        assert_port_conserved(probed.stats)
        assert_fifo_conserved(probed.stats)
        assert probed.cycles == bare.cycles
        assert probed.instructions == bare.instructions
        # The profiling probe adds pc_* keys; everything else is equal.
        probed_stats = {
            k: val for k, val in probed.stats.items() if ".pc_" not in k
        }
        assert probed_stats == bare.stats
        assert set(probed.probe_payloads) == {"timeline", "contention"}
        assert bare.probe_payloads == {}


@pytest.mark.parametrize("backend", ["reference", "compiled"])
class TestGoldenTraces:
    """trace_program's rendered output is byte-identical to before.

    Under the compiled backend the trace probe forces per-instruction
    deference to the reference path, so the rendered text must be the
    same bytes either way.
    """

    def _soc(self):
        cfg = SystemConfig.paper_table1()
        cfg.ram_bytes = 1 << 16
        return Soc(cfg)

    def test_scalar_trace(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        soc = self._soc()
        prog = soc.assemble(
            "li a0, 5\nli a1, 7\nadd a2, a0, a1\nlw t0, 0x100(zero)\nhalt"
        )
        assert render_trace(trace_program(soc, prog)) == GOLDEN_SCALAR_TRACE
        assert_port_conserved(soc.stats())
        assert_fifo_conserved(soc.stats())

    def test_hht_kernel_trace(self, backend, monkeypatch):
        from repro.kernels import spmv_hht_vector

        monkeypatch.setenv("REPRO_BACKEND", backend)
        soc = self._soc()
        matrix = random_csr((8, 8), 0.5, seed=1)
        soc.load_csr(matrix)
        soc.load_dense_vector(random_dense_vector(8, seed=2))
        soc.allocate_output(8)
        prog = soc.assemble(spmv_hht_vector())
        text = render_trace(trace_program(soc, prog, limit=12))
        assert text == GOLDEN_HHT_TRACE
        assert_port_conserved(soc.stats())
        assert_fifo_conserved(soc.stats())


class TestSummaryShape:
    """RunSummary's serialised shape is unchanged; SCHEMA_VERSION is 6
    because the flattened config gained ``n_cores`` and the ``mmu.*``
    section (core count and address-translation mode are part of every
    content key)."""

    def test_schema_version(self):
        from repro.exec.cache import SCHEMA_VERSION

        assert SCHEMA_VERSION == 6

    def test_backend_in_cache_key(self, workload):
        from repro.exec import RunSpec
        from repro.exec.cache import cache_key
        from repro.exec.spec import freeze_config
        from repro.system import SystemConfig

        def spec_for(backend):
            cfg = SystemConfig.paper_table1()
            cfg.cpu.backend = backend
            return RunSpec(
                kernel="spmv", variant="hht", rows=24, cols=24,
                sparsity=0.4, matrix_seed=7, vector_seed=8,
                config=freeze_config(cfg),
            )

        assert (cache_key(spec_for("reference"))
                != cache_key(spec_for("compiled")))

    def test_summary_keys_unchanged(self, workload):
        from repro.exec import RunSpec, execute

        matrix, v, sv = workload
        spec = RunSpec(
            kernel="spmv", variant="hht", rows=24, cols=24, sparsity=0.4,
            matrix_seed=7, vector_seed=8,
        )
        summary = execute(spec)
        assert_port_conserved(summary.stats)
        assert_fifo_conserved(summary.stats)
        assert set(summary.to_json_dict()) == {
            "cycles", "instructions", "stats", "frequency_hz", "y",
        }
        assert summary.cycles == GOLDEN_RUNS["spmv_hht"]["cycles"]
