"""Multi-core SoC: construction, correctness, contention, bit-identity.

The tentpole contract: ``n_cores`` is a config point.  ``n_cores=1``
builds literally the same tree as before the refactor (covered by the
pinned goldens in tests/instrument/test_determinism.py staying green);
``n_cores>1`` builds indexed ``soc.cpu0..cpuN-1`` subtrees sharing one
RAM port, runs the row-partitioned kernels correctly on both backends,
and shows shared-port contention in the registry and probes.
"""

import numpy as np
import pytest

from repro.analysis.runners import run_spmspv, run_spmv, run_spmv_programmable
from repro.exec import (
    corpus_spec,
    dnn_spec,
    programmable_spec,
    spmspv_spec,
    spmv_spec,
)
from repro.instrument import ContentionProbe
from repro.kernels import partition_rows, spmv_multicore_kernel
from repro.system import Soc, SystemConfig
from repro.workloads import (
    CORPUS_NAMES,
    FIG9_ORDER,
    random_csr,
    random_dense_vector,
    random_sparse_vector,
)


def multicore_config(n_cores, **overrides):
    cfg = SystemConfig.paper_table1(**overrides)
    cfg.n_cores = n_cores
    return cfg


class TestPartitionRows:
    def test_even_split(self):
        syms = partition_rows(8, 2)
        assert syms == {"core0_row_start": 0, "core0_row_end": 4,
                        "core1_row_start": 4, "core1_row_end": 8}

    def test_remainder_goes_to_early_cores(self):
        syms = partition_rows(7, 3)
        ranges = [(syms[f"core{k}_row_start"], syms[f"core{k}_row_end"])
                  for k in range(3)]
        assert ranges == [(0, 3), (3, 6), (6, 7)]

    def test_more_cores_than_rows_leaves_empty_tails(self):
        syms = partition_rows(2, 4)
        assert syms["core3_row_start"] == syms["core3_row_end"] == 2

    def test_blocks_cover_all_rows_exactly_once(self):
        for rows, cores in ((1, 2), (13, 4), (128, 3)):
            syms = partition_rows(rows, cores)
            covered = []
            for k in range(cores):
                covered.extend(range(syms[f"core{k}_row_start"],
                                     syms[f"core{k}_row_end"]))
            assert covered == list(range(rows))


class TestConstruction:
    def test_single_core_tree_is_unchanged(self):
        soc = Soc(multicore_config(1))
        assert soc.cpu.name == "cpu"
        assert soc.cpus == [soc.cpu]
        assert "soc.cpu.cycles" in soc.stats()
        assert "soc.cpu0.cycles" not in soc.stats()

    def test_two_cores_register_indexed_subtrees(self):
        soc = Soc(multicore_config(2))
        stats = soc.stats()
        assert "soc.cpu0.cycles" in stats
        assert "soc.cpu1.cycles" in stats
        assert "soc.cpu.cycles" not in stats

    def test_cores_share_one_ram_port(self):
        soc = Soc(multicore_config(2))
        assert soc.cpus[0].bus.port is soc.cpus[1].bus.port
        assert soc.cpus[0].bus.ram is soc.cpus[1].bus.ram

    def test_per_core_requesters(self):
        soc = Soc(multicore_config(3))
        assert [cpu.bus.default_requester for cpu in soc.cpus] == \
            ["cpu0", "cpu1", "cpu2"]

    def test_secondary_buses_share_the_mmio_map(self):
        soc = Soc(multicore_config(2))
        assert soc.cpus[1].bus._devices is soc.bus._devices
        assert soc.cpus[1].bus._fifos is soc.bus._fifos

    def test_n_cores_validation(self):
        with pytest.raises(ValueError, match="n_cores"):
            SystemConfig(n_cores=0)


@pytest.mark.parametrize("backend", ["reference", "compiled"])
class TestCorrectness:
    @pytest.mark.parametrize("n_cores", [2, 3, 4])
    def test_spmv_matches_reference_product(self, backend, n_cores,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        matrix = random_csr((29, 29), 0.4, seed=21)
        v = random_dense_vector(29, seed=22)
        run = run_spmv(matrix, v, config=multicore_config(n_cores))
        ref = matrix.to_dense().astype(np.float64) @ v.astype(np.float64)
        assert np.allclose(run.y, ref, rtol=1e-3, atol=1e-4)

    def test_spmspv_matches_reference_product(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        matrix = random_csr((25, 25), 0.5, seed=23)
        sv = random_sparse_vector(25, 0.5, seed=24)
        run = run_spmspv(matrix, sv, mode="baseline",
                         config=multicore_config(2))
        ref = matrix.to_dense().astype(np.float64) @ \
            sv.to_dense().astype(np.float64)
        assert np.allclose(run.y, ref, rtol=1e-3, atol=1e-4)

    def test_scalar_kernel_too(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        matrix = random_csr((19, 19), 0.5, seed=25)
        v = random_dense_vector(19, seed=26)
        run = run_spmv(matrix, v, config=multicore_config(2, vlmax=1))
        ref = matrix.to_dense().astype(np.float64) @ v.astype(np.float64)
        assert np.allclose(run.y, ref, rtol=1e-3, atol=1e-4)


class TestAccounting:
    def _two_core_run(self):
        matrix = random_csr((31, 31), 0.5, seed=27)
        v = random_dense_vector(31, seed=28)
        return run_spmv(matrix, v, config=multicore_config(2))

    def test_per_core_stats_and_requesters(self):
        stats = self._two_core_run().stats
        assert stats["soc.cpu0.instructions"] > 0
        assert stats["soc.cpu1.instructions"] > 0
        assert stats["soc.ram.requester.cpu0"] > 0
        assert stats["soc.ram.requester.cpu1"] > 0

    def test_contention_appears_in_queue_cycles(self):
        matrix = random_csr((31, 31), 0.5, seed=27)
        v = random_dense_vector(31, seed=28)
        one = run_spmv(matrix, v, config=multicore_config(1))
        two = run_spmv(matrix, v, config=multicore_config(2))
        assert one.stats.get("soc.ram.queue_cycles", 0) == 0
        assert two.stats["soc.ram.queue_cycles"] > 0
        # Parallel rows beat serial rows despite the queueing.
        assert two.cycles < one.cycles

    def test_contention_probe_sees_both_cores(self):
        matrix = random_csr((31, 31), 0.5, seed=27)
        v = random_dense_vector(31, seed=28)
        soc = Soc(multicore_config(2))
        soc.load_csr(matrix)
        soc.load_dense_vector(v)
        soc.allocate_output(matrix.nrows)
        for name, value in partition_rows(matrix.nrows, 2).items():
            soc.define_symbol(name, value)
        probe = ContentionProbe()
        result = soc.run(soc.assemble(spmv_multicore_kernel(2, vector=True)),
                         probes=(probe,))
        payload = result.probe_payloads["contention"]
        assert {"cpu0", "cpu1"} <= set(payload["requests"])

    def test_run_result_instructions_are_summed(self):
        run = self._two_core_run()
        stats = run.stats
        assert run.instructions == (stats["soc.cpu0.instructions"]
                                    + stats["soc.cpu1.instructions"])
        assert run.cycles == max(stats["soc.cpu0.cycles"],
                                 stats["soc.cpu1.cycles"])


class TestGuards:
    def test_accelerated_spmv_rejects_multicore(self):
        matrix = random_csr((16, 16), 0.5, seed=1)
        v = random_dense_vector(16, seed=2)
        with pytest.raises(ValueError, match="single-core"):
            run_spmv(matrix, v, accel="hht", config=multicore_config(2))

    def test_accelerated_spmspv_rejects_multicore(self):
        matrix = random_csr((16, 16), 0.5, seed=1)
        sv = random_sparse_vector(16, 0.5, seed=2)
        with pytest.raises(ValueError, match="single-core"):
            run_spmspv(matrix, sv, mode="hht_v2",
                       config=multicore_config(2))

    def test_programmable_spmv_rejects_multicore(self, monkeypatch):
        """The programmable HHT is single-core too; the guard fires
        before any SoC is built, not as a FIFO deadlock mid-run."""
        def no_soc(*args, **kwargs):
            raise AssertionError("a SoC was built before the guard")

        monkeypatch.setattr(Soc, "__init__", no_soc)
        matrix = random_csr((16, 16), 0.5, seed=1)
        v = random_dense_vector(16, seed=2)
        with pytest.raises(ValueError, match="single-core"):
            run_spmv_programmable(matrix, v, format_name="csr",
                                  config=multicore_config(2))

    @pytest.mark.parametrize("factory", [
        lambda cfg: spmv_spec((16, 16), 0.5, accel="hht", config=cfg),
        lambda cfg: spmspv_spec(16, 0.5, mode="hht_v1", config=cfg),
        lambda cfg: programmable_spec((16, 16), 0.5, format_name="csr",
                                      config=cfg),
        lambda cfg: corpus_spec(CORPUS_NAMES[0], hht=True, config=cfg),
        lambda cfg: dnn_spec(FIG9_ORDER[0], hht=True, config=cfg),
    ], ids=["spmv", "spmspv", "programmable", "corpus", "dnn"])
    def test_spec_factories_reject_multicore_accelerators(self, factory):
        """An invalid point fails when the spec is made, before a sweep."""
        with pytest.raises(ValueError, match="single-core"):
            factory(multicore_config(2))

    def test_multicore_kernel_builder_needs_two_cores(self):
        with pytest.raises(ValueError, match="n_cores >= 2"):
            spmv_multicore_kernel(1, vector=True)
