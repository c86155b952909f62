"""SystemConfig flattening, content addressing, and topology fields."""

import pytest

from repro.memory import CacheConfig, MmuConfig
from repro.system import SystemConfig


class TestTopologyFields:
    def test_defaults_are_paper_table1(self):
        cfg = SystemConfig()
        assert cfg.banks == 1
        assert cfg.n_hhts == 1

    @pytest.mark.parametrize("field,value", [("banks", 0), ("n_hhts", 0)])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            SystemConfig(**{field: value})

    def test_describe_mentions_topology_only_when_nondefault(self):
        assert "Banks" not in SystemConfig().describe()
        cfg = SystemConfig(banks=4, n_hhts=2)
        text = cfg.describe()
        assert "Banks = 4" in text
        assert "HHT instances = 2" in text


class TestFlatRoundTrip:
    def test_flat_contains_topology_keys(self):
        flat = SystemConfig(banks=4, n_hhts=2).to_flat()
        assert flat["banks"] == 4
        assert flat["n_hhts"] == 2

    def test_round_trip_preserves_topology(self):
        cfg = SystemConfig(banks=8, n_hhts=3)
        cfg.ram_latency = 5
        thawed = SystemConfig.from_flat(cfg.to_flat())
        assert thawed == cfg
        assert thawed.banks == 8
        assert thawed.n_hhts == 3

    def test_round_trip_with_cache(self):
        cfg = SystemConfig(banks=2, cache=CacheConfig())
        assert SystemConfig.from_flat(cfg.to_flat()) == cfg

    def test_legacy_flat_dicts_still_thaw(self):
        # Flat dicts frozen before the topology fields existed carry no
        # banks/n_hhts keys; they must thaw to the paper defaults.
        flat = SystemConfig().to_flat()
        del flat["banks"]
        del flat["n_hhts"]
        cfg = SystemConfig.from_flat(flat)
        assert cfg.banks == 1
        assert cfg.n_hhts == 1
        assert cfg == SystemConfig()


class TestContentKey:
    def test_stable_across_instances(self):
        assert SystemConfig(banks=4).content_key() == SystemConfig(banks=4).content_key()

    @pytest.mark.parametrize("mutation", [
        dict(banks=4),
        dict(n_hhts=2),
        dict(ram_latency=9),
        dict(cache=CacheConfig()),
    ])
    def test_any_field_changes_the_key(self, mutation):
        assert (SystemConfig(**mutation).content_key()
                != SystemConfig().content_key())

    def test_banks_and_hhts_keys_distinct(self):
        keys = {
            SystemConfig().content_key(),
            SystemConfig(banks=4).content_key(),
            SystemConfig(n_hhts=2).content_key(),
            SystemConfig(banks=4, n_hhts=2).content_key(),
        }
        assert len(keys) == 4


class TestMultiCoreFields:
    def test_defaults_are_single_core_physical(self):
        cfg = SystemConfig()
        assert cfg.n_cores == 1
        assert cfg.mmu is None

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(n_cores=0)
        with pytest.raises(ValueError):
            SystemConfig(mmu="yes")

    def test_describe_mentions_cores_and_mmu_only_when_nondefault(self):
        base = SystemConfig().describe()
        assert "Cores" not in base
        assert "MMU" not in base
        text = SystemConfig(n_cores=2, mmu=MmuConfig()).describe()
        assert "Cores = 2" in text
        assert "round-robin" in text
        assert "16-entry TLB/core" in text
        assert "2-level walk" in text

    def test_flat_round_trip(self):
        cfg = SystemConfig(
            n_cores=4, mmu=MmuConfig(page_bytes=8192, tlb_entries=8,
                                     walk_levels=3),
        )
        flat = cfg.to_flat()
        assert flat["n_cores"] == 4
        assert flat["mmu.page_bytes"] == 8192
        thawed = SystemConfig.from_flat(flat)
        assert thawed == cfg
        assert thawed.mmu.walk_levels == 3

    def test_legacy_flat_dicts_still_thaw(self):
        # Flat dicts frozen before the multi-core refactor carry neither
        # n_cores nor mmu keys; they must thaw to the paper's 1-core
        # physical-address system.
        flat = SystemConfig().to_flat()
        del flat["n_cores"]
        flat = {k: v for k, v in flat.items() if not k.startswith("mmu")}
        cfg = SystemConfig.from_flat(flat)
        assert cfg.n_cores == 1
        assert cfg.mmu is None
        assert cfg == SystemConfig()

    def test_core_count_and_mmu_keys_never_alias(self):
        # The satellite contract: a 1-core physical run, a multi-core
        # run and an MMU-on run must occupy distinct cache keys.
        keys = {
            SystemConfig().content_key(),
            SystemConfig(n_cores=2).content_key(),
            SystemConfig(n_cores=4).content_key(),
            SystemConfig(mmu=MmuConfig()).content_key(),
            SystemConfig(n_cores=2, mmu=MmuConfig()).content_key(),
            SystemConfig(mmu=MmuConfig(tlb_entries=8)).content_key(),
        }
        assert len(keys) == 6


class TestFieldsSetByAssignment:
    """A bad field fails when its spec or run is made, before any SoC."""

    @pytest.fixture(autouse=True)
    def no_soc(self, monkeypatch):
        def refuse(config):
            raise AssertionError("a SoC was built")

        monkeypatch.setattr("repro.analysis.runners.Soc", refuse)

    @pytest.mark.parametrize("kwargs", [
        dict(accel="hht", n_buffers=0),
        dict(vlmax=0),
    ], ids=["n_buffers", "vlmax"])
    def test_spec_factory_checks_swept_parameters(self, kwargs):
        from repro.exec import spmv_spec

        name = list(kwargs)[-1]
        with pytest.raises(ValueError, match=name):
            spmv_spec((16, 16), 0.5, **kwargs)

    def test_runner_checks_swept_parameters(self):
        from repro.analysis import run_spmv
        from repro.workloads import random_csr, random_dense_vector

        with pytest.raises(ValueError, match="n_buffers"):
            run_spmv(random_csr((16, 16), 0.5, seed=1),
                     random_dense_vector(16, seed=2),
                     accel="hht", n_buffers=0)

    @pytest.mark.parametrize("path,value,message", [
        ("ram_latency", 0, "ram_latency"),
        ("ram_bytes", 6, "got 6"),
        ("banks", 0, "banks"),
        ("cpu.vlmax", 0, "vlmax"),
        ("cpu.latencies.int_alu", -1, "int_alu"),
        ("hht.n_buffers", 0, "n_buffers"),
        ("hht.fifo_beat_per_elem", -1, "non-negative"),
    ])
    def test_spec_factory_rechecks_assigned_fields(self, path, value, message):
        from repro.exec import spmv_spec

        cfg = SystemConfig.paper_table1()
        *parents, name = path.split(".")
        owner = cfg
        for parent in parents:
            owner = getattr(owner, parent)
        setattr(owner, name, value)
        with pytest.raises(ValueError, match=message):
            spmv_spec((16, 16), 0.5, accel="hht", config=cfg)
