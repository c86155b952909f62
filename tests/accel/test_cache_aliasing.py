"""Cache addressing across accelerator front-ends (SCHEMA_VERSION 4).

An HHT-only spec must never alias an SSR or IndexMAC spec: the variant
name is part of the content hash, the appended ``accelerators.*``
config items separate the configs structurally, and the schema bump
retires every pre-front-end cache entry.
"""

from repro.exec import cache_key, payload_key, spmspv_spec, spmv_spec
from repro.exec.cache import SCHEMA_VERSION

POINT = dict(sparsity=0.5, matrix_seed=1, vector_seed=2)


class TestSpmvNonAliasing:
    def test_every_variant_has_a_distinct_key(self):
        keys = {
            accel: cache_key(spmv_spec((16, 16), accel=accel, **POINT))
            for accel in (None, "hht", "ssr", "indexmac")
        }
        assert len(set(keys.values())) == 4

    def test_legacy_hht_flag_aliases_accel_name(self, monkeypatch):
        # accel="hht" addresses the cache entries the retired boolean
        # hht flag wrote: with or without an explicit Table-1 config,
        # the point's payload digest is the one that flag produced (on
        # the reference backend; cpu.backend is part of the payload).
        from repro.system import SystemConfig

        monkeypatch.setenv("REPRO_BACKEND", "reference")
        legacy = (
            "e1772a45f10d1fc83b26e9a0f96cb403d8965a46d646eb9c0e079943ded91466"
        )
        for config in (None, SystemConfig.paper_table1()):
            named = spmv_spec((16, 16), accel="hht", config=config, **POINT)
            assert payload_key(named) == legacy

    def test_hht_config_carries_no_accelerators_section(self):
        # Structural separation: only rival front-ends materialize the
        # generic config section, so legacy points hash the exact flat
        # dict they always did.
        for accel in (None, "hht"):
            spec = spmv_spec((16, 16), accel=accel, **POINT)
            assert not any(
                k.startswith("accelerators") for k, _ in spec.config
            )
        for accel in ("ssr", "indexmac"):
            spec = spmv_spec((16, 16), accel=accel, **POINT)
            assert any(
                k == "accelerators.1.kind" and val == accel
                for k, val in spec.config
            )


class TestSpmspvNonAliasing:
    def test_rival_modes_have_distinct_keys(self):
        keys = {
            mode: cache_key(spmspv_spec(16, mode=mode, **POINT))
            for mode in ("baseline", "hht_v1", "hht_v2", "ssr", "indexmac")
        }
        assert len(set(keys.values())) == 5


class TestMultiCoreNonAliasing:
    """SCHEMA_VERSION 6: core count and MMU are part of every key."""

    def _key(self, n_cores=1, mmu=False):
        from repro.memory import MmuConfig
        from repro.system import SystemConfig

        cfg = SystemConfig.paper_table1()
        cfg.n_cores = n_cores
        if mmu:
            cfg.mmu = MmuConfig()
        return cache_key(spmv_spec((16, 16), accel=None, config=cfg, **POINT))

    def test_core_count_and_mmu_keys_never_collide(self):
        keys = {
            self._key(),
            self._key(n_cores=2),
            self._key(n_cores=4),
            self._key(mmu=True),
            self._key(n_cores=2, mmu=True),
        }
        assert len(keys) == 5

    def test_explicit_defaults_alias_the_legacy_point(self):
        # n_cores=1/mmu=None IS the pre-refactor config: same flat dict,
        # same key — the refactor must not split the cache for old runs.
        from repro.system import SystemConfig

        legacy = cache_key(spmv_spec((16, 16), accel=None, **POINT))
        explicit = cache_key(spmv_spec(
            (16, 16), accel=None, config=SystemConfig.paper_table1(), **POINT
        ))
        assert legacy == explicit == self._key()


class TestSchemaBump:
    def test_schema_version_is_6(self):
        assert SCHEMA_VERSION == 6

    def test_schema_versions_entry_format(self):
        # The key embeds the schema version, so any entry written by an
        # older-schema build is unreachable from the current one and
        # vice versa.
        spec = spmv_spec((16, 16), accel="hht", **POINT)
        import repro.exec.cache as cache_mod

        current = cache_key(spec)
        try:
            cache_mod.SCHEMA_VERSION = SCHEMA_VERSION - 1
            older = cache_key(spec)
        finally:
            cache_mod.SCHEMA_VERSION = SCHEMA_VERSION
        assert older != current
