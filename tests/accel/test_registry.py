"""Accelerator front-end lookup and config integration."""

import pytest

from repro.accel import FRONT_ENDS, AcceleratorConfig, front_end
from repro.kernels import spmv_kernel
from repro.system import SystemConfig


class TestRegistry:
    def test_builtin_kinds_registered(self):
        assert set(FRONT_ENDS) >= {"hht", "ssr", "indexmac"}

    def test_kernel_accels_cover_registry(self):
        # Every front-end, and the pure CPU, has a kernel.
        for kind in (None, *FRONT_ENDS):
            assert spmv_kernel(accel=kind, vector=True)

    def test_lookup_returns_front_end(self):
        for kind in FRONT_ENDS:
            fe = front_end(kind)
            assert fe.kind == kind

    def test_unknown_kind_rejected_with_known_list(self):
        with pytest.raises(ValueError, match="hht"):
            front_end("nonsense")


class TestAcceleratorConfig:
    def test_defaults(self):
        spec = AcceleratorConfig()
        assert spec.kind == "hht"
        assert spec.count == 1
        assert spec.lookahead == 4

    @pytest.mark.parametrize("field,value", [("count", 0), ("lookahead", 0)])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            AcceleratorConfig(**{field: value})

    def test_dict_round_trip(self):
        spec = AcceleratorConfig(kind="ssr", count=2, lookahead=8)
        cfg = SystemConfig(accelerators=(spec,))
        assert SystemConfig.from_flat(cfg.to_flat()) == cfg


class TestSystemConfigIntegration:
    def test_default_specs_are_legacy_hht_view(self):
        cfg = SystemConfig.paper_table1()
        specs = cfg.accelerator_specs()
        assert [s.kind for s in specs] == ["hht"]
        assert specs[0].count == 1

    def test_n_hhts_reflected_in_specs(self):
        specs = SystemConfig(n_hhts=3).accelerator_specs()
        assert specs[0].kind == "hht"
        assert specs[0].count == 3

    def test_with_accelerator_appends(self):
        cfg = SystemConfig.paper_table1().with_accelerator("ssr")
        assert [s.kind for s in cfg.accelerator_specs()] == ["hht", "ssr"]

    def test_with_accelerator_is_idempotent(self):
        cfg = SystemConfig.paper_table1().with_accelerator("ssr")
        again = cfg.with_accelerator("ssr")
        assert [s.kind for s in again.accelerator_specs()] == ["hht", "ssr"]

    def test_duplicate_kinds_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            SystemConfig(
                accelerators=(
                    AcceleratorConfig(kind="hht"),
                    AcceleratorConfig(kind="hht"),
                )
            )

    def test_unregistered_kind_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(accelerators=(AcceleratorConfig(kind="bogus"),))

    def test_describe_covers_every_front_end(self):
        cfg = (
            SystemConfig.paper_table1()
            .with_accelerator("ssr")
            .with_accelerator("indexmac")
        )
        text = cfg.describe()
        assert "ASIC HHT" in text
        assert "SSR" in text
        assert "IndexMAC" in text

    def test_gates_available_per_front_end(self):
        cfg = SystemConfig.paper_table1()
        for kind, fe in FRONT_ENDS.items():
            assert fe.gates(cfg, AcceleratorConfig(kind=kind)) > 0
