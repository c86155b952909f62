"""HHT configuration and register-map tests."""

import pytest

from repro.core import HHT_BASE, MMR, HHTConfig, HHTMode


class TestHHTConfig:
    def test_table1_defaults(self):
        cfg = HHTConfig()
        assert cfg.n_buffers == 2
        assert cfg.buffer_elems == 8
        assert cfg.buffer_bytes == 32  # Table 1: buffer size = 32B

    @pytest.mark.parametrize("field,value", [
        ("n_buffers", 0),
        ("buffer_elems", 0),
        ("fill_overhead", -1),
        ("fifo_read_latency", -1),
        ("fifo_beat_per_elem", -1),
        ("merge_cycles_per_step", 0),
        ("seq_words_per_slot", 0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            HHTConfig(**{field: value})

    def test_single_buffer_allowed(self):
        assert HHTConfig(n_buffers=1).n_buffers == 1


class TestRegisterMap:
    def test_paper_mmrs_present(self):
        """Section 3.1 lists these registers explicitly."""
        for name in ("M_NUM_ROWS", "M_ROWS_BASE", "M_COLS_BASE", "V_BASE",
                     "ELEM_SIZE", "START"):
            assert hasattr(MMR, name)

    def test_offsets_distinct_and_word_aligned(self):
        offsets = [
            getattr(MMR, n) for n in dir(MMR)
            if n.isupper() and n != "REGION_SIZE" and isinstance(getattr(MMR, n), int)
        ]
        assert len(set(offsets)) == len(offsets)
        assert all(off % 4 == 0 for off in offsets)
        assert all(0 <= off < MMR.REGION_SIZE for off in offsets)

    def test_fifo_addresses_in_region(self):
        assert MMR.VVAL_FIFO < MMR.REGION_SIZE
        assert MMR.MVAL_FIFO < MMR.REGION_SIZE
        assert MMR.COUNT_FIFO < MMR.REGION_SIZE

    def test_hht_base_in_mmio_window(self):
        from repro.memory import MMIO_BASE
        assert HHT_BASE >= MMIO_BASE


class TestModes:
    def test_mode_values(self):
        assert int(HHTMode.SPMV) == 0
        assert int(HHTMode.SPMSPV_ALIGNED) == 1
        assert int(HHTMode.SPMSPV_VALUES) == 2

    def test_mode_round_trip(self):
        assert HHTMode(1) is HHTMode.SPMSPV_ALIGNED
