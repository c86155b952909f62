"""The paper's HHT wrapped as an accelerator front-end.

The device model itself stays in :mod:`repro.core.hht`; this module only
adapts it to the :class:`~repro.accel.base.AcceleratorFrontEnd` protocol
so the SoC, config summary, area model and ``repro compare`` treat it
as one selectable front-end among several.
"""

from __future__ import annotations

from ..core.config import MMR
from ..core.hht import HHT
from .base import AcceleratorConfig, AcceleratorFrontEnd, BuildContext

#: MMR/FIFO symbol suffixes in the legacy ``_MMR_SYMBOLS`` order; the
#: SoC prefixes them ("hht_...", "hht1_...") and adds the instance base.
_MMR_OFFSETS = {
    "base": 0,
    "m_num_rows": MMR.M_NUM_ROWS,
    "m_rows_base": MMR.M_ROWS_BASE,
    "m_cols_base": MMR.M_COLS_BASE,
    "m_vals_base": MMR.M_VALS_BASE,
    "v_base": MMR.V_BASE,
    "v_nnz": MMR.V_NNZ,
    "v_idx_base": MMR.V_IDX_BASE,
    "v_vals_base": MMR.V_VALS_BASE,
    "v_map_base": MMR.V_MAP_BASE,
    "elem_size": MMR.ELEM_SIZE,
    "mode": MMR.MODE,
    "start": MMR.START,
    "status": MMR.STATUS,
    "m_num_cols": MMR.M_NUM_COLS,
    "aux0": MMR.AUX0,
    "aux1": MMR.AUX1,
    "aux2": MMR.AUX2,
    "aux3": MMR.AUX3,
    "vval_fifo": MMR.VVAL_FIFO,
    "mval_fifo": MMR.MVAL_FIFO,
    "count_fifo": MMR.COUNT_FIFO,
}


class HHTFrontEnd(AcceleratorFrontEnd):
    kind = "hht"
    instances_label = "HHT"

    def build(self, ctx: BuildContext) -> int:
        hht = HHT(ctx.config.hht, ctx.ram, ctx.mem, name=ctx.name)
        ctx.bus.attach_device(ctx.mmio_base, MMR.REGION_SIZE, hht)
        ctx.add_component(hht)
        for suffix, offset in _MMR_OFFSETS.items():
            ctx.symbols[f"{ctx.symbol_prefix}_{suffix}"] = ctx.mmio_base + offset
        return MMR.REGION_SIZE

    def summary_lines(self, config, spec: AcceleratorConfig):
        return [
            ("ASIC HHT", f"N={config.hht.n_buffers} Buffers"),
            ("", f"Buffer size = {config.hht.buffer_bytes}B"),
        ]

    def gates(self, config, spec: AcceleratorConfig) -> int:
        from ..power.area import hht_area

        return hht_area(config.hht).total_gates
