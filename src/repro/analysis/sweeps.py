"""Generic design-space sweeps.

The figure regenerators sweep the paper's axes; downstream users usually
want their own ("what if the RAM were slower?", "what buffer depth do I
need at VL=16?").  :func:`parameter_sweep` runs the baseline-vs-HHT
comparison across any sequence of values applied to a
:class:`SystemConfig` and tabulates cycles, speedup and wait fractions.

Example::

    from repro.analysis.sweeps import parameter_sweep

    table = parameter_sweep(
        "ram_latency", [1, 2, 4, 8, 16],
        lambda cfg, v: setattr(cfg, "ram_latency", v),
    )
    print(table.render())
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..exec import run_specs, spmspv_spec, spmv_spec
from ..system.config import SystemConfig
from .tables import Table

ConfigEdit = Callable[[SystemConfig, object], None]


def _fresh_config(vlmax: int, n_buffers: int) -> SystemConfig:
    return SystemConfig.paper_table1(vlmax=vlmax, n_buffers=n_buffers)


def parameter_sweep(
    name: str,
    values: Sequence[object],
    apply: ConfigEdit,
    *,
    workload: str = "spmv",
    size: int = 128,
    sparsity: float = 0.5,
    seed: int = 0,
    vlmax: int = 8,
    n_buffers: int = 2,
    sweep_baseline: bool = True,
) -> Table:
    """Sweep one configuration knob and tabulate the HHT comparison.

    * ``apply(cfg, value)`` mutates a fresh Table-1 :class:`SystemConfig`
      for each swept value (applied to both the baseline's and the HHT's
      system unless ``sweep_baseline=False``, in which case the baseline
      is measured once on the unmodified configuration).
    * ``workload`` is ``"spmv"`` or any SpMSpV mode
      (``"hht_v1"`` / ``"hht_v2"``).
    """
    if workload not in ("spmv", "hht_v1", "hht_v2"):
        raise ValueError(
            f"workload must be 'spmv', 'hht_v1' or 'hht_v2', got {workload!r}"
        )
    def pair_specs(value):
        cfg_base = _fresh_config(vlmax, n_buffers)
        cfg_hht = _fresh_config(vlmax, n_buffers)
        apply(cfg_hht, value)
        if sweep_baseline:
            apply(cfg_base, value)
        if workload == "spmv":
            return (
                spmv_spec((size, size), sparsity, accel=None,
                          matrix_seed=seed, vector_seed=seed + 1,
                          config=cfg_base),
                spmv_spec((size, size), sparsity, accel="hht",
                          matrix_seed=seed, vector_seed=seed + 1,
                          config=cfg_hht),
            )
        return (
            spmspv_spec(size, sparsity, mode="baseline",
                        matrix_seed=seed, vector_seed=seed + 2,
                        config=cfg_base),
            spmspv_spec(size, sparsity, mode=workload,
                        matrix_seed=seed, vector_seed=seed + 2,
                        config=cfg_hht),
        )

    specs = [spec for value in values for spec in pair_specs(value)]
    summaries = run_specs(specs)

    table = Table(
        f"sweep of {name} ({workload}, {size}x{size}, "
        f"{sparsity:.0%} sparse, VL={vlmax}, N={n_buffers})",
        [name, "baseline_cycles", "hht_cycles", "speedup",
         "cpu_wait_fraction", "hht_wait_cycles"],
    )
    for k, value in enumerate(values):
        base, hht = summaries[2 * k], summaries[2 * k + 1]
        table.add_row(
            value,
            base.cycles,
            hht.cycles,
            base.cycles / hht.cycles,
            hht.cpu_wait_fraction,
            hht.hht_wait_cycles,
        )
    return table


def hht_knob(field: str) -> ConfigEdit:
    """Config editor for an :class:`HHTConfig` field (``cfg.hht.<field>``)."""

    def apply(cfg: SystemConfig, value) -> None:
        if not hasattr(cfg.hht, field):
            raise AttributeError(f"HHTConfig has no field {field!r}")
        setattr(cfg.hht, field, value)

    return apply


def system_knob(field: str) -> ConfigEdit:
    """Config editor for a top-level :class:`SystemConfig` field."""

    def apply(cfg: SystemConfig, value) -> None:
        if not hasattr(cfg, field):
            raise AttributeError(f"SystemConfig has no field {field!r}")
        setattr(cfg, field, value)

    return apply
