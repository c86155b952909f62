"""IndexMAC front-end: a custom indexed-MAC vector instruction.

Models the IndexMAC approach (arxiv 2311.07241): instead of a memory-side
engine, the vector unit gains a fused instruction family for sparse
access patterns —

* ``vfmacidx vd, (rs1), vs2, vs3`` — gather ``rs1[vs2[i]]`` (element
  indices, scaled internally) and multiply-accumulate with ``vs3`` in
  one instruction;
* ``vlpidx.v vd, (rs1), vs2`` — a *pipelined* indexed gather for the
  metadata lookups the fused MAC cannot absorb (SpMSpV's position map).

The win over the baseline's ``vluxei32.v`` is purely micro-architectural:
the gather's element requests are issued back to back (one address per
cycle) instead of serialising each request behind the previous response.
There is no new SoC device — the front-end contributes a stats leaf
(``soc.indexmac.*``) plus the CPU attachment that arms the instructions,
and its silicon cost is a small addition to the vector unit.
"""

from __future__ import annotations

from ..component import SimComponent, StatsDict
from .base import AcceleratorConfig, AcceleratorFrontEnd, BuildContext


class IndexMACUnit(SimComponent):
    """Stats leaf for the vector-unit extension (no bus presence)."""

    def __init__(self, name: str = "indexmac"):
        super().__init__(name)
        self._reset_local()

    def _reset_local(self) -> None:
        self.macs = 0
        self.gathers = 0
        self.gathered_elements = 0

    def _local_stats(self) -> StatsDict:
        return {
            "macs": self.macs,
            "gathers": self.gathers,
            "gathered_elements": self.gathered_elements,
        }


class IndexMACFrontEnd(AcceleratorFrontEnd):
    kind = "indexmac"
    instances_label = "IndexMAC"

    def build(self, ctx: BuildContext) -> int:
        unit = IndexMACUnit(name=ctx.name)
        ctx.add_component(unit)
        if ctx.index == 0:
            ctx.cpu.indexmac = unit
        return 0  # pure-ISA front-end: no MMIO window

    def summary_lines(self, config, spec: AcceleratorConfig):
        return [
            ("IndexMAC", "Indexed-MAC vector instruction (vfmacidx)"),
            ("", "Pipelined gather, 1 element/cycle issue"),
        ]

    def gates(self, config, spec: AcceleratorConfig) -> int:
        from ..power.area import indexmac_gates

        return indexmac_gates()
