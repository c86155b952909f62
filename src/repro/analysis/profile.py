"""Kernel profiler: per-line cycles and metadata-overhead attribution.

The paper's Section 2 (and its EXPRESS predecessor [23]) motivates the
HHT by quantifying *metadata overhead* — the cycles a sparse kernel
spends locating non-zeros rather than computing on them.  This module
measures that directly on the simulator: a
:class:`~repro.instrument.PcProfileProbe` attributes cycles to
instruction indices, and kernel instructions tagged
``[meta]`` (the column-index loads, index arithmetic and indexed
gathers) are summed into the overhead share the HHT would remove.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..formats.csr import CSRMatrix
from ..formats.sparse_vector import SparseVector
from ..instrument.probes import PcProfileProbe
from ..isa.program import Program
from ..system.soc import RunSummary
from .runners import run_spmspv, run_spmv
from .tables import Table


@dataclass
class LineProfile:
    """Cycle attribution for one instruction of a profiled run."""

    index: int
    text: str
    count: int
    cycles: int
    fraction: float
    meta: bool


@dataclass
class KernelProfile:
    """Full profile of one kernel execution."""

    program: Program
    result: RunSummary
    lines: list[LineProfile]

    @property
    def total_cycles(self) -> int:
        return self.result.cycles

    @property
    def metadata_cycles(self) -> int:
        return sum(line.cycles for line in self.lines if line.meta)

    @property
    def metadata_fraction(self) -> float:
        total = self.total_cycles
        return self.metadata_cycles / total if total else 0.0

    def hottest(self, n: int = 10) -> list[LineProfile]:
        return sorted(self.lines, key=lambda l: l.cycles, reverse=True)[:n]

    def table(self, top: int = 10) -> Table:
        table = Table(
            f"profile: {self.program.name} "
            f"({self.total_cycles:,} cycles, "
            f"{self.metadata_fraction:.1%} metadata)",
            ["idx", "instruction", "count", "cycles", "share", "meta"],
        )
        for line in self.hottest(top):
            table.add_row(
                line.index,
                line.text,
                line.count,
                line.cycles,
                line.fraction,
                "yes" if line.meta else "",
            )
        return table


def _profile(probe: PcProfileProbe, result: RunSummary) -> KernelProfile:
    """Attribute the cycles of a run *probe* profiled to its lines."""
    program = probe.program
    stats = result.cpu_stats
    total = max(result.cycles, 1)
    lines = [
        LineProfile(
            index=idx,
            text=program[idx].text or program[idx].op,
            count=stats.pc_counts.get(idx, 0),
            cycles=cycles,
            fraction=cycles / total,
            meta=program[idx].meta,
        )
        for idx, cycles in sorted(stats.pc_cycles.items())
    ]
    return KernelProfile(program=program, result=result, lines=lines)


def profile_spmv(
    matrix: CSRMatrix,
    v: np.ndarray,
    *,
    accel: str | None = None,
    vlmax: int = 8,
    n_buffers: int = 2,
) -> KernelProfile:
    """Profile one SpMV kernel run.

    ``accel`` names the front-end as in :func:`.runners.run_spmv`.
    """
    probe = PcProfileProbe()
    return _profile(probe, run_spmv(matrix, v, accel=accel, vlmax=vlmax,
                                    n_buffers=n_buffers, probes=(probe,)))


def profile_spmspv(
    matrix: CSRMatrix,
    sv: SparseVector,
    *,
    mode: str = "baseline",
    vlmax: int = 8,
    n_buffers: int = 2,
) -> KernelProfile:
    """Profile one SpMSpV kernel run (``mode`` as in
    :func:`.runners.run_spmspv`)."""
    probe = PcProfileProbe()
    return _profile(probe, run_spmspv(matrix, sv, mode=mode, vlmax=vlmax,
                                      n_buffers=n_buffers, probes=(probe,)))


def metadata_overhead_table(size: int = 128,
                            sparsities=(0.1, 0.5, 0.9)) -> Table:
    """Extension: quantify the Section-2 metadata overhead.

    For each sparsity, profile the vector SpMV and SpMSpV baselines and
    report the fraction of cycles spent on ``[meta]`` instructions — the
    work the HHT absorbs.
    """
    from ..workloads.synthetic import (
        random_csr,
        random_dense_vector,
        random_sparse_vector,
    )

    table = Table(
        f"Extension: metadata-overhead share of baseline cycles "
        f"({size}x{size})",
        ["sparsity", "spmv_meta_share", "spmspv_meta_share"],
    )
    for i, s in enumerate(sparsities):
        matrix = random_csr((size, size), s, seed=900 + i)
        v = random_dense_vector(size, seed=910 + i)
        sv = random_sparse_vector(size, s, seed=920 + i)
        spmv = profile_spmv(matrix, v, accel=None)
        spmspv = profile_spmspv(matrix, sv, mode="baseline")
        table.add_row(
            f"{s:.0%}", spmv.metadata_fraction, spmspv.metadata_fraction
        )
    table.add_note(
        "the [meta] share is the index-traversal work the HHT offloads "
        "(cols loads, index arithmetic, indexed gathers) — cf. Section 2 "
        "and the EXPRESS study [23]"
    )
    return table
