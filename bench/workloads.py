"""The benchmark's four workloads, as seed-derived lists of spec batches.

A workload is a sequence of *seed blocks*.  Block ``k`` of seed ``s`` is
a list of batches, and a batch is the list of :class:`repro.exec.RunSpec`
points one figure or experiment hands to ``run_specs`` in one call, so
shared baselines are served from the cache exactly as the figure code
does it.  Every matrix and vector seed is a hash of
``(workload, seed, block, role, index)``: the same seed gives the same
specs, and different seeds or blocks give disjoint ones.

``smoke=True`` shrinks every block to a few tiny points; it is for quick
checks only and is never the measured configuration.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable

from repro.analysis.experiments import SPARSITIES
from repro.exec import (
    RunSpec,
    corpus_spec,
    dnn_spec,
    payload_key,
    programmable_spec,
    spmspv_spec,
    spmv_spec,
)
from repro.memory.mmu import MmuConfig
from repro.system.config import SystemConfig
from repro.workloads.dnn import FIG9_ORDER
from repro.workloads.mtx_corpus import CORPUS_NAMES

Batch = list[RunSpec]
Block = list[Batch]

_SMOKE_SPARSITIES = (0.3, 0.7)


def derive_seed(*parts) -> int:
    """A 31-bit seed that is a pure function of *parts*."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _headline(seed: int, k: int, smoke: bool) -> Block:
    """Figs. 4-7: SpMV baseline/HHT 1-2 buffers, SpMSpV baseline/v1/v2."""
    size = 24 if smoke else 256
    sparsities = _SMOKE_SPARSITIES if smoke else SPARSITIES
    m = [derive_seed("headline", seed, k, "m", i) for i in range(len(sparsities))]
    v = [derive_seed("headline", seed, k, "v", i) for i in range(len(sparsities))]
    sv = [derive_seed("headline", seed, k, "sv", i) for i in range(len(sparsities))]

    def spmv(accel, n_buffers=2):
        return [spmv_spec((size, size), s, accel=accel, n_buffers=n_buffers,
                          matrix_seed=m[i], vector_seed=v[i])
                for i, s in enumerate(sparsities)]

    def spmspv(mode, n_buffers=2):
        return [spmspv_spec(size, s, mode=mode, n_buffers=n_buffers,
                            matrix_seed=m[i], vector_seed=sv[i])
                for i, s in enumerate(sparsities)]

    return (
        [spmv(None) + spmv("hht", nb) for nb in (1, 2)]
        + [spmspv("baseline") + spmspv(variant, nb)
           for variant in ("hht_v1", "hht_v2") for nb in (1, 2)]
    )


#: The ``repro compare`` series: (accelerator, vlmax) per column.
_COMPARE = (("scalar", None, 1), ("vector", None, 8), ("hht", "hht", 8),
            ("ssr", "ssr", 8), ("indexmac", "indexmac", 8))


def _ablation_config(*, n_cores=1, mmu=False, banks=1) -> SystemConfig:
    cfg = SystemConfig.paper_table1()
    cfg.ram_latency = 4
    cfg.n_cores = n_cores
    cfg.banks = banks
    if mmu:
        cfg.mmu = MmuConfig()
    return cfg


def _bakeoff(seed: int, k: int, smoke: bool) -> Block:
    """Every front-end, core count, bank count, firmware and corpus matrix.

    Sizes follow ``repro compare``/``ablation_*``/``ext_*`` at 64x64 (a
    multiple of 32, which the bit-vector and SMASH firmwares need).
    """
    size = 32 if smoke else 64
    shape = (size, size)
    sparsities = _SMOKE_SPARSITIES if smoke else SPARSITIES

    def seeds(tag, i=0):
        return dict(matrix_seed=derive_seed("bakeoff", seed, k, tag, "m", i),
                    vector_seed=derive_seed("bakeoff", seed, k, tag, "v", i))

    compare = [spmv_spec(shape, s, accel=accel, vlmax=vl, **seeds("cmp", i))
               for i, s in enumerate(sparsities)
               for _, accel, vl in _COMPARE]
    rivals = [spmspv_spec(size, s, mode=mode, **seeds("spmspv", i))
              for mode in ("ssr", "indexmac")
              for i, s in enumerate(sparsities)]
    cores = [spmv_spec(shape, 0.7, accel=None,
                       config=_ablation_config(n_cores=n, mmu=mmu),
                       **seeds("cores"))
             for n in (1, 2, 4) for mmu in (False, True)]
    banks = (
        [spmv_spec(shape, 0.7, accel="hht",
                   config=_ablation_config(banks=b), **seeds("banks-asic"))
         for b in (1, 2, 4, 8)]
        + [programmable_spec(shape, 0.7, format_name="csr",
                             config=_ablation_config(banks=b),
                             **seeds("banks-prog"))
           for b in (1, 2, 4, 8)]
    )
    programmable = (
        [spmv_spec(shape, 0.7, accel=accel, **seeds("prog"))
         for accel in (None, "hht")]
        + [programmable_spec(shape, 0.7, format_name=fmt, **seeds("prog"))
           for fmt in ("csr", "coo", "bitvector", "smash")]
    )
    names = CORPUS_NAMES[:1] if smoke else CORPUS_NAMES
    corpus = [corpus_spec(name, hht=hht,
                          vector_seed=derive_seed("bakeoff", seed, k, name))
              for name in names for hht in (False, True)]
    return [compare, rivals, cores, banks, programmable, corpus]


def _fig9(seed: int, k: int, smoke: bool) -> Block:
    """Fig. 9: the seven FC layers, baseline and HHT, 128-row tiles."""
    rows = 4 if smoke else 128
    return [[
        dnn_spec(name, hht=hht, rows=rows,
                 matrix_seed=derive_seed("fig9", seed, k, name, "m"),
                 vector_seed=derive_seed("fig9", seed, k, name, "v"))
        for name in FIG9_ORDER for hht in (False, True)
    ]]


@dataclass(frozen=True)
class Workload:
    name: str
    make_block: Callable[[int, int, bool], Block]
    #: ``REPRO_BACKEND`` in the child; specs record it in ``cpu.backend``.
    backend: str
    #: Pool size of the pooled pass in ``--trace 1`` (1: no pooled pass;
    #: capped at nproc).  Measured passes run serially, so the load comes
    #: from one process and does not depend on a second free CPU.
    pool_jobs: int
    #: Blocks a run may reach before it stops regardless of ``--seconds``;
    #: the golden files cover exactly this many blocks per seed.
    max_blocks: int
    #: Golden file stem (both headline workloads share one: same digests).
    golden: str

    def blocks(self, seed: int, smoke: bool = False) -> list[Block]:
        n = 1 if smoke else self.max_blocks
        return [self.make_block(seed, k, smoke) for k in range(n)]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("headline", _headline, "reference", 1, 6, "headline"),
    Workload("headline-compiled", _headline, "compiled", 1, 6, "headline"),
    Workload("bakeoff", _bakeoff, "reference", 2, 24, "bakeoff"),
    Workload("fig9-dnn", _fig9, "reference", 1, 6, "fig9-dnn"),
)}


def golden_key(spec: RunSpec) -> str:
    """``payload_key`` with ``cpu.backend`` normalised to ``reference``.

    Backends are bit-identical, so one golden digest serves both
    headline workloads.  Truncated to 12 hex digits to keep the golden
    files small.
    """
    config = tuple((k, "reference" if k == "cpu.backend" else v)
                   for k, v in spec.config)
    return payload_key(replace(spec, config=config))[:12]
