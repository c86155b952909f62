"""Picklable simulation points: what the sweep engine fans out.

A :class:`RunSpec` is a *complete, self-contained* description of one
``Soc.run`` measurement: the kernel, the workload generator and its
arguments (sizes, sparsities, seeds), and the full flattened
:class:`~repro.system.config.SystemConfig`.  Because the spec carries
everything, it can be

* pickled to a :class:`~concurrent.futures.ProcessPoolExecutor` worker
  (the matrix/vector are regenerated *in the worker*, so operand
  construction parallelises too), and
* hashed into a stable content address for the persistent result cache
  (any config field, workload argument or seed change changes the key).

:func:`execute` is the single executor: given a spec it rebuilds the
workload, runs the simulation through the standard
:mod:`repro.analysis.runners` entry points and returns the runner's
picklable :class:`~repro.system.soc.RunSummary` unchanged.  Determinism
is load-bearing — the same spec must always produce bit-identical
cycles, statistics and output vectors, which is what makes cached and
parallel runs indistinguishable from serial live runs (and is covered
by tests/exec/).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from typing import Any

from ..system.config import SystemConfig, run_config
from ..system.soc import RunSummary

KERNELS = ("spmv", "spmspv", "spmv_programmable")
WORKLOADS = ("synthetic", "corpus", "dnn")

#: Flattened SystemConfig as a hashable, picklable tuple of (key, value).
ConfigItems = tuple[tuple[str, Any], ...]


def freeze_config(config: SystemConfig) -> ConfigItems:
    """Flatten a SystemConfig into a hashable tuple of dotted-key pairs."""
    return tuple(sorted(config.to_flat().items()))


def thaw_config(items: ConfigItems) -> SystemConfig:
    """Rebuild the SystemConfig a spec carries."""
    return SystemConfig.from_flat(dict(items))


def _default_config_items(
    config: SystemConfig | None, vlmax: int | None, n_buffers: int | None,
    accel: str | None, kernel=None,
) -> ConfigItems:
    """Freeze the run's config, materialising the named front-end if absent.

    Appending the accelerator *before* freezing means SSR/IndexMAC specs
    differ from HHT-only specs structurally (the ``accelerators.*``
    section), not just by variant string — their cache keys can never
    alias.  :func:`run_config` rejects an accelerator on a multi-core
    system, and *kernel*, the point's kernel generator called with the
    config's CPU flavour, rejects a selector that has no kernel.  So an
    invalid point fails here, before any sweep.
    """
    config = run_config(config, vlmax=vlmax, n_buffers=n_buffers, accel=accel)
    if kernel is not None:
        kernel(vector=config.cpu.vlmax > 1)
    return freeze_config(config)


@dataclass(frozen=True)
class RunSpec:
    """One simulation point (hashable, picklable, content-addressable).

    ``variant`` selects within the kernel family: the accelerator name
    (``"baseline"``/``"hht"``/``"ssr"``/``"indexmac"``) for SpMV, the
    mode (``"baseline"``/``"hht_v1"``/``"hht_v2"``/``"ssr"``/
    ``"indexmac"``) for SpMSpV, and the firmware format name for the
    programmable HHT.
    ``vector_sparsity < 0`` means "same as the matrix" (SpMSpV only).
    ``dnn_rows == 0`` means "all rows" for DNN-layer workloads.
    """

    kernel: str
    variant: str = "hht"
    workload: str = "synthetic"
    rows: int = 0
    cols: int = 0
    sparsity: float = 0.5
    vector_sparsity: float = -1.0
    matrix_seed: int = 0
    vector_seed: int = 0
    name: str = ""
    dnn_rows: int = 0
    config: ConfigItems = ()
    verify: bool = True

    def __post_init__(self) -> None:
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"workload must be one of {WORKLOADS}, got {self.workload!r}"
            )
        if self.workload == "synthetic" and (self.rows < 1 or self.cols < 1):
            raise ValueError("synthetic workloads need positive rows/cols")
        if self.workload in ("corpus", "dnn") and not self.name:
            raise ValueError(f"{self.workload} workloads need a name")

    def to_payload(self) -> dict[str, Any]:
        """Canonical JSON-able form used for content addressing."""
        payload: dict[str, Any] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        payload["config"] = [[k, v] for k, v in self.config]
        return payload

    @property
    def label(self) -> str:
        """Short human identity for failure reports and error messages."""
        core = f"{self.kernel}/{self.variant}"
        if self.workload == "synthetic":
            shape = (f"{self.rows}x{self.cols}" if self.kernel == "spmv"
                     else f"{self.rows}")
            return (f"{core} {shape} s={self.sparsity:g} "
                    f"seeds={self.matrix_seed}/{self.vector_seed}")
        return f"{core} {self.workload}:{self.name}"


# ---------------------------------------------------------------------------
# Spec factories (one per harness entry point)
# ---------------------------------------------------------------------------
def spmv_spec(
    shape: tuple[int, int], sparsity: float, *,
    accel: str | None = None,
    matrix_seed: int = 0, vector_seed: int = 1,
    vlmax: int | None = None, n_buffers: int | None = None,
    config: SystemConfig | None = None, verify: bool = True,
) -> RunSpec:
    """Synthetic-matrix SpMV point.

    ``accel`` names the front-end (``"hht"``, ``"ssr"``, ``"indexmac"``,
    None for the pure-CPU baseline).  Every factory takes ``vlmax`` and
    ``n_buffers`` for the default Table-1 system, or a ``config``, not
    both.
    """
    # Late import, as in execute(): importing repro.exec loads no kernels.
    from ..kernels.loops import spmv_kernel

    rows, cols = shape
    return RunSpec(
        kernel="spmv", variant=accel or "baseline",
        rows=rows, cols=cols, sparsity=float(sparsity),
        matrix_seed=matrix_seed, vector_seed=vector_seed,
        config=_default_config_items(
            config, vlmax, n_buffers, accel=accel,
            kernel=partial(spmv_kernel, accel=accel),
        ),
        verify=verify,
    )


def spmspv_spec(
    size: int, sparsity: float, *, mode: str,
    vector_sparsity: float | None = None,
    matrix_seed: int = 0, vector_seed: int = 1,
    vlmax: int | None = None, n_buffers: int | None = None,
    config: SystemConfig | None = None, verify: bool = True,
) -> RunSpec:
    """Synthetic SpMSpV point.

    ``mode`` is one of ``'baseline'``, ``'hht_v1'``, ``'hht_v2'``,
    ``'ssr'``, ``'indexmac'``.
    """
    from ..kernels.loops import spmspv_accel, spmspv_kernel

    return RunSpec(
        kernel="spmspv", variant=mode,
        rows=size, cols=size, sparsity=float(sparsity),
        vector_sparsity=(
            -1.0 if vector_sparsity is None else float(vector_sparsity)
        ),
        matrix_seed=matrix_seed, vector_seed=vector_seed,
        config=_default_config_items(
            config, vlmax, n_buffers, accel=spmspv_accel(mode),
            kernel=partial(spmspv_kernel, mode=mode),
        ),
        verify=verify,
    )


def programmable_spec(
    shape: tuple[int, int], sparsity: float, *, format_name: str,
    matrix_seed: int = 0, vector_seed: int = 1,
    vlmax: int | None = None, n_buffers: int | None = None,
    config: SystemConfig | None = None, verify: bool = True,
) -> RunSpec:
    """Programmable-HHT SpMV point running *format_name* firmware."""
    from ..kernels.loops import programmable_consumer

    rows, cols = shape
    return RunSpec(
        kernel="spmv_programmable", variant=format_name,
        rows=rows, cols=cols, sparsity=float(sparsity),
        matrix_seed=matrix_seed, vector_seed=vector_seed,
        config=_default_config_items(
            config, vlmax, n_buffers, accel="hht",
            kernel=partial(programmable_consumer, format_name),
        ),
        verify=verify,
    )


def corpus_spec(
    name: str, *, hht: bool, vector_seed: int = 0,
    vlmax: int | None = None, n_buffers: int | None = None,
    config: SystemConfig | None = None, verify: bool = True,
) -> RunSpec:
    """SpMV point on a bundled .mtx corpus matrix."""
    return RunSpec(
        kernel="spmv", variant="hht" if hht else "baseline",
        workload="corpus", name=name, vector_seed=vector_seed,
        config=_default_config_items(
            config, vlmax, n_buffers, accel="hht" if hht else None,
        ),
        verify=verify,
    )


def dnn_spec(
    network: str, *, hht: bool, rows: int | None = None,
    matrix_seed: int = 0, vector_seed: int = 1,
    vlmax: int | None = None, n_buffers: int | None = None,
    config: SystemConfig | None = None, verify: bool = True,
) -> RunSpec:
    """SpMV point on one Fig. 9 DNN fully-connected layer."""
    return RunSpec(
        kernel="spmv", variant="hht" if hht else "baseline",
        workload="dnn", name=network, dnn_rows=rows or 0,
        matrix_seed=matrix_seed, vector_seed=vector_seed,
        config=_default_config_items(
            config, vlmax, n_buffers, accel="hht" if hht else None,
        ),
        verify=verify,
    )


# ---------------------------------------------------------------------------
# The executor (module-level so ProcessPoolExecutor can pickle it)
# ---------------------------------------------------------------------------
def execute(spec: RunSpec) -> RunSummary:
    """Run one spec end to end; deterministic in the spec alone."""
    # Late imports: repro.analysis imports repro.exec at module load, so
    # the reverse edge must not exist at import time.
    from ..analysis.runners import run_spmspv, run_spmv, run_spmv_programmable
    from ..workloads.dnn import get_layer
    from ..workloads.mtx_corpus import load_corpus_matrix
    from ..workloads.synthetic import (
        random_csr,
        random_dense_vector,
        random_sparse_vector,
    )

    cfg = thaw_config(spec.config) if spec.config else SystemConfig.paper_table1()

    if spec.workload == "synthetic":
        matrix = random_csr(
            (spec.rows, spec.cols), spec.sparsity, seed=spec.matrix_seed
        )
    elif spec.workload == "corpus":
        matrix = load_corpus_matrix(spec.name)
    else:  # dnn
        matrix = get_layer(spec.name).weights(
            seed=spec.matrix_seed, rows=spec.dnn_rows or None
        )

    if spec.kernel == "spmspv":
        vs = spec.vector_sparsity if spec.vector_sparsity >= 0 else spec.sparsity
        sv = random_sparse_vector(matrix.ncols, vs, seed=spec.vector_seed)
        return run_spmspv(
            matrix, sv, mode=spec.variant, verify=spec.verify, config=cfg,
        )
    v = random_dense_vector(matrix.ncols, seed=spec.vector_seed)
    if spec.kernel == "spmv":
        return run_spmv(
            matrix, v,
            accel=None if spec.variant == "baseline" else spec.variant,
            verify=spec.verify, config=cfg,
        )
    return run_spmv_programmable(
        matrix, v, format_name=spec.variant, verify=spec.verify, config=cfg,
    )
