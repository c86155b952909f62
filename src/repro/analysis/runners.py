"""Single-kernel runs: the one place that builds, loads, assembles and
runs a kernel on a :class:`~repro.system.soc.Soc`.

The sweep executor, the profiler, the ``trace``/``timeline`` commands,
the tests and the examples all run kernels through these three
functions, and every one returns a :class:`~repro.system.soc.RunSummary`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..formats.bitvector import BitVectorMatrix
from ..formats.convert import convert
from ..formats.csr import CSRMatrix
from ..formats.smash import SMASHMatrix
from ..formats.sparse_vector import SparseVector
from ..kernels.firmware import FIRMWARES
from ..kernels.loops import (
    partition_rows,
    programmable_consumer,
    spmspv_accel,
    spmspv_kernel,
    spmspv_multicore_kernel,
    spmv_kernel,
    spmv_multicore_kernel,
)
from ..system.config import SystemConfig, run_config
from ..system.soc import RunSummary, Soc


class VerificationError(AssertionError):
    """Simulated kernel output does not match the functional reference."""


def _make_soc(config: SystemConfig, ram_bytes: int | None) -> Soc:
    if ram_bytes is not None and ram_bytes > config.ram_bytes:
        # Grow-only: the operands must fit, whether the caller supplied
        # the config or not.  RAM capacity never affects timing.  A copy,
        # so a caller's config still keys the system it describes.
        config = replace(config, ram_bytes=ram_bytes)
    return Soc(config)


def _required_ram(matrix: CSRMatrix, extra_words: int = 0) -> int | None:
    """Pick a RAM size: Table 1's 1 MB, grown if the operands don't fit."""
    words = (
        matrix.rows.size + matrix.cols.size + matrix.vals.size
        + 2 * matrix.ncols + matrix.nrows + extra_words
    )
    need = words * 4 + 0x1000
    default = 1 << 20
    if need <= default:
        return None
    size = default
    while size < need:
        size <<= 1
    return size


def _finish(soc: Soc, text: str, name: str, matrix, x, *,
            verify: bool, probes: tuple) -> RunSummary:
    """The shared tail: assemble *text* as program *name* (on a
    multi-core system, with every core's row-block bounds defined), run
    it, read ``y`` and, with *verify*, check it against ``matrix @ x`` in
    float64 (``x`` is the dense or sparse right-hand side)."""
    if soc.config.n_cores > 1:
        for symbol, value in partition_rows(
                matrix.nrows, soc.config.n_cores).items():
            soc.define_symbol(symbol, value)
    summary = soc.run(soc.assemble(text, name=name), probes=probes)
    summary.y = soc.read_output("y", matrix.nrows)
    if verify:
        dense = x.to_dense() if isinstance(x, SparseVector) else x
        ref = matrix.to_dense().astype(np.float64) @ np.asarray(dense, np.float64)
        if not np.allclose(summary.y, ref, rtol=1e-3, atol=1e-4):
            raise VerificationError(f"{name} kernel output mismatch")
    return summary


def run_spmv(
    matrix: CSRMatrix,
    v: np.ndarray,
    *,
    accel: str | None = None,
    vlmax: int | None = None,
    n_buffers: int | None = None,
    verify: bool = True,
    config: SystemConfig | None = None,
    probes: tuple = (),
) -> RunSummary:
    """Run one SpMV kernel (vectorised iff the config's ``vlmax > 1``).

    ``accel`` selects the front-end by name (``"hht"``, ``"ssr"``,
    ``"indexmac"``, or None for the pure-CPU baseline).  ``vlmax`` and
    ``n_buffers`` shape the default Table-1 system when no ``config`` is
    given.  ``probes`` attach to the run as in :meth:`Soc.run`.  The
    program is named ``spmv_<accel>`` (``spmv_baseline`` without one).
    """
    config = run_config(config, vlmax=vlmax, n_buffers=n_buffers, accel=accel)
    vector = config.cpu.vlmax > 1
    # The text comes first, so a selector with no kernel fails before
    # any SoC is built.
    if config.n_cores > 1:
        text = spmv_multicore_kernel(config.n_cores, vector=vector)
    else:
        text = spmv_kernel(accel=accel, vector=vector)
    soc = _make_soc(config, _required_ram(matrix))
    soc.load_csr(matrix)
    soc.load_dense_vector(v)
    soc.allocate_output(matrix.nrows)
    return _finish(soc, text, f"spmv_{accel or 'baseline'}", matrix, v,
                   verify=verify, probes=probes)


def run_spmv_programmable(
    matrix: CSRMatrix,
    v: np.ndarray,
    *,
    format_name: str = "csr",
    vlmax: int | None = None,
    n_buffers: int | None = None,
    verify: bool = True,
    config: SystemConfig | None = None,
    probes: tuple = (),
) -> RunSummary:
    """Run SpMV on the *programmable* HHT with format-specific firmware.

    The matrix is converted to the requested representation, its memory
    image is placed in RAM, the matching firmware from
    :mod:`repro.kernels.firmware` is installed on the helper core, and
    the primary CPU runs the uniform count/pair consumer kernel, named
    ``spmv_programmable_<format_name>``.
    """
    config = run_config(config, vlmax=vlmax, n_buffers=n_buffers, accel="hht")
    text = programmable_consumer(format_name, vector=config.cpu.vlmax > 1)
    soc = _make_soc(config, _required_ram(matrix, extra_words=matrix.nnz))
    if format_name == "csr":
        soc.load_csr(matrix)
    elif format_name == "coo":
        soc.load_coo_image(convert(matrix, "coo"))
    elif format_name == "bitvector":
        soc.load_bitvector_image(
            matrix if isinstance(matrix, BitVectorMatrix)
            else convert(matrix, "bitvector")
        )
    elif format_name == "smash":
        smash = (
            matrix if isinstance(matrix, SMASHMatrix)
            else convert(matrix, "smash", fanout=32, depth=2)
        )
        soc.load_smash_image(smash)
    soc.load_dense_vector(v)
    soc.allocate_output(matrix.nrows)
    soc.hht.load_firmware(FIRMWARES[format_name]())
    return _finish(soc, text, f"spmv_programmable_{format_name}", matrix, v,
                   verify=verify, probes=probes)


def run_spmspv(
    matrix: CSRMatrix,
    sv: SparseVector,
    *,
    mode: str,
    vlmax: int | None = None,
    n_buffers: int | None = None,
    verify: bool = True,
    config: SystemConfig | None = None,
    probes: tuple = (),
) -> RunSummary:
    """Run one SpMSpV kernel, named ``spmspv_<mode>``.

    ``mode`` is one of ``'baseline'``, ``'hht_v1'``, ``'hht_v2'``,
    ``'ssr'``, ``'indexmac'``.  ``vlmax`` and ``n_buffers`` shape the
    default Table-1 system when no ``config`` is given.
    """
    config = run_config(config, vlmax=vlmax, n_buffers=n_buffers,
                        accel=spmspv_accel(mode))
    vector = config.cpu.vlmax > 1
    if config.n_cores > 1:
        text = spmspv_multicore_kernel(config.n_cores, vector=vector)
    else:
        text = spmspv_kernel(mode=mode, vector=vector)
    soc = _make_soc(config, _required_ram(matrix, extra_words=3 * sv.n))
    soc.load_csr(matrix)
    soc.load_sparse_vector(sv)
    soc.allocate_output(matrix.nrows)
    return _finish(soc, text, f"spmspv_{mode}", matrix, sv,
                   verify=verify, probes=probes)
