"""Single-kernel run helpers shared by tests, examples and the harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..formats.bitvector import BitVectorMatrix
from ..formats.convert import convert
from ..formats.csr import CSRMatrix
from ..formats.smash import SMASHMatrix
from ..formats.sparse_vector import SparseVector
from ..kernels.firmware import FIRMWARES
from ..kernels.multicore import (
    partition_rows,
    spmspv_multicore_kernel,
    spmv_multicore_kernel,
)
from ..kernels.programmable import SUPPORTED_FORMATS, programmable_consumer
from ..kernels.spmspv import spmspv_kernel
from ..kernels.spmv import spmv_kernel
from ..system.config import SystemConfig, run_config
from ..system.soc import RunResult, Soc


class VerificationError(AssertionError):
    """Simulated kernel output does not match the functional reference."""


#: SpMSpV kernel mode -> accelerator front-end kind it depends on.
_SPMSPV_ACCEL = {"ssr": "ssr", "indexmac": "indexmac"}


@dataclass
class KernelRun:
    """A run's statistics plus its extracted output vector."""

    result: RunResult
    y: np.ndarray

    @property
    def cycles(self) -> int:
        return self.result.cycles


def _make_soc(config: SystemConfig, ram_bytes: int | None) -> Soc:
    if ram_bytes is not None and ram_bytes > config.ram_bytes:
        # Grow-only: the operands must fit, whether the caller supplied
        # the config or not.  RAM capacity never affects timing.
        config.ram_bytes = ram_bytes
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


def run_spmv(
    matrix: CSRMatrix,
    v: np.ndarray,
    *,
    accel: str | None = None,
    vlmax: int | None = None,
    n_buffers: int | None = None,
    verify: bool = True,
    config: SystemConfig | None = None,
) -> KernelRun:
    """Run one SpMV kernel (vectorised iff the config's ``vlmax > 1``).

    ``accel`` selects the front-end by name (``"hht"``, ``"ssr"``,
    ``"indexmac"``, or None for the pure-CPU baseline).  ``vlmax`` and
    ``n_buffers`` shape the default Table-1 system when no ``config`` is
    given.
    """
    config = run_config(config, vlmax=vlmax, n_buffers=n_buffers, accel=accel)
    vector = config.cpu.vlmax > 1
    soc = _make_soc(config, _required_ram(matrix))
    soc.load_csr(matrix)
    soc.load_dense_vector(v)
    soc.allocate_output(matrix.nrows)
    if config.n_cores > 1:
        if accel is not None:
            raise ValueError(
                "multi-core SpMV runs the pure-CPU row-partitioned "
                f"baseline; accel={accel!r} is single-core only"
            )
        for name, value in partition_rows(
            matrix.nrows, config.n_cores
        ).items():
            soc.define_symbol(name, value)
        text = spmv_multicore_kernel(config.n_cores, vector=vector)
    else:
        text = spmv_kernel(accel=accel, vector=vector)
    program = soc.assemble(text)
    result = soc.run(program)
    y = soc.read_output("y", matrix.nrows)
    if verify:
        ref = matrix.to_dense().astype(np.float64) @ np.asarray(v, np.float64)
        if not np.allclose(y, ref, rtol=1e-3, atol=1e-4):
            raise VerificationError("SpMV kernel output mismatch")
    return KernelRun(result, y)


def run_spmv_programmable(
    matrix: CSRMatrix,
    v: np.ndarray,
    *,
    format_name: str = "csr",
    vlmax: int | None = None,
    n_buffers: int | None = None,
    verify: bool = True,
    config: SystemConfig | None = None,
) -> KernelRun:
    """Run SpMV on the *programmable* HHT with format-specific firmware.

    The matrix is converted to the requested representation, its memory
    image is placed in RAM, the matching firmware from
    :mod:`repro.kernels.firmware` is installed on the helper core, and
    the primary CPU runs the uniform count/pair consumer kernel.
    """
    if format_name not in SUPPORTED_FORMATS:
        raise ValueError(
            f"no firmware for format {format_name!r}; supported: "
            f"{SUPPORTED_FORMATS}"
        )
    config = run_config(config, vlmax=vlmax, n_buffers=n_buffers)
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
    program = soc.assemble(
        programmable_consumer(format_name, vector=config.cpu.vlmax > 1)
    )
    result = soc.run(program)
    y = soc.read_output("y", matrix.nrows)
    if verify:
        ref = matrix.to_dense().astype(np.float64) @ np.asarray(v, np.float64)
        if not np.allclose(y, ref, rtol=1e-3, atol=1e-4):
            raise VerificationError(
                f"programmable SpMV ({format_name}) output mismatch"
            )
    return KernelRun(result, y)


def run_spmspv(
    matrix: CSRMatrix,
    sv: SparseVector,
    *,
    mode: str,
    vlmax: int | None = None,
    n_buffers: int | None = None,
    verify: bool = True,
    config: SystemConfig | None = None,
) -> KernelRun:
    """Run one SpMSpV kernel.

    ``mode`` is one of ``'baseline'``, ``'hht_v1'``, ``'hht_v2'``,
    ``'ssr'``, ``'indexmac'``.  ``vlmax`` and ``n_buffers`` shape the
    default Table-1 system when no ``config`` is given.
    """
    config = run_config(
        config, vlmax=vlmax, n_buffers=n_buffers,
        accel=_SPMSPV_ACCEL.get(mode),
    )
    vector = config.cpu.vlmax > 1
    soc = _make_soc(config, _required_ram(matrix, extra_words=3 * sv.n))
    soc.load_csr(matrix)
    soc.load_sparse_vector(sv)
    soc.allocate_output(matrix.nrows)
    if config.n_cores > 1:
        if mode != "baseline":
            raise ValueError(
                "multi-core SpMSpV runs the pure-CPU row-partitioned "
                f"baseline; mode={mode!r} is single-core only"
            )
        for name, value in partition_rows(
            matrix.nrows, config.n_cores
        ).items():
            soc.define_symbol(name, value)
        text = spmspv_multicore_kernel(config.n_cores, vector=vector)
    else:
        text = spmspv_kernel(mode=mode, vector=vector)
    program = soc.assemble(text)
    result = soc.run(program)
    y = soc.read_output("y", matrix.nrows)
    if verify:
        ref = matrix.to_dense().astype(np.float64) @ sv.to_dense().astype(np.float64)
        if not np.allclose(y, ref, rtol=1e-3, atol=1e-4):
            raise VerificationError(f"SpMSpV kernel ({mode}) output mismatch")
    return KernelRun(result, y)
