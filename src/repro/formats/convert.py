"""Conversions between the sparse representations.

A direct fast path exists for the pair the kernels use (COO ↔ CSR);
every other pair routes through dense, so that any format can be
converted to any other.  The registry also backs the round-trip property
tests.
"""

from __future__ import annotations

import numpy as np

from .base import INDEX_DTYPE, SparseFormat, SparseFormatError
from .bitvector import BitVectorMatrix
from .coo import COOMatrix
from .csr import CSRMatrix
from .smash import SMASHMatrix

#: All concrete formats, keyed by their ``format_name``.
FORMATS: dict[str, type[SparseFormat]] = {
    cls.format_name: cls
    for cls in (CSRMatrix, COOMatrix, BitVectorMatrix, SMASHMatrix)
}


def coo_to_csr(coo: COOMatrix) -> CSRMatrix:
    """Direct COO → CSR without materialising the dense matrix."""
    sorted_coo = coo.sorted_row_major()
    nrows, _ = coo.shape
    rows = np.zeros(nrows + 1, dtype=INDEX_DTYPE)
    counts = np.bincount(sorted_coo.row_indices, minlength=nrows)
    np.cumsum(counts, out=rows[1:])
    return CSRMatrix(
        coo.shape, rows, sorted_coo.col_indices, sorted_coo.vals, check=False
    )


def csr_to_coo(csr: CSRMatrix) -> COOMatrix:
    """Direct CSR → COO."""
    row_indices = np.repeat(
        np.arange(csr.nrows, dtype=INDEX_DTYPE), np.diff(csr.rows)
    )
    return COOMatrix(csr.shape, row_indices, csr.cols, csr.vals, check=False)


_DIRECT = {
    ("coo", "csr"): coo_to_csr,
    ("csr", "coo"): csr_to_coo,
}


def convert(matrix: SparseFormat, target: str | type[SparseFormat], **kwargs) -> SparseFormat:
    """Convert *matrix* to the *target* format.

    ``target`` may be a format name ("csr", "coo", ...) or a format class.
    Extra keyword arguments (e.g. ``fanout`` / ``depth`` for SMASH) are
    forwarded to the target's ``from_dense``.
    """
    if isinstance(target, type) and issubclass(target, SparseFormat):
        target_name = target.format_name
        target_cls = target
    else:
        target_name = str(target).lower()
        if target_name not in FORMATS:
            raise SparseFormatError(
                f"unknown target format {target!r}; known: {sorted(FORMATS)}"
            )
        target_cls = FORMATS[target_name]

    if matrix.format_name == target_name and not kwargs:
        return matrix

    direct = _DIRECT.get((matrix.format_name, target_name))
    if direct is not None and not kwargs:
        return direct(matrix)

    return target_cls.from_dense(matrix.to_dense(), **kwargs)
