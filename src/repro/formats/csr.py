"""Compressed Sparse Row (CSR) — the representation the HHT is built around.

The paper's Fig. 1 defines the three arrays:

* ``rows`` (a.k.a. row pointers): ``rows[i]``/``rows[i+1]`` delimit the
  slice of ``cols``/``vals`` belonging to row ``i``; length ``nrows + 1``.
* ``cols``: column indices of the non-zero values, row-major.
* ``vals``: the non-zero values themselves.

Algorithm 1 of the paper (the CSR SpMV loop) runs as simulated kernels
(:mod:`repro.kernels`); :mod:`repro.analysis.runners` checks their
output against a float64 numpy product of :meth:`CSRMatrix.to_dense`.
"""

from __future__ import annotations

import numpy as np

from .base import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    WORD_BYTES,
    SparseFormat,
    SparseFormatError,
    as_index_array,
    as_value_array,
    check_shape,
    dense_from_input,
)


class CSRMatrix(SparseFormat):
    """Compressed sparse row matrix with ``int32`` metadata and ``float32`` data."""

    format_name = "csr"

    def __init__(self, shape, rows, cols, vals, *, check: bool = True):
        self.shape = check_shape(shape)
        self.rows = as_index_array(rows, name="rows")
        self.cols = as_index_array(cols, name="cols")
        self.vals = as_value_array(vals, name="vals")
        if check:
            self.validate()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense) -> "CSRMatrix":
        arr = dense_from_input(dense)
        nrows, ncols = arr.shape
        mask = arr != 0
        row_counts = mask.sum(axis=1, dtype=np.int64)
        rows = np.zeros(nrows + 1, dtype=INDEX_DTYPE)
        np.cumsum(row_counts, out=rows[1:])
        rr, cc = np.nonzero(mask)
        return cls(
            (nrows, ncols),
            rows,
            cc.astype(INDEX_DTYPE),
            arr[rr, cc],
            check=False,
        )

    @classmethod
    def from_arrays(cls, shape, rows, cols, vals) -> "CSRMatrix":
        """Explicit-array constructor (alias of ``__init__`` with checks)."""
        return cls(shape, rows, cols, vals, check=True)

    @classmethod
    def empty(cls, shape) -> "CSRMatrix":
        nrows, _ = check_shape(shape)
        return cls(
            shape,
            np.zeros(nrows + 1, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            np.empty(0, dtype=VALUE_DTYPE),
            check=False,
        )

    # ------------------------------------------------------------------
    # SparseFormat interface
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return int(self.cols.shape[0])

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=VALUE_DTYPE)
        for i in range(self.nrows):
            lo, hi = self.rows[i], self.rows[i + 1]
            dense[i, self.cols[lo:hi]] = self.vals[lo:hi]
        return dense

    def storage_bytes(self) -> int:
        return (self.rows.size + self.cols.size + self.vals.size) * WORD_BYTES

    def validate(self) -> None:
        nrows, ncols = self.shape
        if self.rows.size != nrows + 1:
            raise SparseFormatError(
                f"rows array must have length nrows+1={nrows + 1}, got {self.rows.size}"
            )
        if self.cols.size != self.vals.size:
            raise SparseFormatError(
                f"cols ({self.cols.size}) and vals ({self.vals.size}) lengths differ"
            )
        if nrows and self.rows[0] != 0:
            raise SparseFormatError(f"rows[0] must be 0, got {self.rows[0]}")
        if self.rows.size and self.rows[-1] != self.cols.size:
            raise SparseFormatError(
                f"rows[-1]={self.rows[-1]} must equal nnz={self.cols.size}"
            )
        if np.any(np.diff(self.rows) < 0):
            raise SparseFormatError("row pointers must be non-decreasing")
        if self.cols.size:
            if self.cols.min() < 0 or self.cols.max() >= ncols:
                raise SparseFormatError(
                    f"column indices must be in [0, {ncols}), got range "
                    f"[{self.cols.min()}, {self.cols.max()}]"
                )
        for i in range(nrows):
            seg = self.cols[self.rows[i] : self.rows[i + 1]]
            if seg.size > 1 and np.any(np.diff(seg) <= 0):
                raise SparseFormatError(
                    f"column indices within row {i} must be strictly increasing"
                )

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def row_nnz(self, i: int) -> int:
        """Number of non-zeros in row *i* (Algorithm 1, line 4)."""
        return int(self.rows[i + 1] - self.rows[i])

    def row_slice(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(cols, vals) views for row *i*."""
        lo, hi = self.rows[i], self.rows[i + 1]
        return self.cols[lo:hi], self.vals[lo:hi]

    def iter_rows(self):
        """Yield ``(i, cols, vals)`` per row, skipping nothing."""
        for i in range(self.nrows):
            cols, vals = self.row_slice(i)
            yield i, cols, vals
