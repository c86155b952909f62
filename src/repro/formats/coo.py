"""Coordinate-list (COO) representation.

COO stores one ``(row, col, value)`` triple per non-zero.  It is the hub
format of the conversion registry (:mod:`repro.formats.convert`) because
every other representation converts to and from it cheaply, and it is the
natural in-memory form of a parsed Matrix Market file.
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


class COOMatrix(SparseFormat):
    """Coordinate-format sparse matrix (row, col, val triples)."""

    format_name = "coo"

    def __init__(self, shape, row_indices, col_indices, vals, *, check: bool = True):
        self.shape = check_shape(shape)
        self.row_indices = as_index_array(row_indices, name="row_indices")
        self.col_indices = as_index_array(col_indices, name="col_indices")
        self.vals = as_value_array(vals, name="vals")
        if check:
            self.validate()

    @classmethod
    def from_dense(cls, dense) -> "COOMatrix":
        arr = dense_from_input(dense)
        rr, cc = np.nonzero(arr)
        return cls(
            arr.shape,
            rr.astype(INDEX_DTYPE),
            cc.astype(INDEX_DTYPE),
            arr[rr, cc],
            check=False,
        )

    @classmethod
    def from_triples(cls, shape, triples) -> "COOMatrix":
        """Build from an iterable of ``(row, col, value)`` triples."""
        triples = list(triples)
        if not triples:
            return cls(shape, [], [], [], check=True)
        rr, cc, vv = zip(*triples)
        return cls(shape, list(rr), list(cc), list(vv), check=True)

    @property
    def nnz(self) -> int:
        return int(self.vals.shape[0])

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=VALUE_DTYPE)
        # Later duplicates overwrite earlier ones only if we assigned; the
        # canonical form forbids duplicates so accumulate defensively.
        np.add.at(dense, (self.row_indices, self.col_indices), self.vals)
        return dense

    def storage_bytes(self) -> int:
        return (self.row_indices.size + self.col_indices.size + self.vals.size) * WORD_BYTES

    def validate(self) -> None:
        nrows, ncols = self.shape
        n = self.vals.size
        if self.row_indices.size != n or self.col_indices.size != n:
            raise SparseFormatError(
                "row_indices, col_indices and vals must all have equal length, got "
                f"{self.row_indices.size}/{self.col_indices.size}/{n}"
            )
        if n == 0:
            return
        if self.row_indices.min() < 0 or self.row_indices.max() >= nrows:
            raise SparseFormatError(f"row indices out of range for {nrows} rows")
        if self.col_indices.min() < 0 or self.col_indices.max() >= ncols:
            raise SparseFormatError(f"column indices out of range for {ncols} columns")
        keys = self.row_indices.astype(np.int64) * ncols + self.col_indices
        if np.unique(keys).size != n:
            raise SparseFormatError("duplicate (row, col) coordinates are not allowed")

    def sorted_row_major(self) -> "COOMatrix":
        """Return a copy sorted by (row, col) — the canonical ordering."""
        order = np.lexsort((self.col_indices, self.row_indices))
        return COOMatrix(
            self.shape,
            self.row_indices[order],
            self.col_indices[order],
            self.vals[order],
            check=False,
        )
