"""Sparse vector representation used by the SpMSpV kernels.

The paper's SpMSpV discussion (Sections 1, 3, 5.1) requires *aligning*
non-zero column indices of the matrix with non-zero indices of the vector.
We store the vector as compressed ``(indices, values)`` pairs plus two
derived structures that the software baseline and the HHT back-end share:

* the **position map** ``map[j] = k + 1`` when ``indices[k] == j`` and 0
  otherwise, and
* the **padded values** array ``vpad = [0.0, values...]``,

so that ``vpad[map[j]]`` yields the vector value at logical index *j* or
0.0 on a miss — two levels of indirection and no branches, which is exactly
the metadata overhead the HHT offloads.
"""

from __future__ import annotations

import numpy as np

from .base import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    WORD_BYTES,
    SparseFormatError,
    as_index_array,
    as_value_array,
)


class SparseVector:
    """Compressed sparse vector with strictly increasing ``int32`` indices."""

    def __init__(self, n: int, indices, values, *, check: bool = True):
        self.n = int(n)
        self.indices = as_index_array(indices, name="indices")
        self.values = as_value_array(values, name="values")
        if check:
            self.validate()

    @classmethod
    def from_dense(cls, dense) -> "SparseVector":
        arr = as_value_array(dense, name="dense vector")
        idx = np.nonzero(arr)[0].astype(INDEX_DTYPE)
        return cls(arr.size, idx, arr[idx], check=False)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @property
    def sparsity(self) -> float:
        """Fraction of zero entries (paper convention)."""
        if self.n == 0:
            return 1.0
        return 1.0 - self.nnz / self.n

    def validate(self) -> None:
        if self.n < 0:
            raise SparseFormatError(f"vector length must be non-negative, got {self.n}")
        if self.indices.size != self.values.size:
            raise SparseFormatError(
                f"indices ({self.indices.size}) and values ({self.values.size}) differ"
            )
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.n:
                raise SparseFormatError(f"indices out of range for length {self.n}")
            if np.any(np.diff(self.indices) <= 0):
                raise SparseFormatError("indices must be strictly increasing")

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.n, dtype=VALUE_DTYPE)
        dense[self.indices] = self.values
        return dense

    def storage_bytes(self) -> int:
        return (self.indices.size + self.values.size) * WORD_BYTES

    # ------------------------------------------------------------------
    # Derived lookup structures shared by software baseline and HHT
    # ------------------------------------------------------------------
    def position_map(self) -> np.ndarray:
        """``map[j] = k + 1`` if ``indices[k] == j`` else 0 (length n, int32)."""
        posmap = np.zeros(self.n, dtype=INDEX_DTYPE)
        posmap[self.indices] = np.arange(1, self.nnz + 1, dtype=INDEX_DTYPE)
        return posmap

    def padded_values(self) -> np.ndarray:
        """``[0.0] + values`` so that ``padded[position_map[j]]`` never branches."""
        return np.concatenate([np.zeros(1, dtype=VALUE_DTYPE), self.values])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SparseVector n={self.n} nnz={self.nnz} sparsity={self.sparsity:.3f}>"
