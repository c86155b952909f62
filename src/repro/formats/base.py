"""Common infrastructure for sparse matrix representations.

The paper (Section 1) surveys the compressed representations that sparse
kernels consume.  This package implements the four the simulated system
reads: CSR (the ASIC HHT's engines and the CSR firmware), and COO,
bit-vectors and hierarchical bit vectors (SMASH), which the
programmable HHT's firmwares walk.  Every concrete format derives from
:class:`SparseFormat` so that the conversion machinery in
:mod:`repro.formats.convert`, the memory-image loaders of
:class:`repro.system.Soc` and the tests can treat them uniformly.

All formats store 32-bit element types (``float32`` values, ``int32``
indices) to match the paper's system configuration (Table 1: SEW = 32 bit,
32-bit RISC-V base architecture).
"""

from __future__ import annotations

import abc
from typing import ClassVar

import numpy as np

#: Value dtype used throughout the reproduction (Table 1: SEW = 32 bit).
VALUE_DTYPE = np.float32
#: Index dtype used throughout the reproduction (32-bit architecture).
INDEX_DTYPE = np.int32
#: Size in bytes of one matrix/vector element or index word.
WORD_BYTES = 4


class SparseFormatError(ValueError):
    """Raised when a sparse representation is structurally invalid."""


def as_value_array(values, *, name: str = "values") -> np.ndarray:
    """Coerce *values* to a contiguous 1-D ``float32`` array."""
    arr = np.ascontiguousarray(values, dtype=VALUE_DTYPE)
    if arr.ndim != 1:
        raise SparseFormatError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def as_index_array(indices, *, name: str = "indices") -> np.ndarray:
    """Coerce *indices* to a contiguous 1-D ``int32`` array."""
    arr = np.ascontiguousarray(indices, dtype=INDEX_DTYPE)
    if arr.ndim != 1:
        raise SparseFormatError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def check_shape(shape) -> tuple[int, int]:
    """Validate and normalise a matrix *shape* pair."""
    try:
        nrows, ncols = shape
    except (TypeError, ValueError) as exc:
        raise SparseFormatError(f"shape must be a (rows, cols) pair, got {shape!r}") from exc
    nrows, ncols = int(nrows), int(ncols)
    if nrows < 0 or ncols < 0:
        raise SparseFormatError(f"shape must be non-negative, got {(nrows, ncols)}")
    return nrows, ncols


class SparseFormat(abc.ABC):
    """Abstract base class for all sparse matrix representations.

    Concrete formats expose:

    * ``shape`` — the logical (rows, cols) of the dense matrix,
    * ``nnz`` — the number of explicitly stored non-zero values,
    * ``to_dense()`` / ``from_dense()`` — lossless round-trips,
    * ``storage_bytes()`` — bytes needed by the representation, used to
      reproduce the storage-efficiency arguments of the paper's introduction.
    """

    #: Short lowercase identifier used by the conversion registry.
    format_name: ClassVar[str] = "abstract"

    shape: tuple[int, int]

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    @abc.abstractmethod
    def nnz(self) -> int:
        """Number of explicitly stored non-zero entries."""

    @property
    def sparsity(self) -> float:
        """Fraction of *zero* entries, matching the paper's usage.

        A matrix with ``sparsity == 0.9`` is 90 % zeroes.  Empty matrices
        are defined to have sparsity 1.0.
        """
        total = self.nrows * self.ncols
        if total == 0:
            return 1.0
        return 1.0 - self.nnz / total

    @property
    def density(self) -> float:
        """Fraction of non-zero entries (``1 - sparsity``)."""
        return 1.0 - self.sparsity

    @abc.abstractmethod
    def to_dense(self) -> np.ndarray:
        """Materialise the dense ``float32`` matrix."""

    @classmethod
    @abc.abstractmethod
    def from_dense(cls, dense) -> "SparseFormat":
        """Build the representation from a dense 2-D array."""

    @abc.abstractmethod
    def storage_bytes(self) -> int:
        """Bytes occupied by the representation's arrays (data + metadata)."""

    @abc.abstractmethod
    def validate(self) -> None:
        """Raise :class:`SparseFormatError` if internally inconsistent."""

    # ------------------------------------------------------------------
    # Generic helpers shared by all formats
    # ------------------------------------------------------------------
    def dense_bytes(self) -> int:
        """Bytes the equivalent *dense* matrix would occupy."""
        return self.nrows * self.ncols * WORD_BYTES

    def compression_ratio(self) -> float:
        """``dense_bytes / storage_bytes`` — > 1 means the format saves space."""
        stored = self.storage_bytes()
        if stored == 0:
            return float("inf")
        return self.dense_bytes() / stored

    def allclose(self, other: "SparseFormat | np.ndarray", *, atol: float = 0.0) -> bool:
        """Compare logical contents with another format or dense array."""
        mine = self.to_dense()
        theirs = other.to_dense() if isinstance(other, SparseFormat) else np.asarray(other)
        if mine.shape != theirs.shape:
            return False
        return np.allclose(mine, theirs, atol=atol, rtol=0.0)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} shape={self.shape} nnz={self.nnz} "
            f"sparsity={self.sparsity:.3f}>"
        )


def dense_from_input(dense) -> np.ndarray:
    """Validate and coerce a user-supplied dense matrix to 2-D ``float32``."""
    arr = np.ascontiguousarray(dense, dtype=VALUE_DTYPE)
    if arr.ndim != 2:
        raise SparseFormatError(f"dense matrix must be 2-D, got shape {arr.shape}")
    return arr
