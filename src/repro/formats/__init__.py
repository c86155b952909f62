"""Sparse data representations the simulated kernels and firmwares read.

Public API::

    from repro.formats import (
        CSRMatrix, COOMatrix, BitVectorMatrix, SMASHMatrix, SparseVector,
        convert, read_mtx, write_mtx,
    )
"""

from .base import (
    INDEX_DTYPE,
    VALUE_DTYPE,
    WORD_BYTES,
    SparseFormat,
    SparseFormatError,
)
from .bitvector import BitVectorMatrix
from .convert import FORMATS, convert
from .coo import COOMatrix
from .csr import CSRMatrix
from .mtx import MatrixMarketError, read_mtx, write_mtx
from .smash import SMASHMatrix
from .sparse_vector import SparseVector

__all__ = [
    "INDEX_DTYPE",
    "VALUE_DTYPE",
    "WORD_BYTES",
    "SparseFormat",
    "SparseFormatError",
    "CSRMatrix",
    "COOMatrix",
    "BitVectorMatrix",
    "SMASHMatrix",
    "SparseVector",
    "FORMATS",
    "convert",
    "MatrixMarketError",
    "read_mtx",
    "write_mtx",
]
