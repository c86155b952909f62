"""Hierarchical bit-vector representation in the style of SMASH [21].

SMASH compresses the non-zero bitmap itself: the flattened matrix is
divided into regions; a top-level bitmap marks regions containing at least
one non-zero, and each set bit owns a child bitmap one level down.  Only
children of *set* bits are stored, so deeply sparse matrices pay almost no
metadata.  Locating the value for a logical position requires walking the
hierarchy and popcounting along the way — the "complicated indexing" the
paper's Section 6 says makes the HHT work harder than the CPU.

Layout (all little-endian bit order within a level's bit string):

* ``levels[0]`` — ``ceil(total / fanout**(depth-1))`` bits, always dense.
* ``levels[k]`` — ``fanout`` bits for every set bit of ``levels[k-1]``,
  stored in set-bit order.
* ``vals`` — non-zero values in flattened row-major order.
"""

from __future__ import annotations

import numpy as np

from .base import (
    VALUE_DTYPE,
    WORD_BYTES,
    SparseFormat,
    SparseFormatError,
    as_value_array,
    check_shape,
    dense_from_input,
)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack booleans into uint32 words (little-endian bit order)."""
    nwords = (bits.size + 31) // 32
    padded = np.zeros(nwords * 32, dtype=bool)
    padded[: bits.size] = bits
    words = np.zeros(nwords, dtype=np.uint32)
    for b in range(32):
        words |= padded[b::32].astype(np.uint32) << np.uint32(b)
    return words


class SMASHMatrix(SparseFormat):
    """Hierarchical (SMASH-style) bitmap sparse matrix."""

    format_name = "smash"

    def __init__(self, shape, fanout, level_bits, vals, *, check: bool = True):
        """``level_bits`` is a list of boolean arrays, coarsest first."""
        self.shape = check_shape(shape)
        self.fanout = int(fanout)
        if self.fanout < 2:
            raise SparseFormatError(f"fanout must be >= 2, got {fanout}")
        self.level_bits = [np.asarray(b, dtype=bool) for b in level_bits]
        self.vals = as_value_array(vals, name="vals")
        if check:
            self.validate()

    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense, *, fanout: int = 32, depth: int = 2) -> "SMASHMatrix":
        arr = dense_from_input(dense)
        if depth < 1:
            raise SparseFormatError(f"depth must be >= 1, got {depth}")
        total = arr.size
        mask = (arr != 0).ravel()

        # Build dense per-level masks bottom-up: dense_levels[-1] is the
        # element mask, each level above ORs fanout children.
        dense_levels = [mask]
        for _ in range(depth - 1):
            child = dense_levels[0]
            nparent = (child.size + fanout - 1) // fanout
            padded = np.zeros(nparent * fanout, dtype=bool)
            padded[: child.size] = child
            dense_levels.insert(0, padded.reshape(nparent, fanout).any(axis=1))

        # Compress: level 0 stays dense; below, keep only children of set bits.
        level_bits = [dense_levels[0]]
        for k in range(1, depth):
            parent_dense = dense_levels[k - 1]
            child_dense = dense_levels[k]
            nchild = parent_dense.size * fanout
            padded = np.zeros(nchild, dtype=bool)
            padded[: child_dense.size] = child_dense
            groups = padded.reshape(parent_dense.size, fanout)
            level_bits.append(groups[parent_dense].ravel())

        return cls(arr.shape, fanout, level_bits, arr.ravel()[mask], check=False)

    @property
    def depth(self) -> int:
        return len(self.level_bits)

    @property
    def nnz(self) -> int:
        return int(self.vals.shape[0])

    # ------------------------------------------------------------------
    def _element_mask(self) -> np.ndarray:
        """Reconstruct the flat dense element mask by walking the hierarchy."""
        total = self.nrows * self.ncols
        # Region size covered by one bit of each level.
        region = self.fanout ** (self.depth - 1)
        current = self.level_bits[0]
        # positions[i] = start element offset of current[i]'s region
        positions = np.arange(current.size, dtype=np.int64) * region
        for k in range(1, self.depth):
            region //= self.fanout
            set_idx = np.nonzero(current)[0]
            child = self.level_bits[k].reshape(set_idx.size, self.fanout)
            new_positions = (
                positions[set_idx][:, None]
                + np.arange(self.fanout, dtype=np.int64)[None, :] * region
            )
            current = child.ravel()
            positions = new_positions.ravel()
        mask = np.zeros(total, dtype=bool)
        keep = positions < total
        mask[positions[keep]] = current[keep]
        # A set bit whose position is out of range would be inconsistent.
        if np.any(current[~keep]):
            raise SparseFormatError("set bit beyond matrix extent")
        return mask

    def to_dense(self) -> np.ndarray:
        mask = self._element_mask()
        dense = np.zeros(self.nrows * self.ncols, dtype=VALUE_DTYPE)
        dense[mask] = self.vals
        return dense.reshape(self.shape)

    def storage_bytes(self) -> int:
        meta = sum(_pack(b).size for b in self.level_bits) * WORD_BYTES
        return meta + self.vals.size * WORD_BYTES

    def packed_levels(self) -> list[np.ndarray]:
        """Each level packed into uint32 words (memory-image form)."""
        return [_pack(b) for b in self.level_bits]

    def validate(self) -> None:
        if not self.level_bits:
            raise SparseFormatError("at least one bitmap level is required")
        total = self.nrows * self.ncols
        region = self.fanout ** (self.depth - 1)
        expected_top = (total + region - 1) // region if total else 0
        if self.level_bits[0].size != max(expected_top, 0):
            raise SparseFormatError(
                f"top level must have {expected_top} bits, got {self.level_bits[0].size}"
            )
        for k in range(1, self.depth):
            parents_set = int(self.level_bits[k - 1].sum())
            if self.level_bits[k].size != parents_set * self.fanout:
                raise SparseFormatError(
                    f"level {k} must have {parents_set * self.fanout} bits "
                    f"(children of set bits), got {self.level_bits[k].size}"
                )
            # Every stored child group must contain at least one set bit,
            # otherwise its parent bit should have been clear.
            if parents_set:
                groups = self.level_bits[k].reshape(parents_set, self.fanout)
                if not np.all(groups.any(axis=1)):
                    raise SparseFormatError(
                        f"level {k} contains an all-zero child group"
                    )
        mask = self._element_mask()
        if int(mask.sum()) != self.vals.size:
            raise SparseFormatError(
                f"bitmap population {int(mask.sum())} does not match "
                f"vals length {self.vals.size}"
            )
