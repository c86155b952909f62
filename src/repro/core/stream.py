"""CPU-side buffered FIFO streams of the HHT front-end.

Section 3.1: the FE offers a *streaming FIFO interface* — software always
loads from a fixed buffer address; the FE tracks which buffer is being
drained and switches to the next ready buffer; a load that finds no ready
buffer stalls the CPU.

Each back-end fill is staged whole, as one ``(ready_at_cycle, uint32
words)`` entry, and read by slice.  A fill occupies
``ceil(n / buffer_elems)`` buffer slots, and a slot is only recycled when
the CPU has drained every element in it.  The back-end may run ahead
only while a slot is free — with N=1 this forces strict fill/drain
alternation; N=2 gives the paper's double-buffering.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np


class StreamUnderflow(Exception):
    """CPU read past the end of what the back-end will ever produce."""


@dataclass
class StreamStats:
    elements_supplied: int = 0
    reads: int = 0
    cpu_wait_cycles: int = 0


class BufferedStream:
    """One FIFO stream (VVAL, MVAL or COUNT) with buffer-slot accounting."""

    def __init__(self, name: str, n_buffers: int, buffer_elems: int):
        if n_buffers < 1 or buffer_elems < 1:
            raise ValueError("n_buffers and buffer_elems must be >= 1")
        self.name = name
        self.n_buffers = n_buffers
        self.buffer_elems = buffer_elems
        #: Staged fills, oldest first; the CPU has read ``_head`` words
        #: of the oldest.
        self._fills: deque[tuple[int, np.ndarray]] = deque()
        self._head = 0
        #: Staged words not yet read.
        self.unconsumed = 0
        #: Buffer slots holding at least one unread word.
        self.occupied_slots = 0
        self.stats = StreamStats()

    @property
    def has_room(self) -> bool:
        return self.occupied_slots < self.n_buffers

    def push(self, ready_at: int, value_bits: int) -> None:
        """Stage a single element as its own buffer slot (COUNT stream)."""
        self.push_group(ready_at, np.array([value_bits], np.uint32))

    def push_group(self, ready_at: int, values) -> None:
        """Stage one back-end fill; it occupies ceil(n/BLEN) buffer slots.

        A fill larger than one buffer (a long variant-1 row) transiently
        overshoots N — the gate then stays closed until the CPU drains the
        extra slots, which is how the model throttles the back-end.
        """
        words = np.asarray(values, np.uint32)
        n = words.size
        if n == 0:
            return
        self._fills.append((ready_at, words))
        self.unconsumed += n
        self.occupied_slots += -(-n // self.buffer_elems)

    def read(self, count: int) -> tuple[int, np.ndarray] | None:
        """Take up to *count* words from the oldest staged fill (ready or
        not); ``None`` when nothing is staged.

        Returns ``(ready_at, words)`` and recycles every buffer slot the
        read drains completely.
        """
        fills = self._fills
        if not fills:
            return None
        ready, words = fills[0]
        head = self._head
        n = words.size
        blen = self.buffer_elems
        end = head + count
        if end >= n:
            end = n
            fills.popleft()
            self._head = 0
            self.occupied_slots -= -(-n // blen) - head // blen
        else:
            self._head = end
            self.occupied_slots -= end // blen - head // blen
        self.unconsumed -= end - head
        return ready, words[head:end]
