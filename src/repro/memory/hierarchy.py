"""Memory-system timing front door: flat SRAM or L1D-cached.

Both the CPU's bus and the HHT back-end engines charge their memory
timing through one :class:`MemorySystem`.  With ``cache=None`` (the
Table-1 MCU) every access is a port issue; with an L1D configured (the
Section 3.2 high-performance integration) reads go through the cache —
for the CPU *and* the HHT ("HHT will access the cache for fetching
sparse data") — and writes are written through.

Multi-word traffic comes in three shapes, each timed here and nowhere
else: unit-stride bursts (:meth:`MemorySystem.read_seq` /
:meth:`~MemorySystem.write_seq`), *pipelined* gathers (element ``i``
presented at ``cycle + step * i`` — the HHT back-end's V/map/value
gathers, variant 1's matched pairs at ``step=2``, IndexMAC) and
*chained* gathers (each element presented one cycle after the previous
response — ``vluxei32.v`` on the non-pipelined vector unit).  On the
flat single-bank port with no probe watching, each shape is one
closed-form port update; otherwise (banked port, L1D, a probe sink
subscribed to per-request events) it is presented element by element
through :func:`present_pipelined` / :func:`present_chained`.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from ..component import SimComponent
from .cache import L1Cache
from .port import MemoryPort


#: ``access(addr, cycle) -> completion``: one word request.
Access = Callable[[int, int], int]


def present_pipelined(access: Access, addrs: Sequence[int], cycle: int,
                      step: int = 1) -> int:
    """Element-by-element pipelined gather: element ``i`` presented at
    ``cycle + step * i``; returns the latest completion (*cycle* if
    *addrs* is empty)."""
    latest = cycle
    for i, addr in enumerate(addrs):
        done = access(addr, cycle + step * i)
        if done > latest:
            latest = done
    return latest


def present_chained(access: Access, addrs: Sequence[int], cycle: int) -> int:
    """Element-by-element chained gather: each element presented one
    cycle after the previous response; returns the cycle after the last
    response (*cycle* if *addrs* is empty)."""
    for addr in addrs:
        cycle = access(addr, cycle) + 1
    return cycle


class MemorySystem(SimComponent):
    """Address-aware timing facade over the port and the optional L1D.

    As a component the facade is *transparent* (empty name): the port
    and cache appear in the registry under their own names
    (``...ram.*`` / ``...l1d.*``) with no extra path segment.
    """

    def __init__(self, port: MemoryPort, cache: L1Cache | None = None):
        super().__init__("")
        self.port = port
        self.cache = cache
        self.add_child(port)
        if cache is not None:
            self.add_child(cache)

    # ------------------------------------------------------------------
    def read(self, addr: int, cycle: int, requester: str) -> int:
        """One word read; returns the completion cycle."""
        if self.cache is None:
            return self.port.issue(cycle, requester, addr)
        return self.cache.read(addr, cycle, requester)

    def write(self, addr: int, cycle: int, requester: str) -> int:
        """One word write (write-through when cached)."""
        if self.cache is None:
            return self.port.issue(cycle, requester, addr)
        return self.cache.write(addr, cycle, requester)

    def _closed_form(self) -> bool:
        """True when the gather closed forms apply: flat single-bank
        port, no L1D, no probe sink watching individual requests."""
        port = self.port
        return (self.cache is None and port.banks == 1
                and port.probe_sink is None)

    def gather(self, addrs: Sequence[int], cycle: int, requester: str, *,
               step: int = 1) -> int:
        """Pipelined word reads of *addrs*, element ``i`` presented at
        ``cycle + step * i``; returns the latest completion."""
        if self._closed_form():
            return self.port.issue_gather(cycle, len(addrs), requester, step)
        return present_pipelined(
            lambda addr, at: self.read(addr, at, requester),
            addrs, cycle, step,
        )

    def gather_chain(self, addrs: Sequence[int], cycle: int,
                     requester: str) -> int:
        """Chained word reads of *addrs*; returns the cycle after the
        last response."""
        if self._closed_form():
            return self.port.issue_chain(cycle, len(addrs), requester)
        return present_chained(
            lambda addr, at: self.read(addr, at, requester), addrs, cycle,
        )

    def read_seq(
        self, addr: int, words: int, cycle: int, requester: str,
        *, words_per_slot: int = 1,
    ) -> int:
        """Sequential read of *words* 32-bit words starting at *addr*.

        Uncached: a pipelined burst (optionally wide — the HHT's
        memory-side interface).  Cached: one cache access per line the
        range touches, issued back to back; the line fills themselves
        serialise on the memory port.
        """
        if words <= 0:
            return cycle
        if self.cache is None:
            slots = (words + words_per_slot - 1) // words_per_slot
            return self.port.issue_burst(
                cycle, slots, requester, addr=addr,
                stride_words=words_per_slot,
            )
        line = self.cache.config.line_bytes
        first = addr - (addr % line)
        last = addr + 4 * words - 1
        completion = cycle
        t = cycle
        while first <= last:
            completion = max(completion, self.cache.read(first, t, requester))
            t += 1  # one lookup per cycle
            first += line
        return completion

    def write_seq(self, addr: int, words: int, cycle: int, requester: str) -> int:
        """Sequential write of *words* words (write-through when cached)."""
        if words <= 0:
            return cycle
        if self.cache is None:
            return self.port.issue_burst(cycle, words, requester, addr=addr)
        completion = cycle
        for i in range(words):
            completion = self.cache.write(addr + 4 * i, cycle + i, requester)
        return completion
