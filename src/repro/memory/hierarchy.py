"""Memory-system timing front door: flat SRAM or L1D-cached.

Both the CPU's bus and the HHT back-end engines charge their memory
timing through one :class:`MemorySystem`.  With ``cache=None`` (the
Table-1 MCU) every access is a port issue; with an L1D configured (the
Section 3.2 high-performance integration) reads go through the cache —
for the CPU *and* the HHT ("HHT will access the cache for fetching
sparse data") — and writes are written through.

Single-word requests (:attr:`MemorySystem.read`/:attr:`~MemorySystem.write`:
scalar loads and stores of the CPU and the helper core, SSR element
fetches, page-table walks) are bound when the system is built: uncached,
they *are* :meth:`MemoryPort.issue`, so each is one call into the port;
cached, they are the L1D's :meth:`~repro.memory.cache.L1Cache.read` and
:meth:`~repro.memory.cache.L1Cache.write`.

Multi-word traffic comes in three shapes, each timed here and nowhere
else: unit-stride burst reads (:attr:`MemorySystem.read_burst`,
:meth:`~MemorySystem.read_seq`),
*pipelined* gathers (element ``i`` presented at ``cycle + step * i`` —
the HHT back-end's V/map/value gathers, variant 1's matched pairs at
``step=2``, IndexMAC) and *chained* gathers (each element presented one
cycle after the previous response — ``vluxei32.v`` on the non-pipelined
vector unit).  On the flat single-bank port with no probe watching, each
shape is one closed-form port update and a gather needs only its
element count; otherwise (banked port, L1D, a probe sink subscribed to
per-request events) it is presented element by element through
:func:`present_pipelined` / :func:`present_chained`.
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
        # The L1D and the bank count are fixed at build, so the flat
        # choice is made once; only a probe sink can arrive later.
        self._flat = cache is None and port.banks == 1
        # Each access path is bound here, once, so a request is one call
        # into the port (uncached) or the L1D:
        #: One word read, ``(addr, cycle, requester) -> completion``.
        self.read = port.issue if cache is None else cache.read
        #: One word write (write-through when cached), same signature.
        self.write = port.issue if cache is None else cache.write
        #: Unit-stride read of ``count >= 1`` words, ``(cycle, count,
        #: requester, addr) -> completion``: the port's own burst when
        #: uncached, else the L1D's line reads.  None of the three is
        #: bound to this object, which would put it in a reference cycle.
        self.read_burst = (port.issue_burst if cache is None
                           else cache.read_lines)

    # ------------------------------------------------------------------
    def _closed_form(self) -> bool:
        """True when the gather closed forms apply: flat single-bank
        port, no L1D, no probe sink watching individual requests."""
        return self._flat and self.port.probe_sink is None

    def gather(self, count: int, addrs: Callable[[], Sequence[int]],
               cycle: int, requester: str, *, step: int = 1) -> int:
        """Pipelined word reads of *count* words, element ``i`` presented
        at ``cycle + step * i``; returns the latest completion.

        The closed form needs only the count, so the element addresses
        are built — by calling *addrs* — only on the per-element path.
        """
        port = self.port
        # _closed_form(), inline: the HHT engines gather once or twice
        # per fill.
        if self._flat and port.probe_sink is None:
            return port.issue_gather(cycle, count, requester, step)
        return present_pipelined(
            lambda addr, at: self.read(addr, at, requester),
            addrs(), cycle, step,
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
        memory-side interface).  Cached:
        :meth:`~repro.memory.cache.L1Cache.read_lines`.
        """
        if words <= 0:
            return cycle
        if self.cache is None:
            slots = (words + words_per_slot - 1) // words_per_slot
            return self.port.issue_burst(
                cycle, slots, requester, addr=addr,
                stride_words=words_per_slot,
            )
        return self.cache.read_lines(cycle, words, requester, addr)
