"""Memory-system timing front door: flat SRAM or L1D-cached.

Both the CPU's bus and the HHT back-end engines charge their memory
timing through one :class:`MemorySystem`.  With ``cache=None`` (the
Table-1 MCU) every access is a port issue; with an L1D configured (the
Section 3.2 high-performance integration) reads go through the cache —
for the CPU *and* the HHT ("HHT will access the cache for fetching
sparse data") — and writes are written through.

Every access shape is bound when the system is built, so a request of
any shape is one call into the component that times it:

* single words (:attr:`~MemorySystem.read`, :attr:`~MemorySystem.write`:
  scalar loads and stores of the CPU and the helper core, SSR element
  fetches, page-table walks);
* unit-stride reads (:attr:`~MemorySystem.read_seq`: vector loads, and
  the HHT's metadata streams, optionally wide);
* *pipelined* gathers (:attr:`~MemorySystem.gather`, element ``i``
  presented at ``cycle + step * i`` — the HHT back-end's V/map/value
  gathers, variant 1's matched pairs at ``step=2``, IndexMAC);
* *chained* gathers (:attr:`~MemorySystem.gather_chain`, each element
  presented one cycle after the previous response — ``vluxei32.v`` on
  the non-pipelined vector unit).

Uncached, each shape *is* the port's own method
(:meth:`MemoryPort.issue`, :meth:`~MemoryPort.issue_seq`,
:meth:`~MemoryPort.issue_gather`, :meth:`~MemoryPort.issue_chain`),
which has a closed form on the single-bank pipe and presents the
elements one by one on a banked port or while a probe sink watches.
Cached, the words are the L1D's, and the gathers present their elements
one by one through :meth:`~repro.memory.cache.L1Cache.read`
(:func:`~repro.memory.port.present_pipelined`,
:func:`~repro.memory.port.present_chained`).
"""

from __future__ import annotations

from functools import partial

from ..component import SimComponent
from .cache import L1Cache
from .port import MemoryPort, present_chained, present_pipelined


class MemorySystem(SimComponent):
    """Address-aware timing facade over the port and the optional L1D.

    As a component the facade is *transparent* (empty name): the port
    and cache appear in the registry under their own names
    (``...ram.*`` / ``...l1d.*``) with no extra path segment.  None of
    its shapes is bound to this object, which would put it in a
    reference cycle.
    """

    def __init__(self, port: MemoryPort, cache: L1Cache | None = None):
        super().__init__("")
        self.port = port
        self.cache = cache
        self.add_child(port)
        if cache is None:
            #: One word read, ``(addr, cycle, requester) -> completion``.
            self.read = port.issue
            #: One word write (write-through when cached), same signature.
            self.write = port.issue
            #: Sequential read, ``(addr, words, cycle, requester,
            #: words_per_slot=1) -> completion`` (*cycle* for no words).
            self.read_seq = port.issue_seq
            #: Pipelined gather of ``count`` addresses of ``addrs`` from
            #: ``lo``, ``(addrs, lo, count, cycle, requester, step=1) ->
            #: latest completion``; the closed form never reads them.
            self.gather = port.issue_gather
            #: Chained gather, ``(addrs, cycle, requester) -> the cycle
            #: after the last response``.
            self.gather_chain = port.issue_chain
        else:
            self.add_child(cache)
            self.read = cache.read
            self.write = cache.write
            self.read_seq = cache.read_lines
            self.gather = partial(present_pipelined, cache.read)
            self.gather_chain = partial(present_chained, cache.read)
