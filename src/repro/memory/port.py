"""Timing model of a pipelined, optionally banked memory issue port.

Table 1's system has a single on-chip RAM shared by the CPU and the HHT
(Section 3.2: "the BE issues requests to the on-chip RAM via an on-chip
interconnect").  We model the RAM as *pipelined*: each bank accepts at
most one word request per cycle and answers a fixed number of cycles
later.  Both the CPU's load/store unit and the HHT back-end contend for
the same issue slots, which is how memory contention between the two
engines arises.

With ``banks=1`` (the paper's configuration) the port is the classic
single-issue pipe: a request presented at cycle ``t`` issues at
``max(t, next_free_slot)`` and completes ``latency`` cycles after issue.

With ``banks=N`` the RAM is word-interleaved: word address ``w`` lives
in bank ``w % N`` and each bank has its own issue pipe.  Requests to
different banks proceed in parallel; requests to the same bank still
serialise one per cycle.  ``banks=1`` reproduces the single port
bit-identically — the banked path is only taken when ``banks > 1``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ..component import SimComponent, StatsDict

#: ``access(addr, cycle, requester) -> completion``: one word request
#: (:meth:`MemoryPort.issue`, :meth:`~repro.memory.cache.L1Cache.read`).
Access = Callable[[int, int, str], int]


def _elements(addrs, lo: int, count: int) -> list[int]:
    """The *count* addresses of *addrs* (a list or a numpy array) from
    *lo*, as Python ints."""
    chosen = addrs[lo:lo + count]
    return chosen.tolist() if isinstance(chosen, np.ndarray) else chosen


def present_pipelined(access: Access, addrs, lo: int, count: int,
                      cycle: int, requester: str, step: int = 1) -> int:
    """Element-by-element pipelined gather of the *count* addresses of
    *addrs* from *lo*: element ``i`` presented at ``cycle + step * i``;
    returns the latest completion (*cycle* if *count* is 0)."""
    latest = cycle
    for i, addr in enumerate(_elements(addrs, lo, count)):
        done = access(addr, cycle + step * i, requester)
        if done > latest:
            latest = done
    return latest


def present_chained(access: Access, addrs: Sequence[int], cycle: int,
                    requester: str) -> int:
    """Element-by-element chained gather: each element presented one
    cycle after the previous response; returns the cycle after the last
    response (*cycle* if *addrs* is empty)."""
    for addr in addrs:
        cycle = access(addr, cycle, requester) + 1
    return cycle


@dataclass
class PortStats:
    """Counters accumulated by a :class:`MemoryPort`.

    Every request takes one issue slot and belongs to one requester, so
    the request and busy-slot totals are derived from ``by_requester``.
    """

    queue_cycles: int = 0  # cycles requests spent waiting for an issue slot
    by_requester: dict[str, int] = field(default_factory=dict)

    @property
    def requests(self) -> int:
        return sum(self.by_requester.values())

    @property
    def busy_cycles(self) -> int:
        """Issue slots consumed (bank-cycles of occupancy)."""
        return self.requests


class MemoryPort(SimComponent):
    """Pipelined issue port: 1 request/bank/cycle, fixed response latency.

    Every multi-word shape has its own method with a closed form on the
    single-bank pipe: :meth:`issue_seq` (a unit-stride read),
    :meth:`issue_gather` (a pipelined gather) and :meth:`issue_chain` (a
    chained gather).  On a banked port, or while a probe sink watches
    individual requests, the gathers present their elements one by one
    through :meth:`issue` instead, with the same result.
    """

    def __init__(self, latency: int = 2, name: str = "ram", banks: int = 1):
        if latency < 1:
            raise ValueError(f"latency must be >= 1, got {latency}")
        if banks < 1:
            raise ValueError(f"banks must be >= 1, got {banks}")
        super().__init__(name)
        self.latency = int(latency)
        self.banks = int(banks)
        self._bank_free = [0] * self.banks
        self._bank_requests = [0] * self.banks
        self.counters = PortStats()
        # Event sink installed by a SimSession when a probe subscribed
        # to port_issue events; None costs one test per issue.  The
        # session owns the lifecycle, so reset() leaves it alone.
        self.probe_sink = None

    def _reset_local(self) -> None:
        self._bank_free = [0] * self.banks
        self._bank_requests = [0] * self.banks
        self.counters = PortStats()

    def _local_stats(self) -> StatsDict:
        c = self.counters
        requests = c.requests
        out: StatsDict = {
            "requests": requests,
            "queue_cycles": c.queue_cycles,
            "busy_cycles": requests,
        }
        for requester, n in c.by_requester.items():
            out[f"requester.{requester}"] = n
        if self.banks > 1:
            for i, n in enumerate(self._bank_requests):
                out[f"bank{i}.requests"] = n
        return out

    @property
    def next_free_slot(self) -> int:
        """Earliest cycle with every bank free (the single-bank pipe head)."""
        return max(self._bank_free)

    def bank_of(self, addr: int) -> int:
        """Word-interleaved mapping: word address modulo the bank count."""
        return (addr >> 2) % self.banks

    def issue(self, addr: int, cycle: int, requester: str = "cpu") -> int:
        """Issue one word request for *addr* at *cycle*; return its
        completion cycle.

        The signature is :meth:`L1Cache.read`'s, so an uncached
        :class:`MemorySystem` binds its word reads and writes to this
        method and a single-word request is one call.
        """
        free = self._bank_free
        if self.banks == 1:
            bank = 0
        else:
            bank = (addr >> 2) % self.banks
            self._bank_requests[bank] += 1
        head = free[bank]
        slot = cycle if cycle >= head else head
        free[bank] = slot + 1
        c = self.counters
        c.queue_cycles += slot - cycle
        by = c.by_requester
        by[requester] = by.get(requester, 0) + 1
        sink = self.probe_sink
        if sink is not None:
            sink.port_issue(self.name, requester, slot, 1, slot - cycle)
        return slot + self.latency

    def issue_seq(self, addr: int, words: int, cycle: int,
                  requester: str = "cpu", words_per_slot: int = 1) -> int:
        """Sequential read of *words* words from *addr*; returns the
        completion cycle of the last beat, or *cycle* when *words* <= 0.

        The read is a burst of ``ceil(words / words_per_slot)`` beats:
        one word each for a vector load, or one wide memory-side HHT
        beat each.  Beat ``i`` wants to issue at ``cycle + i`` and covers
        the words from ``addr + 4 * i * words_per_slot``.  On a banked
        port consecutive beats fall in different banks and can catch up
        after a head-of-burst stall; on the single port they stream one
        per cycle behind the head beat.
        """
        if words <= 0:
            return cycle
        count = -(-words // words_per_slot)
        by = self.counters.by_requester
        if self.banks == 1:
            free = self._bank_free
            slot = cycle if cycle >= free[0] else free[0]
            free[0] = slot + count
            waited = slot - cycle
            # Every beat waits as long as the head beat: beat i wants
            # cycle+i and issues at slot+i.
            self.counters.queue_cycles += waited * count
            by[requester] = by.get(requester, 0) + count
            sink = self.probe_sink
            if sink is not None:
                sink.port_issue(self.name, requester, slot, count, waited)
            return slot + count - 1 + self.latency
        free = self._bank_free
        word0 = addr >> 2
        sink = self.probe_sink
        last_slot = cycle
        waited = 0
        for i in range(count):
            bank = (word0 + i * words_per_slot) % self.banks
            desired = cycle + i
            slot = desired if desired >= free[bank] else free[bank]
            free[bank] = slot + 1
            self._bank_requests[bank] += 1
            waited += slot - desired
            if sink is not None:
                sink.port_issue(self.name, requester, slot, 1, slot - desired)
            if slot > last_slot:
                last_slot = slot
        self.counters.queue_cycles += waited
        by[requester] = by.get(requester, 0) + count
        return last_slot + self.latency

    # ------------------------------------------------------------------
    # The two indexed-gather shapes.  Each closed form equals *count*
    # :meth:`issue` calls at the presentation times below — same
    # completion, slot state and counters — on one bank; on a banked
    # port, or while a probe sink watches individual requests, the
    # elements are presented one by one through :meth:`issue` instead.
    # ------------------------------------------------------------------
    def issue_gather(self, addrs, lo: int, count: int, cycle: int,
                     requester: str = "cpu", step: int = 1) -> int:
        """Pipelined gather of the *count* addresses of *addrs* (a list
        or a numpy array) from *lo*: element ``i`` presented at
        ``cycle + step * i``; returns the last (and latest) completion,
        or *cycle* when *count* is 0.

        With the pipe free from ``F``, element ``i`` issues at
        ``max(cycle + step*i, F + i)`` and waits
        ``max(0, F - cycle - (step - 1) * i)`` cycles: a backlog the
        gather drains by ``step - 1`` cycles per element.  The closed
        form needs only the count, never the addresses.
        """
        if self.probe_sink is not None or self.banks > 1:
            return present_pipelined(self.issue, addrs, lo, count, cycle,
                                     requester, step)
        if count <= 0:
            return cycle
        free = self._bank_free
        backlog = free[0] - cycle
        last = cycle + step * (count - 1)
        if backlog <= 0:
            waited = 0
        else:
            last = max(last, free[0] + count - 1)
            drain = step - 1
            # Elements that wait: all of them on a step-1 gather, else
            # those presented before the backlog has drained.
            waits = count if drain == 0 else min(count, -(-backlog // drain))
            waited = waits * backlog - drain * waits * (waits - 1) // 2
        free[0] = last + 1
        c = self.counters
        c.queue_cycles += waited
        by = c.by_requester
        by[requester] = by.get(requester, 0) + count
        return last + self.latency

    def issue_chain(self, addrs: Sequence[int], cycle: int,
                    requester: str = "cpu") -> int:
        """Chained gather of *addrs*: each element presented one cycle
        after the previous response (the first at *cycle*); returns the
        cycle after the last response, or *cycle* when there is none.

        Only the head element can queue: every later one arrives
        ``latency + 1`` cycles after its predecessor issued, when the
        pipe is long free.
        """
        if self.probe_sink is not None or self.banks > 1:
            return present_chained(self.issue, addrs, cycle, requester)
        count = len(addrs)
        if not count:
            return cycle
        free = self._bank_free
        head = cycle if cycle >= free[0] else free[0]
        last = head + (self.latency + 1) * (count - 1)
        free[0] = last + 1
        c = self.counters
        c.queue_cycles += head - cycle
        by = c.by_requester
        by[requester] = by.get(requester, 0) + count
        return last + self.latency + 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MemoryPort {self.name!r} latency={self.latency} "
            f"banks={self.banks} next_free={self.next_free_slot} "
            f"requests={self.counters.requests}>"
        )
