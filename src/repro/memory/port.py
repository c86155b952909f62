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

from dataclasses import dataclass, field

from ..component import SimComponent, StatsDict


@dataclass
class PortStats:
    """Counters accumulated by a :class:`MemoryPort`."""

    requests: int = 0
    queue_cycles: int = 0  # cycles requests spent waiting for an issue slot
    busy_cycles: int = 0   # issue slots consumed (bank-cycles of occupancy)
    by_requester: dict[str, int] = field(default_factory=dict)

    def record(self, requester: str, waited: int) -> None:
        self.requests += 1
        self.queue_cycles += waited
        self.busy_cycles += 1
        self.by_requester[requester] = self.by_requester.get(requester, 0) + 1


class MemoryPort(SimComponent):
    """Pipelined issue port: 1 request/bank/cycle, fixed response latency."""

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
        out: StatsDict = {
            "requests": c.requests,
            "queue_cycles": c.queue_cycles,
            "busy_cycles": c.busy_cycles,
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

    def issue(self, cycle: int, requester: str = "cpu", addr: int = 0) -> int:
        """Issue one word request at *cycle*; return its completion cycle."""
        if self.banks == 1:
            free = self._bank_free
            slot = cycle if cycle >= free[0] else free[0]
            free[0] = slot + 1
            self.counters.record(requester, slot - cycle)
            sink = self.probe_sink
            if sink is not None:
                sink.port_issue(self.name, requester, slot, 1, slot - cycle)
            return slot + self.latency
        bank = (addr >> 2) % self.banks
        free = self._bank_free
        slot = cycle if cycle >= free[bank] else free[bank]
        free[bank] = slot + 1
        self._bank_requests[bank] += 1
        self.counters.record(requester, slot - cycle)
        sink = self.probe_sink
        if sink is not None:
            sink.port_issue(self.name, requester, slot, 1, slot - cycle)
        return slot + self.latency

    def issue_burst(
        self, cycle: int, count: int, requester: str = "cpu",
        addr: int = 0, stride_words: int = 1,
    ) -> int:
        """Issue *count* back-to-back requests; return the completion cycle
        of the last one.

        A burst models a unit-stride vector load/store (or one wide
        memory-side HHT beat per slot when ``stride_words > 1``): beat
        ``i`` wants to issue at ``cycle + i`` and covers the words
        starting at ``addr + 4 * i * stride_words``.  On a banked port
        consecutive beats fall in different banks and can catch up after
        a head-of-burst stall; on the single port they stream one per
        cycle behind the head beat.
        """
        if count <= 0:
            return cycle
        if self.banks == 1:
            free = self._bank_free
            slot = cycle if cycle >= free[0] else free[0]
            free[0] = slot + count
            waited = slot - cycle
            # Every beat waits as long as the head beat: beat i wants
            # cycle+i and issues at slot+i.
            self._record_many(requester, count, waited * count)
            sink = self.probe_sink
            if sink is not None:
                sink.port_issue(self.name, requester, slot, count, waited)
            return slot + count - 1 + self.latency
        counters = self.counters
        free = self._bank_free
        word0 = addr >> 2
        sink = self.probe_sink
        last_slot = cycle
        for i in range(count):
            bank = (word0 + i * stride_words) % self.banks
            desired = cycle + i
            slot = desired if desired >= free[bank] else free[bank]
            free[bank] = slot + 1
            self._bank_requests[bank] += 1
            counters.record(requester, slot - desired)
            if sink is not None:
                sink.port_issue(self.name, requester, slot, 1, slot - desired)
            if slot > last_slot:
                last_slot = slot
        return last_slot + self.latency

    # ------------------------------------------------------------------
    # Closed forms of the two indexed-gather shapes on the single-bank
    # pipe.  Each equals *count* :meth:`issue` calls at the presentation
    # times below — same completion, slot state and counters — and so
    # applies only where nothing observes the individual requests: one
    # bank and no probe sink (:meth:`MemorySystem.gather` checks both).
    # ------------------------------------------------------------------
    def issue_gather(self, cycle: int, count: int, requester: str = "cpu",
                     step: int = 1) -> int:
        """Element ``i`` presented at ``cycle + step * i``; returns the
        last (and latest) completion, or *cycle* when *count* is 0.

        With the pipe free from ``F``, element ``i`` issues at
        ``max(cycle + step*i, F + i)`` and waits
        ``max(0, F - cycle - (step - 1) * i)`` cycles: a backlog the
        gather drains by ``step - 1`` cycles per element.
        """
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
        self._record_many(requester, count, waited)
        return last + self.latency

    def issue_chain(self, cycle: int, count: int,
                    requester: str = "cpu") -> int:
        """Each element presented one cycle after the previous response
        (the first at *cycle*); returns the cycle after the last
        response, or *cycle* when *count* is 0.

        Only the head element can queue: every later one arrives
        ``latency + 1`` cycles after its predecessor issued, when the
        pipe is long free.
        """
        if count <= 0:
            return cycle
        free = self._bank_free
        head = cycle if cycle >= free[0] else free[0]
        last = head + (self.latency + 1) * (count - 1)
        free[0] = last + 1
        self._record_many(requester, count, head - cycle)
        return last + self.latency + 1

    def _record_many(self, requester: str, count: int, waited: int) -> None:
        """Counters of *count* requests that queued *waited* cycles in all."""
        counters = self.counters
        counters.requests += count
        counters.queue_cycles += waited
        counters.busy_cycles += count
        counters.by_requester[requester] = (
            counters.by_requester.get(requester, 0) + count
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<MemoryPort {self.name!r} latency={self.latency} "
            f"banks={self.banks} next_free={self.next_free_slot} "
            f"requests={self.counters.requests}>"
        )
