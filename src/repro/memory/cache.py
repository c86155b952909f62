"""Timing-only L1 data cache (the paper's Section 3.2 high-performance
integration: "the BE issues requests to the L1D cache. If the request is
a L1D miss, then the usual cache miss processing is carried out").

The cache models *timing and tag state only* — functional data always
lives in :class:`~repro.memory.ram.Ram`, so there are no coherence
hazards to model.  Policy: set-associative, LRU replacement, read
allocate, write-through / no-write-allocate (stores go straight to the
memory port).

A hit answers in ``hit_latency`` cycles.  A miss evicts the LRU way and
streams the line from memory (one port slot per word), answering when
the fill completes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..component import SimComponent, StatsDict
from .port import MemoryPort


@dataclass
class CacheConfig:
    """Geometry and latencies of the L1D."""

    line_bytes: int = 32         # 8 x 32-bit words (one vector register)
    n_sets: int = 64
    assoc: int = 2
    hit_latency: int = 1

    def __post_init__(self) -> None:
        if self.line_bytes < 4 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError(
                f"line_bytes must be a power of two >= 4, got {self.line_bytes}"
            )
        if self.n_sets < 1 or self.n_sets & (self.n_sets - 1):
            raise ValueError(f"n_sets must be a power of two, got {self.n_sets}")
        if self.assoc < 1:
            raise ValueError(f"assoc must be >= 1, got {self.assoc}")
        if self.hit_latency < 1:
            raise ValueError(f"hit_latency must be >= 1, got {self.hit_latency}")

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "CacheConfig":
        return cls(**{k: int(v) for k, v in data.items()})

    @property
    def size_bytes(self) -> int:
        return self.line_bytes * self.n_sets * self.assoc

    @property
    def line_words(self) -> int:
        return self.line_bytes // 4


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    writes: int = 0
    by_requester: dict[str, list[int]] = field(default_factory=dict)

    def record(self, requester: str, hit: bool) -> None:
        entry = self.by_requester.setdefault(requester, [0, 0])
        if hit:
            self.hits += 1
            entry[0] += 1
        else:
            self.misses += 1
            entry[1] += 1

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0


class L1Cache(SimComponent):
    """Set-associative, LRU, read-allocate, write-through timing cache."""

    def __init__(self, config: CacheConfig, port: MemoryPort,
                 name: str = "l1d"):
        super().__init__(name)
        self.config = config
        self.port = port
        # Per set: list of [tag, last_used] ways (timing/tag state only).
        self._sets: list[list[list[int]]] = [[] for _ in range(config.n_sets)]
        self._use_counter = 0
        self.counters = CacheStats()

    def _reset_local(self) -> None:
        self._sets = [[] for _ in range(self.config.n_sets)]
        self._use_counter = 0
        self.counters = CacheStats()

    def _local_stats(self) -> StatsDict:
        c = self.counters
        out: StatsDict = {"hits": c.hits, "misses": c.misses,
                          "writes": c.writes}
        for requester, (hits, misses) in c.by_requester.items():
            out[f"requester.{requester}.hits"] = hits
            out[f"requester.{requester}.misses"] = misses
        return out

    # ------------------------------------------------------------------
    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr // self.config.line_bytes
        return line % self.config.n_sets, line // self.config.n_sets

    def read(self, addr: int, cycle: int, requester: str = "cpu") -> int:
        """Read access; returns the completion cycle (hit or filled miss)."""
        set_idx, tag = self._locate(addr)
        ways = self._sets[set_idx]
        self._use_counter += 1
        for way in ways:
            if way[0] == tag:
                way[1] = self._use_counter
                self.counters.record(requester, hit=True)
                return cycle + self.config.hit_latency
        # Miss: fetch the whole line from memory, then answer.
        self.counters.record(requester, hit=False)
        line_base = addr - addr % self.config.line_bytes
        fill_done = self.port.issue_seq(
            line_base, self.config.line_words, cycle, requester)
        if len(ways) >= self.config.assoc:
            ways.remove(min(ways, key=lambda w: w[1]))  # evict LRU
        ways.append([tag, self._use_counter])
        return fill_done + self.config.hit_latency

    def read_lines(self, addr: int, words: int, cycle: int,
                   requester: str = "cpu", words_per_slot: int = 1) -> int:
        """Sequential read of *words* words from *addr*: one lookup per
        line touched, back to back; the line fills serialise on the
        memory port.  Returns the latest completion (*cycle* for no
        words).  The signature is :meth:`MemoryPort.issue_seq`'s; a
        line lookup reads the whole line, so *words_per_slot* (the
        HHT's memory-side width) changes nothing here."""
        if words <= 0:
            return cycle
        line = self.config.line_bytes
        first = addr - (addr % line)
        last = addr + 4 * words - 1
        completion = cycle
        t = cycle
        while first <= last:
            completion = max(completion, self.read(first, t, requester))
            t += 1  # one lookup per cycle
            first += line
        return completion

    def write(self, addr: int, cycle: int, requester: str = "cpu") -> int:
        """Write-through, no-write-allocate: the word goes to memory."""
        set_idx, tag = self._locate(addr)
        self._use_counter += 1
        for way in self._sets[set_idx]:
            if way[0] == tag:
                way[1] = self._use_counter  # keep the line warm
                break
        self.counters.writes += 1
        return self.port.issue(addr, cycle, requester)

    def contains(self, addr: int) -> bool:
        set_idx, tag = self._locate(addr)
        return any(way[0] == tag for way in self._sets[set_idx])
