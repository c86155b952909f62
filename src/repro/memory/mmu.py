"""Optional per-core virtual-memory model: TLB + page-table walker.

The paper's system runs bare-metal on physical addresses, but the
ROADMAP's contention studies ask the AraOS question (arxiv 2504.10345):
*what does virtual memory cost a core that feeds a shared memory port?*
This module answers it as a timing overlay:

* Translation is **identity-mapped** — virtual address == physical
  address — so enabling the MMU never changes functional results, only
  timing.  That keeps every kernel and verification path untouched.
* Each core owns a :class:`Tlb` (fully associative, LRU).  A hit costs
  nothing extra: the lookup is folded into the core's address-generation
  pipeline, which is how small in-order cores hide their L0 TLBs.
* A miss triggers a radix page-table walk of ``walk_levels`` *dependent*
  word reads charged as real requests on the shared RAM port (requester
  ``<core>.ptw``), through the L1D when one is configured.  Walks
  therefore contend with the CPUs and the accelerator back-ends for the
  same issue slots — the whole point of modelling them.
* MMIO addresses bypass translation (device windows are treated as an
  untranslated region, the usual bare-metal-plus-MMU arrangement).

The synthetic page tables live in the top ``walk_levels`` pages of RAM:
level ``i``'s entry for a virtual page number is a deterministic word
address in page ``-(i+1)``.  The addresses only matter for bank mapping
and cache tag state, so this is exact enough for timing while requiring
no functional table contents.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..component import SimComponent, StatsDict
from .bus import load_each
from .hierarchy import MemorySystem, present_chained, present_pipelined


@dataclass
class MmuConfig:
    """Geometry of the per-core TLB and its page-table walker."""

    page_bytes: int = 4096
    tlb_entries: int = 16
    walk_levels: int = 2

    def __post_init__(self) -> None:
        if self.page_bytes < 64 or self.page_bytes & (self.page_bytes - 1):
            raise ValueError(
                f"page_bytes must be a power of two >= 64, got {self.page_bytes}"
            )
        if self.tlb_entries < 1:
            raise ValueError(
                f"tlb_entries must be >= 1, got {self.tlb_entries}"
            )
        if self.walk_levels < 1:
            raise ValueError(
                f"walk_levels must be >= 1, got {self.walk_levels}"
            )

    def to_dict(self) -> dict[str, int]:
        return {
            "page_bytes": self.page_bytes,
            "tlb_entries": self.tlb_entries,
            "walk_levels": self.walk_levels,
        }

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "MmuConfig":
        return cls(**{k: int(v) for k, v in data.items()})


@dataclass
class TlbStats:
    hits: int = 0
    misses: int = 0
    walk_cycles: int = 0
    evictions: int = 0


class Tlb(SimComponent):
    """Fully associative, LRU translation cache with a radix walker.

    Registers under its owning core (``soc.cpuN.tlb.*``).  The walker
    charges its reads through the shared :class:`MemorySystem` with a
    dedicated ``<core>.ptw`` requester label, so per-requester port and
    contention accounting separates walk traffic from demand traffic.
    """

    def __init__(self, config: MmuConfig, mem: MemorySystem,
                 ram_bytes: int, core: str = "cpu"):
        super().__init__("tlb")
        self.config = config
        self.mem = mem
        self.ram_bytes = int(ram_bytes)
        self.core = core
        self.requester = f"{core}.ptw"
        self._page_shift = config.page_bytes.bit_length() - 1
        # Insertion-ordered dict as an LRU: hits re-insert, eviction
        # pops the stalest key.  Deterministic by construction.
        self._entries: dict[int, bool] = {}
        self.counters = TlbStats()
        # Event sink installed by a SimSession when a probe subscribed
        # to tlb_walk events; session-owned lifecycle (reset() leaves
        # it alone), mirroring MemoryPort.probe_sink.
        self.probe_sink = None
        self.publishes_tlb_events = True

    def _reset_local(self) -> None:
        self._entries = {}
        self.counters = TlbStats()

    def _local_stats(self) -> StatsDict:
        c = self.counters
        return {
            "hits": c.hits,
            "misses": c.misses,
            "walks": c.misses,
            "walk_cycles": c.walk_cycles,
            "evictions": c.evictions,
        }

    def _pte_addr(self, vpn: int, level: int) -> int:
        """Deterministic word address of the level-*level* entry.

        Level tables occupy the top pages of RAM; the index is the
        VPN's radix digit for that level (256-entry tables).
        """
        digit = (vpn >> (8 * (self.config.walk_levels - 1 - level))) & 0xFF
        base = self.ram_bytes - (level + 1) * self.config.page_bytes
        return (base + 4 * digit) % self.ram_bytes

    def translate(self, addr: int, cycle: int) -> int:
        """Translate *addr* at *cycle*; return the cycle the (identity)
        physical address is available."""
        entries = self._entries
        vpn = addr >> self._page_shift
        if vpn in entries:
            self.counters.hits += 1
            # LRU touch: re-insert at the young end.
            del entries[vpn]
            entries[vpn] = True
            return cycle
        self.counters.misses += 1
        start = cycle
        for level in range(self.config.walk_levels):
            cycle = self.mem.read(self._pte_addr(vpn, level), cycle,
                                  self.requester)
        self.counters.walk_cycles += cycle - start
        entries[vpn] = True
        if len(entries) > self.config.tlb_entries:
            self.counters.evictions += 1
            del entries[next(iter(entries))]
        sink = self.probe_sink
        if sink is not None:
            sink.tlb_walk(self.core, vpn, self.config.walk_levels,
                          start, cycle)
        return cycle

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Tlb core={self.core!r} entries={len(self._entries)}/"
            f"{self.config.tlb_entries} hits={self.counters.hits} "
            f"misses={self.counters.misses}>"
        )


class TranslatingBus:
    """Identity-mapped translation front for a :class:`Bus`.

    Exposes the exact surface the CPU uses (``load_word`` /
    ``store_word`` / ``load_burst`` / ``store_burst`` / ``gather`` /
    ``gather_chain`` plus the ``ram`` / ``mem`` / ``port`` /
    ``default_requester`` attributes) and charges a TLB lookup per page
    touched before delegating to the wrapped bus.  Gathers translate
    every element at its own presentation time, so they always take the
    per-element path.  MMIO addresses (``addr >= ram.size``) pass
    through untranslated.

    Sub-word accesses reach RAM via the exposed ``mem``/``ram``
    attributes and are charged at demand-word granularity by the CPU
    itself; their pages are effectively covered by the neighbouring
    word traffic, so they skip the extra lookup.

    Not a :class:`SimComponent`: the wrapped bus (and the TLB, as a
    core child) already own the registry entries.
    """

    def __init__(self, bus, tlb: Tlb):
        self._bus = bus
        self.tlb = tlb
        self.ram = bus.ram
        self.mem = bus.mem
        self.port = bus.port
        self.default_requester = bus.default_requester
        self._ram_size = bus.ram.size
        self._page_shift = tlb._page_shift

    @property
    def children(self):
        """Walkable like a component (for bare-CPU sink attachment):
        the TLB plus the wrapped bus subtree."""
        return (self.tlb, self._bus)

    # The MMIO device map lives on the wrapped bus.
    def attach_device(self, base: int, size: int, device) -> None:
        self._bus.attach_device(base, size, device)

    def _find_device(self, addr: int):
        return self._bus._find_device(addr)

    def load_word(self, addr: int, cycle: int,
                  requester: str | None = None):
        if addr < self._ram_size:
            cycle = self.tlb.translate(addr, cycle)
        return self._bus.load_word(addr, cycle, requester)

    def store_word(self, addr: int, value: int, cycle: int,
                   requester: str | None = None) -> int:
        if addr < self._ram_size:
            cycle = self.tlb.translate(addr, cycle)
        return self._bus.store_word(addr, value, cycle, requester)

    def _translate_range(self, addr: int, nbytes: int, cycle: int) -> int:
        """Sequential lookups for every page a burst touches."""
        translate = self.tlb.translate
        shift = self._page_shift
        for vpn in range(addr >> shift, (addr + nbytes - 1 >> shift) + 1):
            cycle = translate(vpn << shift, cycle)
        return cycle

    def load_burst(self, addr: int, count: int, cycle: int,
                   requester: str | None = None):
        if count > 0 and addr < self._ram_size:
            cycle = self._translate_range(addr, 4 * count, cycle)
        return self._bus.load_burst(addr, count, cycle, requester)

    def store_burst(self, addr: int, values, cycle: int,
                    requester: str | None = None) -> int:
        if len(values) and addr < self._ram_size:
            cycle = self._translate_range(addr, 4 * len(values), cycle)
        return self._bus.store_burst(addr, values, cycle, requester)

    def gather(self, addrs, cycle: int, requester: str | None = None, *,
               step: int = 1):
        return load_each(self.load_word, present_pipelined, addrs, cycle,
                         requester, step)

    def gather_chain(self, addrs, cycle: int,
                     requester: str | None = None):
        return load_each(self.load_word, present_chained, addrs, cycle,
                         requester)
