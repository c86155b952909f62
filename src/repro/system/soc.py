"""System-on-chip composition: CPU + shared RAM + HHT on one bus.

``Soc`` owns the simulated machine and provides the data-placement and
HHT-programming conveniences the kernels and experiment harness use:

* :meth:`load_csr` / :meth:`load_dense_vector` / :meth:`load_sparse_vector`
  place operand arrays in RAM and record their segments;
* :meth:`symbols` exposes the segment base addresses (plus the HHT MMR
  addresses) to the assembler;
* :meth:`run` executes an assembled program and returns a
  :class:`RunSummary` with the merged CPU/HHT/port statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..accel import BuildContext, front_end
from ..component import (
    SimComponent,
    cache_stats_view,
    hht_stats_view,
    port_requests_view,
    subtree,
)
from ..core.config import HHT_BASE, MMR
from ..core.hht import HHT
from ..cpu.core import TAKEN_BRANCHES, Cpu, CpuStats
from ..formats.csr import CSRMatrix
from ..formats.sparse_vector import SparseVector
from ..isa.assembler import assemble
from ..isa.instructions import CLASS_INDEX
from ..isa.program import Program
from ..memory.bus import Bus
from ..memory.cache import L1Cache
from ..memory.layout import MemoryLayout
from ..memory.mmu import Tlb, TranslatingBus
from ..memory.port import MemoryPort
from ..memory.ram import Ram
from .config import SystemConfig


@dataclass
class RunSummary:
    """The outcome of one kernel run: what ``Soc.run``, the runners in
    :mod:`repro.analysis.runners` and :func:`repro.exec.execute` return.

    Every counter lives in :attr:`stats`, the flat component-tree
    registry (``{"soc.cpu.cycles": ..., "soc.ram.requests": ...}``).
    The per-component shapes (``cpu_stats``, ``hht_stats``,
    ``port_requests``, ``cache_stats``) are *views* derived from the
    registry — there is no duplicate bookkeeping.  ``y`` is the kernel's
    output vector, which the runners read back after the run (None for
    a bare ``Soc.run``).  ``probe_payloads`` holds what probes attached
    to the run published, keyed by probe name; it is not part of the
    JSON form (:meth:`to_json_dict`) the result cache stores.
    """

    cycles: int
    instructions: int
    stats: dict[str, int | float]
    frequency_hz: float
    y: np.ndarray | None = None
    probe_payloads: dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.cycles / self.frequency_hz

    @property
    def cpu_stats(self) -> CpuStats:
        """The CPU's counters rebuilt as a :class:`CpuStats`."""
        sub = subtree(self.stats, "soc.cpu")
        out = CpuStats(
            instructions=int(sub.get("instructions", 0)),
            cycles=int(sub.get("cycles", 0)),
        )
        out.class_n[TAKEN_BRANCHES] = int(sub.get("taken_branches", 0))
        for key, value in sub.items():
            parts = key.split(".")
            if len(parts) != 2:
                continue
            group, leaf = parts
            if group == "class_counts":
                out.class_n[CLASS_INDEX[leaf]] = int(value)
            elif group == "class_cycles":
                out.class_cy[CLASS_INDEX[leaf]] = int(value)
            elif group == "pc_counts":
                out.pc_counts[int(leaf)] = int(value)
            elif group == "pc_cycles":
                out.pc_cycles[int(leaf)] = int(value)
        return out

    @property
    def hht_stats(self) -> dict[str, int]:
        """Legacy snapshot dict, summed over every attached HHT."""
        return hht_stats_view(self.stats)

    @property
    def port_requests(self) -> dict[str, int]:
        return port_requests_view(self.stats)

    @property
    def cache_stats(self) -> dict[str, object] | None:
        """L1D statistics when a cache is configured; None on the MCU."""
        return cache_stats_view(self.stats)

    @property
    def cpu_wait_cycles(self) -> int:
        return self.hht_stats.get("cpu_wait_cycles", 0)

    @property
    def cpu_wait_fraction(self) -> float:
        """Fraction of total execution the CPU idled for the HHT (Figs 6-7)."""
        if self.cycles == 0:
            return 0.0
        return self.cpu_wait_cycles / self.cycles

    @property
    def hht_wait_cycles(self) -> int:
        return self.hht_stats.get("hht_wait_cycles", 0)

    def to_json_dict(self) -> dict[str, object]:
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "stats": dict(self.stats),
            "frequency_hz": self.frequency_hz,
            # float32 values are exactly representable as JSON floats.
            "y": [float(x) for x in self.y],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunSummary":
        return cls(
            cycles=int(data["cycles"]),
            instructions=int(data["instructions"]),
            stats={k: (float(v) if isinstance(v, float) else int(v))
                   for k, v in data["stats"].items()},
            frequency_hz=float(data["frequency_hz"]),
            y=np.asarray(data["y"], dtype=np.float32),
        )


class Soc(SimComponent):
    """The simulated heterogeneous CPU-HHT system.

    The SoC is the root of the component tree::

        soc
        ├── cpu                      (soc.cpu.*; with n_cores > 1 the
        │   └── tlb, if MMU on        cores register as soc.cpu0.* ...
        │                             soc.cpuN-1.*, each with its own
        │                             soc.cpuK.tlb.* when MMU is on)
        ├── bus (transparent)
        │   └── mem (transparent)
        │       ├── ram port         (soc.ram.*)
        │       └── l1d, if cached   (soc.l1d.*)
        └── accelerators             (soc.hht.*, soc.ssr.*, ... — one
                                      node per configured front-end
                                      instance, indexed when count > 1)

    With ``n_cores > 1`` every core owns a bus *view* sharing the same
    RAM, port, L1D and MMIO device map but labelled with its own
    requester ID (``cpu0`` ... — per-core port/contention accounting
    falls out of the existing per-requester counters).  The single-core
    construction path is literally the pre-refactor one, so ``n_cores=1``
    stays bit-identical.

    ``reset()`` propagates to every node; ``stats()`` flattens every
    counter into the registry a :class:`RunSummary` carries.
    """

    def __init__(self, config: SystemConfig | None = None):
        super().__init__("soc")
        self.config = config or SystemConfig()
        self.ram = Ram(self.config.ram_bytes)
        self.port = MemoryPort(
            latency=self.config.ram_latency, banks=self.config.banks
        )
        cache = (
            L1Cache(self.config.cache, self.port)
            if self.config.cache is not None
            else None
        )
        n_cores = self.config.n_cores
        mmu = self.config.mmu
        self.bus = Bus(
            self.ram, self.port,
            default_requester="cpu" if n_cores == 1 else "cpu0",
            cache=cache,
        )
        self.cache = cache
        self.cpus: list[Cpu] = []
        self.tlbs: list[Tlb] = []
        for k in range(n_cores):
            if k == 0:
                bus_k = self.bus
            else:
                # A per-core *view* of the shared memory system: same
                # RAM/port/L1D objects, own requester label.  Not a
                # tree child — the primary bus already registers the
                # port and cache — and the MMIO device and FIFO maps are
                # shared by reference so front-ends attached later are
                # visible from every core.
                bus_k = Bus(self.ram, self.port,
                            default_requester=f"cpu{k}", cache=cache)
                bus_k._devices = self.bus._devices
                bus_k._device_bases = self.bus._device_bases
                bus_k._fifos = self.bus._fifos
            core_name = "cpu" if n_cores == 1 else f"cpu{k}"
            cpu_bus = bus_k
            tlb = None
            if mmu is not None:
                tlb = Tlb(mmu, bus_k.mem, self.config.ram_bytes,
                          core=core_name)
                cpu_bus = TranslatingBus(bus_k, tlb)
            core = Cpu(cpu_bus, self.config.cpu, name=core_name)
            if tlb is not None:
                core.add_child(tlb)
                self.tlbs.append(tlb)
            self.cpus.append(core)
            self.add_child(core)
        self.cpu = self.cpus[0]
        self.add_child(self.bus)
        self.layout = MemoryLayout(self.ram, base=0x100)
        self._symbols: dict[str, int] = {}
        # Accelerator front-ends, built from the config's (possibly
        # implicit) accelerators section through ``front_end``.  MMIO
        # windows are assigned from a cursor starting at the legacy HHT
        # base, so the single-HHT system keeps the paper's addresses,
        # names ("hht" component, "hht" port requester) and unprefixed
        # MMR symbols; extra instances of a kind get an index each, with
        # the first instance keeping the unprefixed symbols.
        self.accelerators: list[SimComponent] = []
        mmio_cursor = HHT_BASE
        for spec in self.config.accelerator_specs():
            fe = front_end(spec.kind)
            for i in range(spec.count):
                name = spec.kind if spec.count == 1 else f"{spec.kind}{i}"
                ctx = BuildContext(
                    config=self.config,
                    spec=spec,
                    index=i,
                    name=name,
                    symbol_prefix=spec.kind if i == 0 else f"{spec.kind}{i}",
                    mmio_base=mmio_cursor,
                    ram=self.ram,
                    bus=self.bus,
                    mem=self.bus.mem,
                    cpu=self.cpu,
                    add_component=self._add_accelerator,
                    symbols=self._symbols,
                )
                claimed = fe.build(ctx)
                if claimed:
                    # Keep legacy spacing: every window spans at least
                    # one HHT region so pre-refactor addresses hold.
                    mmio_cursor += max(int(claimed), MMR.REGION_SIZE)
        self.hhts: list[HHT] = [
            comp for comp in self.accelerators if isinstance(comp, HHT)
        ]
        self.hht = self.hhts[0] if self.hhts else None

    def _add_accelerator(self, component: SimComponent) -> None:
        """Build-context callback: adopt a front-end's component."""
        self.add_child(component)
        self.accelerators.append(component)

    # ------------------------------------------------------------------
    # Data placement
    # ------------------------------------------------------------------
    def place(self, name: str, array: np.ndarray) -> int:
        """Place a 32-bit array in RAM; returns its base address."""
        seg = self.layout.place_array(name, array)
        self._symbols[name] = seg.base
        return seg.base

    def allocate(self, name: str, size_bytes: int) -> int:
        seg = self.layout.allocate(name, size_bytes)
        self._symbols[name] = seg.base
        return seg.base

    def load_csr(self, matrix: CSRMatrix, prefix: str = "m") -> dict[str, int]:
        """Place a CSR matrix's three arrays; returns their base addresses."""
        bases = {
            f"{prefix}_rows": self.place(f"{prefix}_rows", matrix.rows),
            f"{prefix}_cols": self.place(f"{prefix}_cols", matrix.cols),
            f"{prefix}_vals": self.place(f"{prefix}_vals", matrix.vals),
        }
        self._symbols[f"{prefix}_num_rows"] = matrix.nrows
        self._symbols[f"{prefix}_num_cols"] = matrix.ncols
        self._symbols[f"{prefix}_nnz"] = matrix.nnz
        return bases

    def load_dense_vector(self, v: np.ndarray, name: str = "v") -> int:
        return self.place(name, np.ascontiguousarray(v, dtype=np.float32))

    def load_coo_image(self, matrix, prefix: str = "m") -> dict[str, int]:
        """Place a row-major-sorted COO image (programmable-HHT firmware)."""
        sorted_coo = matrix.sorted_row_major()
        bases = {
            f"{prefix}_row_indices": self.place(
                f"{prefix}_row_indices", sorted_coo.row_indices
            ),
            f"{prefix}_col_indices": self.place(
                f"{prefix}_col_indices", sorted_coo.col_indices
            ),
            f"{prefix}_vals": self.place(f"{prefix}_vals", sorted_coo.vals),
        }
        self._symbols[f"{prefix}_num_rows"] = matrix.nrows
        self._symbols[f"{prefix}_num_cols"] = matrix.ncols
        self._symbols[f"{prefix}_nnz"] = matrix.nnz
        return bases

    def load_bitvector_image(self, matrix, prefix: str = "m") -> dict[str, int]:
        """Place a bit-vector image: packed bitmap words + packed values.

        The bit-vector firmware requires ``ncols % 32 == 0`` so rows own
        whole bitmap words.
        """
        if matrix.ncols % 32:
            raise ValueError(
                f"bit-vector firmware needs ncols % 32 == 0, got {matrix.ncols}"
            )
        bases = {
            f"{prefix}_bitmap": self.place(f"{prefix}_bitmap", matrix.bitmap_words),
            f"{prefix}_vals": self.place(f"{prefix}_vals", matrix.vals),
        }
        self._symbols[f"{prefix}_num_rows"] = matrix.nrows
        self._symbols[f"{prefix}_num_cols"] = matrix.ncols
        return bases

    def load_smash_image(self, matrix, prefix: str = "m") -> dict[str, int]:
        """Place a two-level SMASH image (fanout 32) for the firmware."""
        if matrix.depth != 2 or matrix.fanout != 32:
            raise ValueError(
                "SMASH firmware supports depth=2, fanout=32 images; got "
                f"depth={matrix.depth}, fanout={matrix.fanout}"
            )
        if matrix.ncols % 32:
            raise ValueError(
                f"SMASH firmware needs ncols % 32 == 0, got {matrix.ncols}"
            )
        l0, l1 = matrix.packed_levels()
        bases = {
            f"{prefix}_l0": self.place(f"{prefix}_l0", l0),
            f"{prefix}_l1": self.place(f"{prefix}_l1", l1),
            f"{prefix}_vals": self.place(f"{prefix}_vals", matrix.vals),
        }
        self._symbols[f"{prefix}_num_rows"] = matrix.nrows
        self._symbols[f"{prefix}_num_cols"] = matrix.ncols
        return bases

    def load_sparse_vector(self, sv: SparseVector, prefix: str = "sv") -> dict[str, int]:
        """Place indices, padded values and the position map (Section 3's
        SpMSpV metadata); returns the base addresses."""
        bases = {
            f"{prefix}_idx": self.place(f"{prefix}_idx", sv.indices),
            f"{prefix}_vpad": self.place(f"{prefix}_vpad", sv.padded_values()),
            f"{prefix}_map": self.place(f"{prefix}_map", sv.position_map()),
        }
        self._symbols[f"{prefix}_nnz"] = sv.nnz
        return bases

    def allocate_output(self, n: int, name: str = "y") -> int:
        return self.allocate(name, n * 4)

    def define_symbol(self, name: str, value: int) -> int:
        """Define a bare assembler symbol (e.g. a per-core row bound)."""
        self._symbols[name] = int(value)
        return int(value)

    @property
    def symbols(self) -> dict[str, int]:
        """Assembler symbol table: data segments + HHT register addresses."""
        return dict(self._symbols)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def assemble(self, text: str, name: str = "kernel") -> Program:
        return assemble(text, symbols=self.symbols, name=name)

    def run(self, program: Program, entry: int | str | None = None,
            probes: tuple = ()) -> RunSummary:
        """Execute *program* from reset; ``probes`` attach instrumentation
        (see :mod:`repro.instrument`) whose payloads ride home on the
        result.

        With ``n_cores > 1`` every core runs *program* in one
        interleaved session; a core starts at the ``core{k}`` label when
        the program defines one (the row-partitioned kernels do),
        otherwise at the common *entry*.  ``cycles`` is then the slowest
        core's clock and ``instructions`` the total retired.
        """
        from ..instrument.session import MultiCoreSession, SimSession

        self.reset()  # whole component tree: CPU, port, cache tags, HHTs
        if len(self.cpus) > 1:
            session = MultiCoreSession(
                self.cpus, program, entry=entry, probes=probes, system=self
            )
        else:
            session = SimSession(
                self.cpu, program, entry=entry, probes=probes, system=self
            )
        counters = session.run()
        return RunSummary(
            cycles=counters.cycles,
            instructions=counters.instructions,
            stats=self.stats(),
            frequency_hz=self.config.cpu.frequency_hz,
            probe_payloads=session.payloads(),
        )

    def read_output(self, name: str, count: int, dtype=np.float32) -> np.ndarray:
        seg = self.layout[name]
        return self.ram.read_array(seg.base, count, dtype)
