"""Whole-system configuration (the paper's Table 1).

Configurations are *content-addressable*: :meth:`SystemConfig.to_flat`
flattens every field (including the nested CPU, latency-table, HHT and
L1D sub-configs) into a dotted-key dictionary of plain scalars,
:meth:`SystemConfig.from_flat` rebuilds an identical object, and
:meth:`SystemConfig.content_key` hashes the flattened form.  The sweep
engine (:mod:`repro.exec`) uses this to key cached simulation results,
so *any* configuration change — however deep — changes the key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from ..accel import AcceleratorConfig, front_end
from ..core.config import HHTConfig
from ..cpu.timing import CpuConfig, LatencyTable
from ..memory.cache import CacheConfig
from ..memory.mmu import MmuConfig


@dataclass
class SystemConfig:
    """Configuration of the simulated MCU system.

    Defaults reproduce Table 1: a 1.1 GHz RV32 core with vector width 8
    and SEW=32, an ASIC HHT with N=2 buffers of 32 bytes, and 1 MB of
    on-chip RAM.  ``ram_latency`` is the pipelined SRAM response latency
    in cycles; ``ram_bytes`` may be raised for the large DNN layers (the
    paper tiles those instead — see DESIGN.md).
    """

    ram_bytes: int = 1 << 20
    ram_latency: int = 2
    #: Word-interleaved RAM banks; 1 = the paper's single-issue port.
    banks: int = 1
    #: CPU cores sharing the RAM port; 1 = the paper's single-core SoC
    #: (stats under ``soc.cpu.*``).  With N > 1 the cores register as
    #: ``soc.cpu0`` ... ``soc.cpuN-1`` and arbitrate round-robin by
    #: earliest core clock (ties broken by core index).
    n_cores: int = 1
    #: HHT instances attached to the bus ("hht0", "hht1", ... when > 1).
    n_hhts: int = 1
    cpu: CpuConfig = field(default_factory=CpuConfig)
    hht: HHTConfig = field(default_factory=HHTConfig)
    #: Optional L1D (the Section 3.2 high-performance integration);
    #: None = the Table-1 flat-SRAM MCU.
    cache: CacheConfig | None = None
    #: Optional virtual-memory model: a per-core TLB whose page-table
    #: walks are charged on the shared RAM port.  None (the default) is
    #: the paper's bare-metal physical-address machine.
    mmu: MmuConfig | None = None
    #: Generic accelerator section.  None (the default) is the legacy
    #: HHT-only view: ``hht``/``n_hhts`` describe one HHT front-end, and
    #: the flattened form carries no ``accelerators.*`` keys — existing
    #: content keys are bit-identical.  When set, the tuple lists the
    #: attached front-ends in bus-window order and overrides ``n_hhts``
    #: (HHT entries still read their geometry from ``hht``).
    accelerators: tuple[AcceleratorConfig, ...] | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Run every field check, the sub-configs' included.

        Construction runs it; :func:`run_config` runs it again, because a
        field set by assignment after construction skips the checks.
        """
        if self.ram_bytes <= 0 or self.ram_bytes % 4:
            raise ValueError(
                f"ram_bytes must be a positive multiple of 4, got {self.ram_bytes}"
            )
        if self.ram_latency < 1:
            raise ValueError(f"ram_latency must be >= 1, got {self.ram_latency}")
        if self.banks < 1:
            raise ValueError(f"banks must be >= 1, got {self.banks}")
        if self.n_cores < 1:
            raise ValueError(f"n_cores must be >= 1, got {self.n_cores}")
        if self.mmu is not None and not isinstance(self.mmu, MmuConfig):
            raise ValueError(f"mmu must be an MmuConfig or None, got {self.mmu!r}")
        if self.n_hhts < 1:
            raise ValueError(f"n_hhts must be >= 1, got {self.n_hhts}")
        if self.accelerators is not None:
            self.accelerators = tuple(self.accelerators)
            for spec in self.accelerators:
                if not isinstance(spec, AcceleratorConfig):
                    raise ValueError(
                        f"accelerators entries must be AcceleratorConfig, "
                        f"got {spec!r}"
                    )
                front_end(spec.kind)  # raises on unknown kinds
            kinds = [s.kind for s in self.accelerators]
            if len(kinds) != len(set(kinds)):
                raise ValueError(
                    f"duplicate accelerator kinds: {kinds} (raise count= "
                    "instead of repeating an entry)"
                )
        for part in (self.cpu, self.cpu.latencies, self.hht, self.cache,
                     self.mmu, *(self.accelerators or ())):
            if part is not None:
                part.__post_init__()

    def accelerator_specs(self) -> tuple[AcceleratorConfig, ...]:
        """The effective accelerator list (legacy view = one HHT entry)."""
        if self.accelerators is None:
            return (AcceleratorConfig(kind="hht", count=self.n_hhts),)
        return self.accelerators

    def with_accelerator(self, kind: str, *, count: int = 1,
                         lookahead: int = 4) -> "SystemConfig":
        """A copy whose ``accelerators`` section includes *kind*.

        A no-op copy if the kind is already configured; otherwise the
        new entry is appended after the existing ones (so the legacy
        HHT keeps its bus window and symbols).
        """
        specs = list(self.accelerator_specs())
        if not any(s.kind == kind for s in specs):
            specs.append(
                AcceleratorConfig(kind=kind, count=count, lookahead=lookahead)
            )
        from dataclasses import replace

        return replace(self, accelerators=tuple(specs))

    @classmethod
    def paper_table1(cls, *, vlmax: int = 8, n_buffers: int = 2) -> "SystemConfig":
        """The Table 1 system, with the two swept parameters exposed."""
        # Buffers hold one vector-register's worth of elements; with a
        # scalar CPU the Table-1 32-byte (8-element) buffer is kept.
        return cls(
            cpu=CpuConfig(vlmax=vlmax),
            hht=HHTConfig(n_buffers=n_buffers,
                          buffer_elems=8 if vlmax == 1 else vlmax),
        )

    # ------------------------------------------------------------------
    # Serialisation / content addressing (used by repro.exec)
    # ------------------------------------------------------------------
    def to_flat(self) -> dict[str, object]:
        """Flatten to a ``{"cpu.latencies.int_alu": 1, ...}`` scalar dict.

        The flattened form is order-independent, JSON-serialisable and
        complete: :meth:`from_flat` reconstructs an equal configuration.
        ``cache`` flattens to a single ``None`` entry when absent, and
        the ``accelerators`` section — a *tuple*, not a mapping — is
        flattened manually to indexed scalar keys
        (``accelerators.0.kind`` ...) and omitted entirely when None, so
        legacy flat dicts and content keys are bit-identical.
        """
        flat: dict[str, object] = {}

        def emit(prefix: str, value: object) -> None:
            if isinstance(value, dict):
                for key in sorted(value):
                    emit(f"{prefix}.{key}" if prefix else str(key), value[key])
            else:
                flat[prefix] = value

        data = asdict(self)
        accelerators = data.pop("accelerators")
        emit("", data)
        if accelerators is not None:
            for i, spec in enumerate(accelerators):
                for key in sorted(spec):
                    flat[f"accelerators.{i}.{key}"] = spec[key]
        return flat

    @classmethod
    def from_flat(cls, flat: dict[str, object]) -> "SystemConfig":
        """Rebuild a configuration from :meth:`to_flat` output."""
        nested: dict = {}
        for key, value in flat.items():
            parts = key.split(".")
            node = nested
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = value
        cpu_fields = dict(nested.get("cpu", {}))
        latencies = LatencyTable.from_dict(cpu_fields.pop("latencies", {}))
        cache_fields = nested.get("cache")
        mmu_fields = nested.get("mmu")
        accel_fields = nested.get("accelerators")
        accelerators = None
        if isinstance(accel_fields, dict):
            accelerators = tuple(
                AcceleratorConfig.from_dict(accel_fields[index])
                for index in sorted(accel_fields, key=int)
            )
        return cls(
            ram_bytes=int(nested.get("ram_bytes", cls.ram_bytes)),
            ram_latency=int(nested.get("ram_latency", cls.ram_latency)),
            banks=int(nested.get("banks", cls.banks)),
            n_cores=int(nested.get("n_cores", cls.n_cores)),
            n_hhts=int(nested.get("n_hhts", cls.n_hhts)),
            cpu=CpuConfig(latencies=latencies, **cpu_fields),
            hht=HHTConfig.from_dict(nested.get("hht", {})),
            cache=(
                CacheConfig.from_dict(cache_fields)
                if isinstance(cache_fields, dict) else None
            ),
            mmu=(
                MmuConfig.from_dict(mmu_fields)
                if isinstance(mmu_fields, dict) else None
            ),
            accelerators=accelerators,
        )

    def content_key(self) -> str:
        """Stable hash of the full configuration (hex digest)."""
        blob = json.dumps(
            self.to_flat(), sort_keys=True, separators=(",", ":"), default=repr
        )
        return hashlib.sha256(blob.encode()).hexdigest()

    def describe(self) -> str:
        """Render the configuration in the shape of the paper's Table 1.

        The accelerator block is derived from the configured front-ends
        (each contributes its ``summary_lines``), so the summary covers
        whatever ``accelerators:`` configures; the legacy HHT-only view
        renders byte-identically to the historic hard-coded table.
        """
        specs = self.accelerator_specs()
        lines = [
            ("Core", "RISCV ISA with 32 bit Floating-point Extensions"),
            ("", f"Frequency = {self.cpu.frequency_hz / 1e9:.1f} GHz"),
            ("", f"Vector width (VL) = {self.cpu.vlmax} Elements"),
            ("", "Element Size (SEW) = 32 bit"),
            ("", f"Vector Arithmetic Latency = {self.cpu.latencies.vector_fp} cycles"),
        ]
        if self.n_cores > 1:
            lines.append(
                ("", f"Cores = {self.n_cores} "
                     "(round-robin shared-port arbitration, "
                     "earliest-clock first)")
            )
        if self.mmu is not None:
            m = self.mmu
            lines.append(
                ("MMU", f"{m.tlb_entries}-entry TLB/core, "
                        f"{m.page_bytes // 1024}KB pages, "
                        f"{m.walk_levels}-level walk on the shared port")
            )
        for spec in specs:
            lines.extend(front_end(spec.kind).summary_lines(self, spec))
        lines += [
            ("RAM", f"Size = {self.ram_bytes // (1 << 20)}MB"
                    if self.ram_bytes >= (1 << 20)
                    else f"Size = {self.ram_bytes // 1024}KB"),
            ("", f"Latency = {self.ram_latency} cycles (pipelined)"),
        ]
        if self.banks > 1:
            lines.append(("", f"Banks = {self.banks} (word-interleaved)"))
        for spec in specs:
            if spec.count > 1:
                label = front_end(spec.kind).instances_label or spec.kind
                lines.append(("", f"{label} instances = {spec.count}"))
        if self.cache is not None:
            lines.append(
                ("L1D", f"{self.cache.size_bytes // 1024}KB, "
                        f"{self.cache.assoc}-way, "
                        f"{self.cache.line_bytes}B lines")
            )
        width = max(len(k) for k, _ in lines)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in lines)


def run_config(
    config: SystemConfig | None, *, vlmax: int | None = None,
    n_buffers: int | None = None, accel: str | None = None,
) -> SystemConfig:
    """The system one kernel run simulates.

    ``vlmax``/``n_buffers`` shape the default Table-1 system only: a
    given *config* carries its own, so passing both is a ``TypeError``
    rather than one system with two vector widths.  *accel* names the
    front-end the kernel needs (None for the pure-CPU baseline); an
    *accel* missing from the config is appended (a config without an
    ``accelerators`` section already lists the HHT).  Multi-core systems
    run only the pure-CPU row-partitioned baseline, so any *accel* with
    ``n_cores > 1`` is a ``ValueError``.  The returned config has passed
    :meth:`SystemConfig.validate`, so a bad field fails here, before a
    SoC is built.
    """
    if config is None:
        config = SystemConfig.paper_table1(
            vlmax=8 if vlmax is None else vlmax,
            n_buffers=2 if n_buffers is None else n_buffers,
        )
    elif vlmax is not None or n_buffers is not None:
        raise TypeError(
            "pass vlmax=/n_buffers= or config=, not both: the config "
            "carries its own cpu.vlmax and hht.n_buffers"
        )
    if accel is not None and config.n_cores > 1:
        raise ValueError(
            "multi-core runs are the pure-CPU row-partitioned baseline; "
            f"accel={accel!r} is single-core only"
        )
    if accel is not None and all(
        spec.kind != accel for spec in config.accelerator_specs()
    ):
        config = config.with_accelerator(accel)
    config.validate()
    return config
