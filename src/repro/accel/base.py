"""The accelerator front-end abstraction.

An :class:`AcceleratorFrontEnd` is a named factory that
contributes everything one accelerator family needs across the stack:

* a :class:`~repro.component.SimComponent` subtree attached to the SoC
  (built by :meth:`AcceleratorFrontEnd.build` from a
  :class:`BuildContext`), including any MMIO device registration and
  assembler symbols;
* ISA hooks — instructions the front-end's kernels use are gated on the
  CPU attachment the builder installs (``cpu.ssr`` / ``cpu.indexmac``);
* an area contribution (:meth:`gates`);
* config-summary lines for ``SystemConfig.describe()`` / ``repro info``.

:class:`AcceleratorConfig` is the per-entry record of a
``SystemConfig.accelerators`` section: which front-end *kind*, how many
instances, and the front-end specific knobs (currently the SSR stream
lookahead).  Front-end construction parameters that predate this layer
(the HHT's buffer geometry) stay in their legacy sub-config
(``SystemConfig.hht``) so existing flattened configs remain bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class AcceleratorConfig:
    """One entry of a ``SystemConfig.accelerators`` section."""

    kind: str = "hht"
    #: Instances of this front-end ("<kind>0", "<kind>1", ... when > 1).
    count: int = 1
    #: Stream-prefetch depth for decoupled front-ends (SSR); front-ends
    #: without a stream queue ignore it.
    lookahead: int = 4

    def __post_init__(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise ValueError(f"accelerator kind must be a name, got {self.kind!r}")
        if self.count < 1:
            raise ValueError(f"accelerator count must be >= 1, got {self.count}")
        if self.lookahead < 1:
            raise ValueError(
                f"accelerator lookahead must be >= 1, got {self.lookahead}"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "AcceleratorConfig":
        return cls(
            kind=str(data.get("kind", cls.kind)),
            count=int(data.get("count", cls.count)),
            lookahead=int(data.get("lookahead", cls.lookahead)),
        )


@dataclass
class BuildContext:
    """Everything a front-end needs to attach one instance to the SoC.

    The SoC constructs one context per instance: ``name`` is the
    component name (``"hht"``, or ``"hht0"``/``"hht1"`` for multiple
    instances), ``symbol_prefix`` the assembler-symbol prefix (the first
    instance keeps the unprefixed legacy names), and ``mmio_base`` the
    next free bus window — :meth:`AcceleratorFrontEnd.build` returns how
    many bytes of it the instance claimed (0 for pure-ISA front-ends).
    """

    config: Any                      # the owning SystemConfig
    spec: AcceleratorConfig
    index: int
    name: str
    symbol_prefix: str
    mmio_base: int
    ram: Any
    bus: Any
    mem: Any                         # shared MemorySystem (bus.mem)
    cpu: Any
    #: Callback adding the built component to the SoC tree.
    add_component: Callable[[Any], None]
    #: Assembler symbol table to extend (mutated in place).
    symbols: dict[str, int] = field(default_factory=dict)


class AcceleratorFrontEnd:
    """Base class: one accelerator family, named by :data:`kind`."""

    #: Key in ``repro.accel.FRONT_ENDS``; also the component-name and
    #: symbol prefix stem.
    kind: str = ""
    #: Label used for the "<label> instances = N" config-summary line.
    instances_label: str = ""

    # ------------------------------------------------------------------
    # SoC construction
    # ------------------------------------------------------------------
    def build(self, ctx: BuildContext) -> int:
        """Attach one instance; return the MMIO bytes claimed (0 if none)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Config summary (SystemConfig.describe / repro info)
    # ------------------------------------------------------------------
    def summary_lines(self, config, spec: AcceleratorConfig):
        """``(label, text)`` pairs describing the configured front-end."""
        return []

    # ------------------------------------------------------------------
    # Area contribution (one instance)
    # ------------------------------------------------------------------
    def gates(self, config, spec: AcceleratorConfig) -> int:
        """NAND2-equivalent gate count of one instance."""
        return 0
