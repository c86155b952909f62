"""Assembled-program container."""

from __future__ import annotations

from dataclasses import dataclass, field

from .instructions import Instr


@dataclass
class Program:
    """An assembled instruction sequence with its label map.

    The program counter is an *instruction index*; the notional byte
    address of instruction ``i`` is ``4 * i`` (RV32 fixed-width).
    """

    name: str
    instructions: list[Instr]
    labels: dict[str, int] = field(default_factory=dict)
    source: str = ""

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, idx: int) -> Instr:
        return self.instructions[idx]

    def entry_index(self, label: str | None = None) -> int:
        """Instruction index to start execution from (0 or a label)."""
        if label is None:
            return 0
        return self.labels[label]
