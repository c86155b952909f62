"""Helpers for CPU tests: build a machine, run a snippet, inspect state."""

from __future__ import annotations

import numpy as np

from repro.cpu import Cpu, CpuConfig
from repro.isa import assemble
from repro.memory import Bus, MemoryPort, Ram


#: Where :func:`attach_pause` maps its device.
PAUSE_BASE = 0x5000_0000


class _Pause:
    """MMIO device: a store to it sets the core's ``halted``, so the
    current run ends right after the store, the way the programmable
    HHT's emit device ends a helper-core run at a row's last store."""

    def __init__(self, cpu: Cpu):
        self.cpu = cpu

    def write_word(self, offset: int, value: int, cycle: int) -> int:
        self.cpu.halted = True
        return cycle + 1


def attach_pause(cpu: Cpu) -> None:
    """Map a pausing device at :data:`PAUSE_BASE`, its address in t0."""
    cpu.bus.attach_device(PAUSE_BASE, 4, _Pause(cpu))
    cpu.x[5] = PAUSE_BASE


def make_machine(*, vlmax: int = 8, ram_latency: int = 2, ram_bytes: int = 1 << 16):
    ram = Ram(ram_bytes)
    bus = Bus(ram, MemoryPort(latency=ram_latency))
    cpu = Cpu(bus, CpuConfig(vlmax=vlmax))
    return cpu, ram


def run_asm(source: str, *, setup=None, vlmax: int = 8, ram_latency: int = 2,
            symbols=None):
    """Assemble + run a snippet (an implicit ``halt`` is appended).

    ``setup(cpu, ram)`` may preload registers/memory.  Returns the CPU.
    """
    cpu, ram = make_machine(vlmax=vlmax, ram_latency=ram_latency)
    if setup:
        setup(cpu, ram)
    program = assemble(source + "\nhalt\n", symbols=symbols)
    cpu.run(program)
    return cpu


def f32(x: float) -> float:
    return float(np.float32(x))
