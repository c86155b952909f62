"""The per-element SSR stream loop, kept as the reference for the plan.

:class:`repro.accel.ssr.SSRUnit` plans its whole stream at START with
numpy, and generating an element only charges the port.  This is the
loop it replaced: each element's index, map and value words are read
from RAM, one by one, while the element is generated.  It shares the
production unit's MMIO protocol, ``pop`` and counters, so a test that
drives both over the same operands compares only what the plan changed.
"""

from __future__ import annotations

from repro.accel.ssr import SSR_MODE_INDIRECT, SSRUnit

_U32 = 0xFFFFFFFF


class ReferenceSSRUnit(SSRUnit):
    def _plan(self) -> None:
        self._length = self.regs["length"]
        self._words = []

    def _advance(self, target: int) -> None:
        n = self.regs["length"]
        if target > n:
            target = n
        if self._issued >= target:
            return
        mem_read = self.mem.read
        ram = self.ram
        name = self.name
        indirect = self.regs["mode"] == SSR_MODE_INDIRECT
        idx_base = self.regs["idx_base"]
        val_base = self.regs["val_base"]
        map_base = self.regs["map_base"]
        port_latency = self.port.latency
        while self._issued < target:
            k = self._issued
            t = self._gen_time
            idx_addr = (idx_base + 4 * k) & _U32
            t_idx = mem_read(idx_addr, t, name)
            index = ram.read_i32(idx_addr)
            if indirect:
                map_addr = (map_base + 4 * index) & _U32
                t_meta = mem_read(map_addr, t_idx, name)
                pos = ram.read_i32(map_addr)
                if pos > 0:
                    t_val = mem_read((val_base + 4 * pos) & _U32, t_meta, name)
                else:
                    t_val = t_meta  # padding slot: no value fetch charged
                bits = ram.read_u32(val_base + 4 * max(pos, 0))
            else:
                val_addr = (val_base + 4 * index) & _U32
                t_val = mem_read(val_addr, t_idx, name)
                bits = ram.read_u32(val_addr)
            self._ready.append(t_val)
            self._words.append(bits)
            self._issued += 1
            self._gen_time = max(t + 1, t_idx - port_latency)
