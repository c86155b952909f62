"""A spec's SoC dies with the spec, without the cyclic collector.

``execute()`` builds a new ``Soc`` (CPU, bus, RAM image, accelerators)
for every sweep point.  If any part of it sits in a reference cycle, the
whole image stays alive until the cyclic collector happens to run, and a
sweep's peak memory grows with it.  Reference counting alone must free
every one of them.
"""

import gc

import pytest

from repro.cpu import Cpu
from repro.exec import execute, programmable_spec, spmspv_spec, spmv_spec
from repro.memory import MemorySystem, Ram
from repro.memory.cache import CacheConfig
from repro.memory.mmu import MmuConfig
from repro.system import Soc, SystemConfig


def _config(*, n_cores=1, mmu=False, banks=1, l1d=False):
    cfg = SystemConfig.paper_table1()
    cfg.n_cores = n_cores
    cfg.banks = banks
    if mmu:
        cfg.mmu = MmuConfig()
    if l1d:
        cfg.cache = CacheConfig()
    return cfg


SPECS = {
    "spmv-baseline": lambda: spmv_spec((32, 32), 0.5),
    "spmv-hht": lambda: spmv_spec((32, 32), 0.5, accel="hht"),
    "spmspv-v1": lambda: spmspv_spec(32, 0.5, mode="hht_v1"),
    "spmspv-v2": lambda: spmspv_spec(32, 0.5, mode="hht_v2"),
    "spmv-ssr": lambda: spmv_spec((32, 32), 0.5, accel="ssr"),
    "spmv-indexmac": lambda: spmv_spec((32, 32), 0.5, accel="indexmac"),
    "2-cores-mmu": lambda: spmv_spec(
        (32, 32), 0.5, config=_config(n_cores=2, mmu=True)),
    "banked": lambda: spmv_spec(
        (32, 32), 0.5, accel="hht", config=_config(banks=2)),
    "programmable": lambda: programmable_spec(
        (32, 32), 0.5, format_name="csr"),
    "l1d": lambda: spmv_spec(
        (32, 32), 0.5, accel="hht", config=_config(l1d=True)),
    "programmable-l1d": lambda: programmable_spec(
        (32, 32), 0.5, format_name="csr", config=_config(l1d=True)),
}


def _alive(kinds, before):
    return sorted(
        type(obj).__name__ for obj in gc.get_objects()
        if isinstance(obj, kinds) and id(obj) not in before
    )


@pytest.mark.parametrize("name", sorted(SPECS))
def test_execute_leaves_no_soc_alive(name):
    spec = SPECS[name]()
    kinds = (Soc, Cpu, Ram, MemorySystem)
    gc.collect()
    # Objects some other test left alive keep their ids while held here.
    held = [obj for obj in gc.get_objects() if isinstance(obj, kinds)]
    before = {id(obj) for obj in held}
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        summary = execute(spec)
        assert summary.cycles > 0
        del summary
        assert _alive(kinds, before) == []
    finally:
        if was_enabled:
            gc.enable()
