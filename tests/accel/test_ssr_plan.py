"""The SSR unit's planned stream against the per-element loop it replaced.

:class:`repro.accel.ssr.SSRUnit` plans every element at START;
:class:`~tests.accel.reference_ssr.ReferenceSSRUnit` reads each
element's words from RAM as it generates it.  Driven through the same
MMR writes and pops, with the same competing CPU requests between pops,
both must give the same pops (words and completion), the same registry,
the same per-requester port counts and the same bank state — on a flat
port, a 4-bank port and behind an L1D.  A stream with a word the RAM
refuses must raise the same ``MemoryAccessError`` at the same pop.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.ssr import SSR_MODE_INDEXED, SSR_MODE_INDIRECT, SSRMMR, SSRUnit
from repro.core.stream import StreamUnderflow
from repro.memory import MemoryPort, MemorySystem, Ram
from repro.memory.cache import CacheConfig, L1Cache
from repro.memory.ram import MemoryAccessError

from .reference_ssr import ReferenceSSRUnit

RAM_BYTES = 1 << 12
IDX, MAP, VAL = 0x100, 0x400, 0x800
#: Map and value array lengths (words).
N_MAP = N_VAL = 64
#: A word the competing CPU requests hit between pops.
CPU_WORD = 0xC00

MEMS = ["flat", "banks4", "l1d"]


def make_mem(kind: str) -> MemorySystem:
    port = MemoryPort(banks=4 if kind == "banks4" else 1)
    cache = L1Cache(CacheConfig(), port) if kind == "l1d" else None
    return MemorySystem(port, cache)


@dataclass
class Stream:
    mode: int
    length: int
    lookahead: int
    seed: int
    chunk: int          # 1: fssrpop, 8: vssrpop.v at VL 8
    gap: int            # CPU cycles between a pop's completion and the next
    fault: str | None = None
    at: int = 0         # the element the fault corrupts


def image(stream: Stream) -> tuple[Ram, dict[str, int]]:
    """A RAM of random words holding the stream's arrays, and its MMRs."""
    rng = np.random.default_rng(stream.seed)
    ram = Ram(RAM_BYTES)
    ram.write_array(0, rng.integers(0, 2**32, RAM_BYTES // 4, np.uint32))
    indirect = stream.mode == SSR_MODE_INDIRECT
    idx = rng.integers(0, N_MAP if indirect else N_VAL, stream.length,
                       dtype=np.int32)
    # Map entries <= 0 are misses; the negative ones read value[0] too.
    posmap = rng.integers(-3, N_VAL, N_MAP, dtype=np.int32)
    regs = {"idx_base": IDX, "val_base": VAL, "map_base": MAP,
            "length": stream.length, "mode": stream.mode}
    k = stream.at
    fault = stream.fault
    if fault == "idx_base_misaligned":
        regs["idx_base"] = IDX + 2
    elif fault == "val_base_misaligned":
        regs["val_base"] = VAL + 1
    elif fault == "map_base_misaligned":
        regs["map_base"] = MAP + 2
    elif fault == "idx_past_ram":
        regs["idx_base"] = RAM_BYTES - 4 * k
    elif fault == "index_outside":
        idx[k] = RAM_BYTES
    elif fault == "index_negative":
        idx[k] = -1000                  # wraps to the top of the space
    elif fault == "map_outside":
        posmap[idx[k]] = RAM_BYTES
    if idx.size:
        ram.write_array(IDX, idx)
    ram.write_array(MAP, posmap)
    return ram, regs


_OFFSET = {"idx_base": SSRMMR.IDX_BASE, "val_base": SSRMMR.VAL_BASE,
           "map_base": SSRMMR.MAP_BASE, "length": SSRMMR.LENGTH,
           "mode": SSRMMR.MODE}


def drive(unit_cls, stream: Stream, mem_kind: str):
    """Program, start and drain one stream; returns everything a run can
    see: each pop's words and completion (or the error and where it was
    raised), the registry and the port's bank state."""
    ram, regs = image(stream)
    mem = make_mem(mem_kind)
    unit = unit_cls(ram, mem, lookahead=stream.lookahead)
    events = []
    cycle = 0
    try:
        for name, value in regs.items():
            cycle = unit.write_word(_OFFSET[name], value, cycle)
        cycle = unit.write_word(SSRMMR.START, 1, cycle)
        events.append(("started", cycle))
        left = stream.length
        while left:
            count = min(left, stream.chunk)
            values, done = unit.pop(0, count, cycle)
            events.append((list(values), done))
            left -= count
            mem.read(CPU_WORD, cycle, "cpu")
            cycle = done + stream.gap
        events.append(("status", unit.read_word(SSRMMR.STATUS, cycle)))
    except MemoryAccessError as exc:
        events.append(("refused", str(exc)))
    port = mem.port
    return (events, unit.stats(), mem.stats(), port.counters.by_requester,
            port._bank_free, port._bank_requests)


def assert_same(stream: Stream, mem_kind: str):
    planned = drive(SSRUnit, stream, mem_kind)
    reference = drive(ReferenceSSRUnit, stream, mem_kind)
    assert planned == reference
    return planned


_MODES = {"indexed": SSR_MODE_INDEXED, "indirect": SSR_MODE_INDIRECT}


def streams(mode: int, lookahead: int, faults=(None,)):
    return st.builds(
        Stream, st.just(mode), st.integers(0, 24), st.just(lookahead),
        st.integers(0, 2**31 - 1), st.sampled_from([1, 8]),
        st.integers(0, 6), st.sampled_from(faults), st.integers(0, 23),
    )


@pytest.mark.parametrize("mem", MEMS)
@pytest.mark.parametrize("lookahead", [1, 4])
@pytest.mark.parametrize("mode", sorted(_MODES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_plan_matches_per_element_reference(mode, lookahead, mem, data):
    stream = data.draw(streams(_MODES[mode], lookahead))
    status, (done, _) = assert_same(stream, mem)[0][-1]
    assert status == "status" and done == 1


_FAULTS = {
    "indexed": ["idx_base_misaligned", "val_base_misaligned",
                "idx_past_ram", "index_outside", "index_negative"],
    "indirect": ["idx_base_misaligned", "val_base_misaligned",
                 "map_base_misaligned", "idx_past_ram", "index_outside",
                 "index_negative", "map_outside"],
}


@pytest.mark.parametrize("mem", MEMS)
@pytest.mark.parametrize("lookahead", [1, 4])
@pytest.mark.parametrize("mode", sorted(_MODES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_refused_word_raises_at_the_same_pop(mode, lookahead, mem, data):
    stream = data.draw(streams(_MODES[mode], lookahead, _FAULTS[mode]))
    stream.length = max(stream.length, stream.at + 1)
    assert assert_same(stream, mem)[0][-1][0] == "refused"


@pytest.mark.parametrize("mem", MEMS)
@pytest.mark.parametrize("lookahead", [1, 4])
@pytest.mark.parametrize("mode", sorted(_MODES))
def test_zero_length_stream(mode, lookahead, mem):
    stream = Stream(_MODES[mode], 0, lookahead, seed=7, chunk=1, gap=0)
    events, registry, mem_stats, *_ = assert_same(stream, mem)
    assert events[-1][1][0] == 1          # STATUS: done at once
    assert registry["ssr.starts"] == 1
    assert mem_stats.get("ram.requester.ssr", 0) == 0
    ram, _ = image(stream)
    unit = SSRUnit(ram, make_mem(mem))
    unit.write_word(SSRMMR.MODE, _MODES[mode], 0)
    unit.write_word(SSRMMR.START, 1, 0)
    with pytest.raises(StreamUnderflow):
        unit.pop(0, 1, 0)


def test_mmr_write_after_start_does_not_reach_the_stream():
    """The plan reads the MMRs at START."""
    stream = Stream(SSR_MODE_INDEXED, 8, 4, seed=3, chunk=8, gap=0)
    ram, regs = image(stream)
    unit = SSRUnit(ram, make_mem("flat"))
    for name, value in regs.items():
        unit.write_word(_OFFSET[name], value, 0)
    unit.write_word(SSRMMR.START, 1, 0)
    unit.write_word(SSRMMR.VAL_BASE, VAL + 64, 0)
    unit.write_word(SSRMMR.LENGTH, 2, 0)
    values, _ = unit.pop(0, 8, 0)
    idx = ram.read_array(IDX, 8, np.int32)
    assert values == ram.read_array(VAL, N_VAL, np.uint32)[idx].tolist()
    assert unit.read_word(SSRMMR.STATUS, 0)[0] == 1
