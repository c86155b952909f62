"""Closed-form bursts and gathers equal the per-element path.

:class:`MemorySystem` times a pipelined or chained gather in closed form
on the flat single-bank port and element by element otherwise.  A port
probe sink forces the per-element path without changing the timing
model, so the two must agree exactly: the completion cycle, the port's
slot state and every counter, down to the key order of the requester
histogram.  A unit-stride burst is a step-1 pipelined gather over
consecutive words, so its closed form is held to the same path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import MMIO_BASE, Bus, MemoryAccessError, MemoryPort, Ram
from repro.memory.hierarchy import MemorySystem

REQUESTERS = ("cpu", "hht", "hht1")


class RecordingSink:
    """Port sink that keeps every issue event."""

    def __init__(self):
        self.events = []

    def port_issue(self, port, requester, slot, count, waited):
        self.events.append((requester, slot, count, waited))


def _memory(latency, prior, sink):
    """A flat port with *prior* bursts already issued (its occupancy),
    then *sink* attached."""
    port = MemoryPort(latency=latency)
    for requester, cycle, count in prior:
        port.issue_burst(cycle, count, requester)
    port.probe_sink = sink
    return MemorySystem(port)


def _state(mem):
    c = mem.port.counters
    return (list(mem.port._bank_free), c.requests, c.queue_cycles,
            c.busy_cycles, list(c.by_requester.items()))


prior_traffic = st.lists(
    st.tuples(st.sampled_from(REQUESTERS), st.integers(0, 60),
              st.integers(0, 16)),
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(
    latency=st.integers(1, 8),
    prior=prior_traffic,
    cycle=st.integers(0, 80),
    count=st.integers(0, 64),
    step=st.sampled_from((1, 2)),
    shape=st.sampled_from(("pipelined", "chained", "burst")),
    requester=st.sampled_from(REQUESTERS),
)
def test_closed_form_equals_per_element(latency, prior, cycle, count, step,
                                        shape, requester):
    addrs = [0x100 + 4 * i for i in range(count)]
    closed = _memory(latency, prior, None)
    sink = RecordingSink()
    each = _memory(latency, prior, sink)
    if shape == "pipelined":
        got = closed.gather(addrs, cycle, requester, step=step)
        want = each.gather(addrs, cycle, requester, step=step)
    elif shape == "chained":
        got = closed.gather_chain(addrs, cycle, requester)
        want = each.gather_chain(addrs, cycle, requester)
    else:
        got = closed.read_seq(0x100, count, cycle, requester)
        want = each.gather(addrs, cycle, requester)
    assert len(sink.events) == count  # one issue per element
    assert got == want
    assert _state(closed) == _state(each)


class TestBusGather:
    """The bus reads gathered words from RAM and falls back to
    per-element ``load_word`` for anything outside aligned RAM."""

    class Device:
        def __init__(self):
            self.reads = []

        def read_word(self, offset, cycle):
            self.reads.append((offset, cycle))
            return 0xD0 + offset, cycle + 5

    @pytest.fixture
    def system(self):
        ram = Ram(4096)
        for i in range(16):
            ram.write_u32(4 * i, 100 + i)
        bus = Bus(ram, MemoryPort(latency=2))
        device = self.Device()
        bus.attach_device(MMIO_BASE, 0x100, device)
        return bus, device

    def test_ram_words_and_timing(self, system):
        bus, _ = system
        values, done = bus.gather_chain([12, 0, 8], 10)
        assert values.tolist() == [103, 100, 102]
        assert done == 10 + 3 * (2 + 1)
        values, latest = bus.gather([4, 8], 20, step=2)
        assert values.tolist() == [101, 102]
        assert latest == 22 + 2
        assert bus.port.counters.by_requester == {"cpu": 5}

    def test_empty_gather(self, system):
        bus, _ = system
        values, done = bus.gather_chain([], 7)
        assert values.size == 0 and done == 7
        assert bus.port.counters.requests == 0

    def test_mmio_element_goes_per_element(self, system):
        bus, device = system
        values, done = bus.gather_chain([0, MMIO_BASE + 8, 4], 0)
        assert values.tolist() == [100, 0xD8, 101]
        # RAM element done at 2, device presented at 3 answers at 8,
        # last RAM element presented at 9 answers at 11.
        assert device.reads == [(8, 3)]
        assert done == 12
        assert bus.port.counters.requests == 2

    def test_misaligned_element_raises(self, system):
        bus, _ = system
        with pytest.raises(MemoryAccessError, match="misaligned"):
            bus.gather([0, 6], 0)
