"""BufferedStream tests: slot accounting, FIFO order, capacity gating."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BufferedStream


class TestBasics:
    def test_fifo_order(self):
        s = BufferedStream("s", n_buffers=2, buffer_elems=4)
        s.push_group(10, [1, 2, 3])
        ready, words = s.read(2)
        assert ready == 10 and words.tolist() == [1, 2]
        ready, words = s.read(2)
        assert ready == 10 and words.tolist() == [3]
        assert s.read(1) is None

    def test_read_returns_u32_words(self):
        s = BufferedStream("s", n_buffers=2, buffer_elems=4)
        s.push_group(0, [0xFFFFFFFF, 7])
        _, words = s.read(4)
        assert words.dtype == np.uint32
        assert words.tolist() == [0xFFFFFFFF, 7]

    def test_read_stops_at_fill_boundary(self):
        s = BufferedStream("s", n_buffers=2, buffer_elems=4)
        s.push_group(3, [1, 2])
        s.push_group(5, [3, 4])
        ready, words = s.read(4)
        assert ready == 3 and words.tolist() == [1, 2]
        ready, words = s.read(4)
        assert ready == 5 and words.tolist() == [3, 4]

    def test_push_single_element(self):
        s = BufferedStream("s", n_buffers=2, buffer_elems=1)
        s.push(5, 42)
        assert s.occupied_slots == 1
        ready, words = s.read(1)
        assert ready == 5 and words.tolist() == [42]
        assert s.occupied_slots == 0

    def test_empty_group_is_noop(self):
        s = BufferedStream("s", n_buffers=1, buffer_elems=4)
        s.push_group(0, [])
        assert s.occupied_slots == 0
        assert s.has_room


class TestSlotAccounting:
    def test_group_occupies_one_slot_when_small(self):
        s = BufferedStream("s", n_buffers=2, buffer_elems=8)
        s.push_group(0, range(8))
        assert s.occupied_slots == 1

    def test_large_group_occupies_multiple_slots(self):
        s = BufferedStream("s", n_buffers=2, buffer_elems=4)
        s.push_group(0, range(10))  # 4 + 4 + 2
        assert s.occupied_slots == 3
        assert not s.has_room  # overshoot allowed, gate closed

    def test_slot_recycled_only_when_fully_drained(self):
        s = BufferedStream("s", n_buffers=1, buffer_elems=4)
        s.push_group(0, range(4))
        for _ in range(3):
            s.read(1)
            assert s.occupied_slots == 1
        s.read(1)
        assert s.occupied_slots == 0
        assert s.has_room

    def test_partial_tail_slot(self):
        s = BufferedStream("s", n_buffers=2, buffer_elems=4)
        s.push_group(0, range(6))  # slots of 4 and 2
        for _ in range(4):
            s.read(1)
        assert s.occupied_slots == 1
        s.read(1)
        s.read(1)
        assert s.occupied_slots == 0

    def test_has_room_respects_n_buffers(self):
        s = BufferedStream("s", n_buffers=2, buffer_elems=4)
        s.push_group(0, range(4))
        assert s.has_room
        s.push_group(0, range(4))
        assert not s.has_room

    def test_unconsumed_counts_elements(self):
        s = BufferedStream("s", n_buffers=4, buffer_elems=4)
        s.push_group(0, range(3))
        s.push_group(0, range(2))
        assert s.unconsumed == 5


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            BufferedStream("s", n_buffers=0, buffer_elems=4)
        with pytest.raises(ValueError):
            BufferedStream("s", n_buffers=1, buffer_elems=0)

    def test_ready_times_preserved(self):
        s = BufferedStream("s", n_buffers=3, buffer_elems=2)
        s.push_group(7, [1])
        s.push_group(9, [2])
        assert s.read(1)[0] == 7
        assert s.read(1)[0] == 9


class ReferenceStream:
    """The per-element stream: every element is its own ``(ready_at,
    bits)`` deque entry, and each fill's buffer slots are a deque of
    remaining element counts, oldest first."""

    def __init__(self, n_buffers: int, buffer_elems: int):
        self.n_buffers = n_buffers
        self.buffer_elems = buffer_elems
        self.elements: deque[tuple[int, int]] = deque()
        self._slots: deque[int] = deque()

    @property
    def unconsumed(self) -> int:
        return len(self.elements)

    @property
    def occupied_slots(self) -> int:
        return len(self._slots)

    @property
    def has_room(self) -> bool:
        return len(self._slots) < self.n_buffers

    def push(self, ready_at: int, value_bits: int) -> None:
        self.elements.append((ready_at, int(value_bits)))
        self._slots.append(1)

    def push_group(self, ready_at: int, values) -> None:
        n = len(values)
        if n == 0:
            return
        for v in values:
            self.elements.append((ready_at, int(v)))
        full, rem = divmod(n, self.buffer_elems)
        self._slots.extend([self.buffer_elems] * full)
        if rem:
            self._slots.append(rem)

    def pop_available(self) -> tuple[int, int] | None:
        if not self.elements:
            return None
        item = self.elements.popleft()
        self._slots[0] -= 1
        if self._slots[0] == 0:
            self._slots.popleft()
        return item


@st.composite
def stream_scripts(draw):
    """N, BLEN and a sequence of pushes, fills and reads."""
    n_buffers = draw(st.sampled_from((1, 2, 4)))
    blen = draw(st.sampled_from((1, 2, 4, 8)))
    ready = st.integers(0, 1000)
    word = st.integers(0, 0xFFFFFFFF)
    op = st.one_of(
        st.tuples(st.just("push"), ready, word),
        st.tuples(st.just("push_group"), ready,
                  st.lists(word, max_size=3 * blen)),
        st.tuples(st.just("read"), st.integers(1, 2 * blen)),
    )
    return n_buffers, blen, draw(st.lists(op, max_size=40))


def _assert_same_state(stream: BufferedStream, ref: ReferenceStream) -> None:
    assert stream.occupied_slots == ref.occupied_slots
    assert stream.has_room == ref.has_room
    assert stream.unconsumed == ref.unconsumed


@settings(max_examples=400, deadline=None)
@given(script=stream_scripts())
def test_fill_reads_match_per_element_reference(script):
    """Whole-fill staging and slice reads are indistinguishable from the
    per-element stream: same words, ready times and slot recycling."""
    n_buffers, blen, ops = script
    stream = BufferedStream("s", n_buffers, blen)
    ref = ReferenceStream(n_buffers, blen)
    for op in ops:
        if op[0] == "push":
            stream.push(op[1], op[2])
            ref.push(op[1], op[2])
        elif op[0] == "push_group":
            words = np.array(op[2], np.uint32)
            stream.push_group(op[1], words)
            ref.push_group(op[1], op[2])
        else:
            need = op[1]
            while need:
                piece = stream.read(need)
                if piece is None:
                    assert ref.pop_available() is None
                    break
                ready, words = piece
                assert words.dtype == np.uint32
                assert 1 <= words.size <= need
                expected = [ref.pop_available() for _ in range(words.size)]
                assert [(ready, w) for w in words.tolist()] == expected
                need -= words.size
                _assert_same_state(stream, ref)
        _assert_same_state(stream, ref)
