"""Pipelined memory-port timing tests."""

import pytest

from repro.memory import MemoryPort


class TestSingleRequests:
    def test_uncontended_latency(self):
        port = MemoryPort(latency=3)
        assert port.issue(0, 10) == 13

    def test_pipelining_one_per_cycle(self):
        port = MemoryPort(latency=3)
        assert port.issue(0, 10) == 13
        assert port.issue(0, 10) == 14  # queued behind the first
        assert port.issue(0, 10) == 15

    def test_idle_gap_resets_queue(self):
        port = MemoryPort(latency=2)
        port.issue(0, 0)
        assert port.issue(0, 100) == 102

    def test_queue_wait_recorded(self):
        port = MemoryPort(latency=2)
        port.issue(0, 0)
        port.issue(0, 0)
        assert port.counters.queue_cycles == 1

    def test_invalid_latency(self):
        with pytest.raises(ValueError):
            MemoryPort(latency=0)


class TestBursts:
    def test_burst_completion(self):
        port = MemoryPort(latency=2)
        # 4 beats issuing at cycles 5..8; last completes at 8 + 2.
        assert port.issue_seq(0, 4, 5) == 10

    def test_burst_zero_is_noop(self):
        port = MemoryPort(latency=2)
        assert port.issue_seq(0, 0, 5) == 5
        assert port.counters.requests == 0

    def test_burst_occupies_slots(self):
        port = MemoryPort(latency=2)
        port.issue_seq(0, 4, 0)
        # Next single request queues after the burst's 4 slots.
        assert port.issue(0, 0) == 6

    def test_burst_queues_behind_prior(self):
        port = MemoryPort(latency=2)
        port.issue(0, 0)
        assert port.issue_seq(0, 2, 0) == 4  # slots 1,2; completes 2+2


class TestAccounting:
    def test_requests_counted(self):
        port = MemoryPort()
        port.issue(0, 0)
        port.issue_seq(0, 5, 0)
        assert port.counters.requests == 6

    def test_by_requester(self):
        port = MemoryPort()
        port.issue(0, 0, "cpu")
        port.issue(0, 0, "hht")
        port.issue_seq(0, 3, 0, "hht")
        assert port.counters.by_requester == {"cpu": 1, "hht": 4}

    def test_burst_beats_all_pay_queue_wait(self):
        # The head beat waits 2 cycles behind prior traffic; beats 2..N
        # arrive one cycle apart behind it and wait just as long each.
        port = MemoryPort(latency=2)
        port.issue(0, 0)
        port.issue(0, 0)  # port busy through slots 0,1
        before = port.counters.queue_cycles
        port.issue_seq(0, 3, 0)  # head wants 0, issues at 2
        assert port.counters.queue_cycles - before == 2 * 3

    def test_busy_cycles_count_slots_consumed(self):
        port = MemoryPort(latency=2)
        port.issue(0, 0)
        port.issue_seq(0, 4, 0)
        assert port.counters.busy_cycles == 5

    def test_reset(self):
        port = MemoryPort()
        port.issue(0, 0)
        port.reset()
        assert port.counters.requests == 0
        assert port.next_free_slot == 0

    def test_stats_registry_keys(self):
        port = MemoryPort()
        port.issue(0, 0, "cpu")
        port.issue(0, 0, "hht")
        stats = port.stats()
        assert stats["ram.requests"] == 2
        assert stats["ram.requester.cpu"] == 1
        assert stats["ram.requester.hht"] == 1
        assert "ram.busy_cycles" in stats


class TestBankedPort:
    def test_invalid_banks(self):
        with pytest.raises(ValueError):
            MemoryPort(banks=0)

    def test_word_interleaved_mapping(self):
        port = MemoryPort(banks=4)
        assert [port.bank_of(4 * w) for w in range(6)] == [0, 1, 2, 3, 0, 1]

    def test_different_banks_issue_in_parallel(self):
        port = MemoryPort(latency=2, banks=4)
        assert port.issue(0, 0) == 2
        assert port.issue(4, 0) == 2   # bank 1: no serialisation
        assert port.issue(8, 0) == 2

    def test_same_bank_still_serialises(self):
        port = MemoryPort(latency=2, banks=4)
        assert port.issue(0, 0) == 2
        assert port.issue(16, 0) == 3  # word 4 -> bank 0 again

    def test_burst_catches_up_after_head_stall(self):
        # Pre-occupy bank 0, then burst words 0..3.  On one bank the
        # whole burst queues behind the stall; with four banks only the
        # head beat does, and the tail beats issue at their desired
        # cycles in their own banks.
        single = MemoryPort(latency=2, banks=1)
        single.issue(0, 0)
        banked = MemoryPort(latency=2, banks=4)
        banked.issue(0, 0)
        assert single.issue_seq(0, 4, 0) == 6
        assert banked.issue_seq(0, 4, 0) == 5

    def test_strided_burst_uses_stride_banks(self):
        # words_per_slot=2 on 2 banks: every beat lands in bank 0.
        port = MemoryPort(latency=2, banks=2)
        port.issue(0, 0)  # bank 0 busy at slot 0
        completion = port.issue_seq(0, 4, 0, words_per_slot=2)
        assert completion == 4  # beats issue at 1,2 — fully serialised
        assert port._bank_requests == [3, 0]

    def test_per_bank_request_counters_in_stats(self):
        port = MemoryPort(banks=2)
        port.issue(0, 0)
        port.issue(4, 0)
        port.issue(8, 0)
        stats = port.stats()
        assert stats["ram.bank0.requests"] == 2
        assert stats["ram.bank1.requests"] == 1

    def test_single_bank_matches_banked_on_conflict_free_stream(self):
        # A unit-stride burst with no prior traffic issues one beat per
        # cycle on either topology.
        single = MemoryPort(latency=3, banks=1)
        banked = MemoryPort(latency=3, banks=4)
        assert single.issue_seq(0, 8, 5) == banked.issue_seq(0, 8, 5)

    def test_reset_clears_bank_pipes(self):
        port = MemoryPort(banks=4)
        port.issue(4, 0)
        port.reset()
        assert port.next_free_slot == 0
        assert port._bank_requests == [0, 0, 0, 0]
