"""Stepping a session by resumed runs: :meth:`SimSession.interpret`
ended by a store and resumed under an external clock, as the
programmable HHT's engine steps its helper core one row at a time."""

import pytest

from repro.cpu import SimulationError
from repro.instrument import SimSession
from repro.isa import assemble

from .helpers import attach_pause, make_machine


def paused_session(source: str, max_instructions: int | None = None):
    """A session on a machine whose ``sw x0, 0(t0)`` ends the run."""
    cpu, _ = make_machine()
    if max_instructions is not None:
        cpu.config.max_instructions = max_instructions
    attach_pause(cpu)
    return cpu, SimSession(cpu, assemble(source, name="prog"))


def resume(session):
    session.cpu.halted = False
    return session.interpret()


class TestStepOne:
    def test_step_until_halt(self):
        cpu, session = paused_session(
            "li a0, 1\nsw x0, 0(t0)\nli a1, 2\nhalt")
        session.interpret()
        assert (cpu.x[10], cpu.x[11]) == (1, 0)
        assert session._pc == 2
        resume(session)
        assert cpu.x[11] == 2
        assert cpu.halted

    def test_step_after_halt_is_noop(self):
        cpu, session = paused_session("halt")
        session.interpret()
        assert cpu.halted
        session.interpret()
        assert cpu.counters.instructions == 1

    def test_stats_accumulate(self):
        cpu, session = paused_session(
            "sw x0, 0(t0)\naddi x0, x0, 0\nsw x0, 0(t0)\nhalt")
        for _ in range(3):
            stats = resume(session)
        assert stats.instructions == cpu.counters.instructions == 4
        assert stats.cycles == cpu.cycle

    def test_entry_label(self):
        cpu, _ = make_machine()
        prog = assemble("li a0, 1\nhalt\nstart: li a0, 9\nhalt")
        SimSession(cpu, prog, entry="start").interpret()
        assert cpu.x[10] == 9

    def test_pc_out_of_range(self):
        _, session = paused_session("sw x0, 0(t0)\naddi x0, x0, 0")
        session.interpret()
        with pytest.raises(SimulationError) as excinfo:
            resume(session)
        assert str(excinfo.value) == "PC out of range: 2 (program prog)"

    def test_budget_enforced(self):
        """Every run ends within two instructions, yet the budget counts
        from the session's construction and fires at its 16th."""
        cpu, session = paused_session("loop: sw x0, 0(t0)\nj loop",
                                      max_instructions=16)
        with pytest.raises(SimulationError) as excinfo:
            for _ in range(20):
                resume(session)
        assert str(excinfo.value) == "instruction budget of 16 exhausted in prog"
        assert cpu.counters.instructions == 16

    def test_interleaves_with_cycle_mutation(self):
        """The programmable engine moves helper.cycle forward between
        rows; the resumed run starts from the moved clock."""
        cpu, session = paused_session(
            "sw x0, 0(t0)\naddi x0, x0, 0\nhalt")
        session.interpret()
        cpu.cycle = 1000
        resume(session)
        assert cpu.cycle >= 1002
        assert cpu.counters.cycles == cpu.cycle
