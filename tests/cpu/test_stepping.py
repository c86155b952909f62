"""Single-step execution tests: ``SimSession.step`` under an external
clock, as the programmable HHT's engine drives its helper core."""

import pytest

from repro.cpu import CpuConfig, SimulationError
from repro.instrument import SimSession
from repro.isa import assemble

from .helpers import make_machine


class TestStepOne:
    def test_step_until_halt(self):
        cpu, _ = make_machine()
        session = SimSession(cpu, assemble("li a0, 1\nli a1, 2\nhalt"))
        assert session.step() is True
        assert cpu.x[10] == 1
        assert session.step() is True
        assert cpu.x[11] == 2
        assert session.step() is False  # halt
        assert cpu.halted

    def test_step_after_halt_is_noop(self):
        cpu, _ = make_machine()
        session = SimSession(cpu, assemble("halt"))
        assert session.step() is False
        assert session.step() is False

    def test_stats_accumulate(self):
        cpu, _ = make_machine()
        session = SimSession(cpu, assemble("addi x0, x0, 0\naddi x0, x0, 0\nhalt"))
        while session.step():
            pass
        assert cpu.counters.instructions == 3
        assert cpu.counters.cycles == cpu.cycle

    def test_entry_label(self):
        cpu, _ = make_machine()
        prog = assemble("li a0, 1\nhalt\nstart: li a0, 9\nhalt")
        session = SimSession(cpu, prog, entry="start")
        while session.step():
            pass
        assert cpu.x[10] == 9

    def test_pc_out_of_range(self):
        cpu, _ = make_machine()
        session = SimSession(cpu, assemble("addi x0, x0, 0"))  # falls off the end
        session.step()
        with pytest.raises(SimulationError, match="PC out of range"):
            session.step()

    def test_budget_enforced(self):
        from repro.cpu import Cpu
        from repro.memory import Bus, MemoryPort, Ram

        cpu = Cpu(Bus(Ram(1 << 12), MemoryPort()), CpuConfig(max_instructions=10))
        session = SimSession(cpu, assemble("loop: j loop"))
        with pytest.raises(SimulationError, match="budget"):
            while session.step():
                pass

    def test_interleaves_with_cycle_mutation(self):
        """The programmable engine fast-forwards helper.cycle between
        steps; stepping must honour the adjusted clock."""
        cpu, _ = make_machine()
        session = SimSession(cpu, assemble("addi x0, x0, 0\naddi x0, x0, 0\nhalt"))
        session.step()
        cpu.cycle = 1000
        session.step()
        assert cpu.cycle >= 1001
