"""SimSession tests: the one canonical run loop and its hook chain."""

import pytest

from repro.cpu import Cpu, CpuConfig, SimulationError
from repro.instrument import PcProfileProbe, Probe, ProbeHalt, SimSession
from repro.isa import assemble
from repro.memory import Bus, MemoryPort, Ram


def make_cpu(**config_kwargs):
    return Cpu(Bus(Ram(1 << 16), MemoryPort()), CpuConfig(**config_kwargs))


class CountingProbe(Probe):
    """Subscribes to on_instruction; counts events and checks args."""

    name = "counting"

    def __init__(self):
        self.events = []

    def on_instruction(self, pc, ins, cycle_start, cycle_end):
        self.events.append((pc, ins.op, cycle_start, cycle_end))


class InertProbe(Probe):
    """Overrides nothing: attaching it must not change anything."""

    name = "inert"


class TestRunParity:
    def test_plain_run_equals_probed_run(self):
        src = "li a0, 3\nloop: addi a0, a0, -1\nbnez a0, loop\nhalt"
        plain = make_cpu()
        plain.run(assemble(src))
        probed = make_cpu()
        probe = CountingProbe()
        probed.run(assemble(src), probes=(probe,))
        assert probed.cycle == plain.cycle
        assert probed.counters.instructions == plain.counters.instructions
        assert len(probe.events) == plain.counters.instructions

    def test_inert_probe_changes_nothing(self):
        src = "li a0, 2\nmul a1, a0, a0\nhalt"
        plain = make_cpu()
        plain.run(assemble(src))
        probed = make_cpu()
        probed.run(assemble(src), probes=(InertProbe(),))
        assert probed.cycle == plain.cycle
        assert probed.counters.class_cycles == plain.counters.class_cycles

    def test_hook_sees_cycle_interval(self):
        cpu = make_cpu()
        probe = CountingProbe()
        cpu.run(assemble("li a0, 1\nmul a1, a0, a0\nhalt"), probes=(probe,))
        # Intervals tile the run: each event ends where the next starts.
        for (_, _, _, end), (_, _, start, _) in zip(probe.events,
                                                    probe.events[1:]):
            assert end == start
        assert probe.events[-1][3] == cpu.cycle

    def test_entry_label(self):
        cpu = make_cpu()
        prog = assemble("li a0, 1\nhalt\nstart: li a0, 9\nhalt")
        cpu.run(prog, entry="start")
        assert cpu.x[10] == 9


class TestErrorParity:
    """Profiled and bare runs raise identical messages (they are
    literally the same code path)."""

    def _message(self, src, *, profile, exc=SimulationError, budget=16):
        cpu = make_cpu(max_instructions=budget)
        probes = (PcProfileProbe(),) if profile else ()
        with pytest.raises(exc) as excinfo:
            cpu.run(assemble(src, name="prog"), probes=probes)
        return str(excinfo.value)

    def test_budget_message_identical(self):
        src = "loop: j loop"
        plain = self._message(src, profile=False)
        profiled = self._message(src, profile=True)
        assert plain == profiled
        assert plain == "instruction budget of 16 exhausted in prog"

    def test_pc_message_identical(self):
        src = "nop"  # falls off the end
        plain = self._message(src, profile=False)
        profiled = self._message(src, profile=True)
        assert plain == profiled
        assert plain == "PC out of range: 1 (program prog)"

    def test_step_path_uses_same_messages(self):
        cpu = make_cpu(max_instructions=16)
        cpu.prepare(assemble("loop: j loop", name="prog"))
        with pytest.raises(SimulationError,
                           match="instruction budget of 16 exhausted in prog"):
            while cpu.step_one():
                pass
        cpu = make_cpu()
        cpu.prepare(assemble("nop", name="prog"))
        cpu.step_one()
        with pytest.raises(SimulationError,
                           match=r"PC out of range: 1 \(program prog\)"):
            cpu.step_one()


class TestProbeHalt:
    def test_probe_stops_run_midway(self):
        class StopAfter(Probe):
            def __init__(self, n):
                self.n = n
                self.seen = 0

            def on_instruction(self, pc, ins, cycle_start, cycle_end):
                self.seen += 1
                if self.seen >= self.n:
                    raise ProbeHalt

        cpu = make_cpu()
        probe = StopAfter(2)
        cpu.run(assemble("loop: addi a0, a0, 1\nj loop"), probes=(probe,))
        assert probe.seen == 2
        assert not cpu.halted  # stopped by the probe, not by halt

    def test_halt_from_session_start(self):
        class Refuse(Probe):
            def on_session_start(self, session):
                raise ProbeHalt

        cpu = make_cpu()
        cpu.run(assemble("li a0, 1\nhalt"), probes=(Refuse(),))
        assert cpu.x[10] == 0  # nothing executed


class TestStepSession:
    def test_step_with_external_clock(self):
        cpu = make_cpu()
        session = SimSession(cpu, assemble("nop\nnop\nhalt"))
        assert session.step() is True
        cpu.cycle = 1000
        assert session.step() is True
        assert cpu.cycle >= 1001
        assert session.step() is False

    def test_step_hooks_fire(self):
        cpu = make_cpu()
        probe = CountingProbe()
        session = SimSession(cpu, assemble("li a0, 1\nhalt"),
                             probes=(probe,))
        while session.step():
            pass
        assert [op for _, op, _, _ in probe.events] == ["li", "halt"]
