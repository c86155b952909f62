"""SimSession tests: the one canonical run loop and its hook chain."""

import pytest

from repro.cpu import Cpu, CpuConfig, SimulationError
from repro.instrument import (
    MultiCoreSession,
    PcProfileProbe,
    Probe,
    ProbeHalt,
    SimSession,
)
from repro.isa import assemble
from repro.memory import Bus, MemoryPort, Ram
from repro.system import Soc, SystemConfig

from ..cpu.helpers import attach_pause


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
        src = "li a0, 2\nfmadd.s fa1, fa0, fa0, fa0\nhalt"
        plain = make_cpu()
        plain.run(assemble(src))
        probed = make_cpu()
        probed.run(assemble(src), probes=(InertProbe(),))
        assert probed.cycle == plain.cycle
        assert probed.counters.class_cycles == plain.counters.class_cycles

    def test_hook_sees_cycle_interval(self):
        cpu = make_cpu()
        probe = CountingProbe()
        cpu.run(assemble("li a0, 1\nfmadd.s fa1, fa0, fa0, fa0\nhalt"),
                probes=(probe,))
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
        src = "addi x0, x0, 0"  # falls off the end
        plain = self._message(src, profile=False)
        profiled = self._message(src, profile=True)
        assert plain == profiled
        assert plain == "PC out of range: 1 (program prog)"

    def test_step_path_uses_same_messages(self):
        cpu = make_cpu(max_instructions=16)
        attach_pause(cpu)
        session = SimSession(cpu, assemble("loop: sw x0, 0(t0)\nj loop",
                                           name="prog"))
        with pytest.raises(SimulationError) as excinfo:
            for _ in range(20):
                cpu.halted = False
                session.run()
        assert str(excinfo.value) == (
            "instruction budget of 16 exhausted in prog")
        cpu = make_cpu()
        attach_pause(cpu)
        session = SimSession(cpu, assemble("sw x0, 0(t0)\naddi x0, x0, 0",
                                           name="prog"))
        session.run()
        cpu.halted = False
        with pytest.raises(SimulationError) as excinfo:
            session.run()
        assert str(excinfo.value) == "PC out of range: 2 (program prog)"


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

    def test_a_stopped_run_resumes_at_the_next_instruction(self):
        """The instruction whose hook stops the run counts, and the pc
        has moved past it, so resuming runs each instruction once."""
        cpu = make_cpu()
        session = SimSession(
            cpu, assemble("addi a0, a0, 1\naddi a0, a0, 1\nhalt"),
            probes=(StopFirst(),))
        session.run()
        assert (cpu.counters.instructions, session._pc, cpu.x[10]) == (1, 1, 1)
        session.run()
        assert (cpu.counters.instructions, cpu.x[10]) == (3, 2)
        assert cpu.halted

    def test_a_stopped_multicore_run_resumes_at_the_next_instruction(self):
        soc = Soc(SystemConfig(n_cores=2))
        session = MultiCoreSession(
            soc.cpus, assemble("addi a0, a0, 1\naddi a0, a0, 1\nhalt"),
            probes=(StopFirst(),), system=soc)
        session.run()
        first, second = soc.cpus
        assert (first.counters.instructions, session._sessions[0]._pc,
                first.x[10]) == (1, 1, 1)
        assert second.counters.instructions == 0
        stats = session.run()
        assert stats.instructions == 6
        assert [cpu.x[10] for cpu in soc.cpus] == [2, 2]


class StopFirst(Probe):
    """Stops the run at the first instruction it sees, once."""

    def __init__(self):
        self.stopped = False

    def on_instruction(self, pc, ins, cycle_start, cycle_end):
        if not self.stopped:
            self.stopped = True
            raise ProbeHalt


class TestStepSession:
    """Resumed runs, as the programmable HHT steps its helper core."""

    def test_step_with_external_clock(self):
        cpu = make_cpu()
        attach_pause(cpu)
        session = SimSession(cpu, assemble(
            "sw x0, 0(t0)\naddi x0, x0, 0\nhalt"))
        session.interpret()
        assert session._pc == 1
        cpu.cycle = 1000
        cpu.halted = False
        session.interpret()
        assert cpu.cycle >= 1002
        assert cpu.halted

    def test_step_hooks_fire(self):
        cpu = make_cpu()
        attach_pause(cpu)
        probe = CountingProbe()
        session = SimSession(cpu, assemble("sw x0, 0(t0)\nli a0, 1\nhalt"),
                             probes=(probe,))
        session.run()
        cpu.halted = False
        session.run()
        assert [op for _, op, _, _ in probe.events] == ["sw", "li", "halt"]

    def test_a_resumed_run_keeps_its_event_sinks(self):
        class Ports(Probe):
            def __init__(self):
                self.starts = 0
                self.issues = []

            def on_session_start(self, session):
                self.starts += 1

            def on_port_issue(self, port, requester, slot, count, waited):
                self.issues.append(slot)

        cpu = make_cpu()
        attach_pause(cpu)
        probe = Ports()
        session = SimSession(cpu, assemble(
            "lw a0, 0x100(zero)\nsw x0, 0(t0)\nlw a1, 0x104(zero)\nhalt"),
            probes=(probe,))
        session.run()
        cpu.halted = False
        session.run()
        assert len(probe.issues) == cpu.bus.port.counters.requests == 2
        assert probe.starts == 1
        assert cpu.bus.port.probe_sink is None   # detached again
