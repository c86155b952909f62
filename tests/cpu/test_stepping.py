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
        session = SimSession(cpu, assemble("nop\nnop\nhalt"))
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
        session = SimSession(cpu, assemble("nop"))  # falls off the end
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
        session = SimSession(cpu, assemble("nop\nnop\nhalt"))
        session.step()
        cpu.cycle = 1000
        session.step()
        assert cpu.cycle >= 1001


class TestMoreVectorOps:
    def _run(self, setup_regs, source, vlmax=8):
        cpu, ram = make_machine(vlmax=vlmax)
        for reg, (vals, kind) in setup_regs.items():
            import numpy as np

            arr = np.asarray(vals, dtype=kind)
            cpu.v[reg][: arr.size] = arr.view(np.uint32)
        cpu.x[10] = 4
        cpu.run(assemble("vsetvli t0, a0, e32, m1\n" + source + "\nhalt"))
        return cpu

    def test_vsub_vv(self):
        import numpy as np

        cpu = self._run(
            {1: ([10, 20, 30, 40], np.int32), 2: ([1, 2, 3, 4], np.int32)},
            "vsub.vv v3, v1, v2",
        )
        assert cpu.v[3][:4].view(np.int32).tolist() == [9, 18, 27, 36]

    def test_vmul_vx(self):
        import numpy as np

        cpu = self._run({1: ([1, -2, 3, 4], np.int32)}, "li a1, 5\nvmul.vx v2, v1, a1")
        assert cpu.v[2][:4].view(np.int32).tolist() == [5, -10, 15, 20]

    def test_vand_vor_vx(self):
        import numpy as np

        cpu = self._run(
            {1: ([0b1100] * 4, np.int32)},
            "li a1, 0b1010\nvand.vx v2, v1, a1\nvor.vx v3, v1, a1",
        )
        assert cpu.v[2][:4].view(np.int32).tolist() == [0b1000] * 4
        assert cpu.v[3][:4].view(np.int32).tolist() == [0b1110] * 4

    def test_vsrl_vi(self):
        import numpy as np

        cpu = self._run({1: ([16, 32, 64, 128], np.int32)}, "vsrl.vi v2, v1, 3")
        assert cpu.v[2][:4].view(np.int32).tolist() == [2, 4, 8, 16]

    def test_vadd_vand_vi(self):
        import numpy as np

        cpu = self._run(
            {1: ([5, 6, 7, 8], np.int32)},
            "vadd.vi v2, v1, 3\nvand.vi v3, v1, 6",
        )
        assert cpu.v[2][:4].view(np.int32).tolist() == [8, 9, 10, 11]
        assert cpu.v[3][:4].view(np.int32).tolist() == [4, 6, 6, 0]

    def test_vfsub_vfmul(self):
        import numpy as np

        cpu = self._run(
            {1: ([4.0, 9.0, 2.0, 8.0], np.float32),
             2: ([1.0, 3.0, 0.5, 2.0], np.float32)},
            "vfsub.vv v3, v1, v2\nvfmul.vv v4, v1, v2",
        )
        assert cpu.v[3][:4].view(np.float32).tolist() == [3.0, 6.0, 1.5, 6.0]
        assert cpu.v[4][:4].view(np.float32).tolist() == [4.0, 27.0, 1.0, 16.0]

    def test_vxor_zeroes_self(self):
        import numpy as np

        cpu = self._run({1: ([7, 8, 9, 10], np.int32)}, "vxor.vv v2, v1, v1")
        assert cpu.v[2][:4].view(np.int32).tolist() == [0, 0, 0, 0]
