"""Primary-core model: an in-order core that runs the RV32I/F/V
instructions the kernels execute, with a non-pipelined vector unit."""

from .compiled import CompiledBackend, CompiledBlock, run_compiled
from .core import Cpu, CpuStats, SimulationError
from .timing import BACKENDS, CpuConfig, LatencyTable

__all__ = [
    "BACKENDS",
    "CompiledBackend",
    "CompiledBlock",
    "Cpu",
    "CpuStats",
    "SimulationError",
    "CpuConfig",
    "LatencyTable",
    "run_compiled",
]
