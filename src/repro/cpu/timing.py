"""Latency model of the in-order 3-stage core (Table 1).

The paper's core is an in-order 3-stage pipeline where "loads that do not
complete in a single cycle stall the pipeline" and "the vector unit is not
pipelined" with a vector arithmetic latency of 4 cycles.  We charge each
instruction a whole-pipeline cost:

* single-cycle integer ops retire 1/cycle (the steady-state of a 3-stage
  in-order pipeline),
* multi-cycle ops (FP, vector) stall for their latency,
* loads stall until the memory response arrives (port completion), plus
  one writeback cycle,
* taken branches pay a flush penalty,
* indexed vector gathers serialise element by element (address generation
  depends on the previous response being consumed — the vector unit is not
  pipelined), which is precisely the metadata cost the HHT removes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

#: Supported execution backends (see repro.cpu.compiled for the second).
BACKENDS = ("reference", "compiled")


def _default_backend() -> str:
    """Backend selected by the environment, ``reference`` otherwise.

    ``REPRO_BACKEND`` lets the CLI (and CI's second test job) flip every
    CpuConfig constructed in the process — including those built inside
    sweep worker processes, which inherit the environment.
    """
    return os.environ.get("REPRO_BACKEND", "reference")


@dataclass
class LatencyTable:
    """Per-class instruction costs, in cycles (excluding memory time).

    ``int_mul``, ``int_div``, ``fp_div`` and ``vector_store_per_elem``
    are charged by no instruction: the ISA holds only what the kernels
    execute, and no kernel has an integer multiply or divide, an FP
    divide or a vector store.  The fields stay because ``to_flat()`` and
    ``content_key()`` hash every field, so removing one would re-key
    every cached result and bench golden.
    """

    int_alu: int = 1
    int_mul: int = 3
    int_div: int = 16
    branch: int = 1
    branch_taken_penalty: int = 1  # 3-stage pipeline refill on taken branch
    jump: int = 2
    scalar_store: int = 1          # posted through a store buffer
    fp_alu: int = 2
    fp_fma: int = 4
    fp_div: int = 16
    vector_config: int = 1         # vsetvli
    vector_int: int = 2
    vector_fp: int = 4             # Table 1: vector arithmetic latency = 4
    vector_reduction_per_elem: int = 1  # extra cycles for ordered reductions
    vector_store_per_elem: int = 1
    load_use: int = 1              # writeback cycle after the memory response
    system: int = 1

    def __post_init__(self) -> None:
        for name, cycles in vars(self).items():
            if cycles < 0:
                raise ValueError(f"latency {name} must be >= 0, got {cycles}")

    @classmethod
    def from_dict(cls, data: dict[str, int]) -> "LatencyTable":
        return cls(**{k: int(v) for k, v in data.items()})


@dataclass
class CpuConfig:
    """Configuration of the primary core (Table 1 defaults)."""

    vlmax: int = 8                     # Table 1: vector width (VL) = 8
    frequency_hz: float = 1.1e9        # Table 1: 1.1 GHz
    latencies: LatencyTable = field(default_factory=LatencyTable)
    max_instructions: int = 500_000_000
    # Execution backend: "reference" runs one instruction per dispatch
    # (repro.instrument.session); "compiled" runs basic blocks.  Both run
    # translations of the same per-op definitions (repro.cpu.compiled),
    # with bit-identical results.  Timing is backend-independent by
    # contract.
    backend: str = field(default_factory=_default_backend)

    def __post_init__(self) -> None:
        if self.vlmax < 1 or self.vlmax > 64:
            raise ValueError(f"vlmax must be in [1, 64], got {self.vlmax}")
        if self.frequency_hz <= 0:
            raise ValueError(f"frequency must be positive, got {self.frequency_hz}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
