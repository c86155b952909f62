"""Shared infrastructure for the paper-regeneration benchmarks.

Each benchmark regenerates one table/figure of the paper, times it with
pytest-benchmark, prints the resulting rows and archives them under
``benchmarks/results/`` so EXPERIMENTS.md can cite them.

Sizing: sweeps default to a 256 x 256 matrix (the paper uses 512 x 512 —
the shapes are scale-invariant, see tests/integration).  Set
``REPRO_FULL=1`` to regenerate at the paper's exact sizes.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def record_table():
    """Print a rendered table and archive it under benchmarks/results/."""

    def _record(table, name: str):
        text = table.render()
        print("\n" + text)
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text)
        (RESULTS_DIR / f"{name}.csv").write_text(table.to_csv())
        return table

    return _record


_REFERENCE_PROGRAM = [(k % 4, (3 * k + 1) % 4, k % 7) for k in range(64)]
_REFERENCE_VECTOR = np.arange(8, dtype=np.float32)


def host_reference() -> int:
    """A fixed workload that reads none of the program: 4,000 steps of a
    small register machine in Python, with a numpy multiply-accumulate
    on every eighth, about the mix of a simulated vector kernel.  Timed
    next to a measured round, it shows how fast the host was then."""
    regs = [0, 1, 2, 3]
    acc = np.zeros(8, dtype=np.float32)
    for k in range(4000):
        rd, rs, imm = _REFERENCE_PROGRAM[k % 64]
        regs[rd] = (regs[rs] + imm) & 0xFFFFFFFF
        if k % 8 == 0:
            acc += _REFERENCE_VECTOR * np.float32(regs[rd] & 7)
    return regs[0]


def _paired_rounds(measure, rounds: int) -> tuple[list[float], float]:
    """Run *measure* (which returns the seconds it timed) and
    :func:`host_reference` back to back, *rounds* times, alternating
    which goes first.  Returns the measured seconds of every round and
    the median per-round ratio of measured to host-reference seconds:
    adjacent runs share the host's phase, so the ratio does not follow
    the host the way a raw time does."""
    def reference() -> float:
        start = time.perf_counter()
        host_reference()
        return time.perf_counter() - start

    measured, ratios = [], []
    for k in range(rounds):
        if k % 2:
            host = reference()
            seconds = measure()
        else:
            seconds = measure()
            host = reference()
        measured.append(seconds)
        ratios.append(seconds / host)
    return measured, statistics.median(ratios)


@pytest.fixture
def paired_rounds():
    """:func:`_paired_rounds`: a measured round next to the host reference."""
    return _paired_rounds
