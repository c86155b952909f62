"""Instruction-level execution tracing (kernel debugging aid).

``trace_program`` runs a program through :meth:`Soc.run` with a
:class:`~repro.instrument.TraceProbe` attached and returns its
:class:`TraceEntry` list — index, mnemonic, cycle interval, and the
destination register's value after the write.  Traces can be bounded
(``limit``), filtered (``only`` mnemonics) and rendered as text, which
is how the assembly kernels in this repository were debugged.
"""

from __future__ import annotations

from ..instrument.probes import TraceEntry, TraceProbe
from ..instrument.render import render_trace
from ..isa.program import Program
from ..system.soc import Soc

__all__ = ["TraceEntry", "trace_program", "render_trace"]


def trace_program(
    soc: Soc,
    program: Program,
    *,
    limit: int = 10_000,
    only: set[str] | None = None,
) -> list[TraceEntry]:
    """Execute *program* on *soc*, recording up to *limit* entries.

    ``only`` restricts recording to the given mnemonics (execution still
    covers everything).  The run stops at ``halt`` (on every core of a
    multi-core SoC) or after *limit* recorded entries.
    """
    probe = TraceProbe(limit=limit, only=only)
    soc.run(program, probes=(probe,))
    return probe.entries
