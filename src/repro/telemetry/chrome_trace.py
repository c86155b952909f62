"""Chrome-trace / Perfetto export of a simulated run.

:class:`ChromeTraceProbe` subscribes to every event the instrumentation
layer publishes and maps them onto named tracks in the trace-event JSON
format (the ``{"traceEvents": [...]}`` schema both ``chrome://tracing``
and https://ui.perfetto.dev open directly):

* ``cpu`` — one complete (``"X"``) slice per retired instruction,
  ``ts``/``dur`` in cycles; a multi-core session gets one named track
  per core (``cpu0``, ``cpu1``, …) instead, each carrying only that
  core's instructions;
* ``<core>.tlb`` — when the MMU is on, one slice per TLB miss spanning
  the page-table walk (``dur`` = walk cycles on the shared port);
* ``<hht>.backend`` — an instant event per back-end buffer fill, plus a
  counter (``"C"``) track per stream with the unconsumed element count
  (buffer occupancy over time);
* ``<hht>.fifo`` — one slice per CPU FIFO pop, ``dur`` = the stall the
  CPU paid waiting for data (the paper's CPU-wait time, visible as
  gaps/slices against the instruction track);
* ``ram.<requester>`` — one slice per memory-port grant, ``ts`` = issue
  slot, ``dur`` = beats occupied, so CPU/HHT port interleaving and
  contention are visible per requester.

One simulated cycle is exported as one microsecond of trace time (the
trace-event ``ts`` unit), so Perfetto's timeline reads directly in
cycles.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..instrument.probes import Probe

#: Schema tag carried in ``otherData`` (bump on incompatible changes).
CHROME_TRACE_SCHEMA = "repro-chrome-trace/1"

_PID = 1  # one simulated process: the SoC


class TrackTable:
    """Track-name → ``tid`` allocation for trace-event documents.

    Tracks are numbered in first-use order, and each allocation records
    the matching ``thread_name`` metadata event so viewers label the
    track.  Shared by :class:`ChromeTraceProbe` (per-run hardware
    traces) and :func:`repro.obs.trace.sweep_trace` (per-sweep worker
    traces).
    """

    def __init__(self, *, pid: int = _PID):
        self.pid = pid
        self._tids: dict[str, int] = {}
        #: ``thread_name`` metadata events, one per allocated track.
        self.meta: list[dict] = []

    def tid(self, track: str) -> int:
        tid = self._tids.get(track)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[track] = tid
            self.meta.append({
                "name": "thread_name", "ph": "M", "pid": self.pid,
                "tid": tid, "args": {"name": track},
            })
        return tid

    def __len__(self) -> int:
        return len(self._tids)


class ChromeTraceProbe(Probe):
    """Record every published event as Chrome trace-event JSON.

    ``limit`` caps the number of *instruction* slices recorded (memory
    guard for long runs); memory-side events are never dropped, and the
    number of dropped instructions is reported in ``otherData`` so a
    truncated trace is never mistaken for a short run.
    """

    name = "chrome_trace"

    def __init__(self, *, limit: int | None = None):
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1 or None, got {limit}")
        self.limit = limit
        self._events: list[dict] = []
        self._tracks = TrackTable()
        self._instructions = 0
        self.dropped_instructions = 0
        self._program = ""
        # The track instruction slices land on: "cpu" for a single-core
        # session; a multi-core session switches it via on_core_select
        # before each core's slices.
        self._cpu_track = "cpu"

    # -- track bookkeeping ---------------------------------------------
    def _tid(self, track: str) -> int:
        return self._tracks.tid(track)

    # -- events --------------------------------------------------------
    def on_session_start(self, session) -> None:
        self._program = session.program.name
        # The instruction track(s) always come first: "cpu" for a
        # single-core session, one track per core for a multi-core one.
        for track in getattr(session, "cores", None) or ("cpu",):
            self._tid(track)

    def on_core_select(self, core) -> None:
        self._cpu_track = core

    def on_instruction(self, pc, ins, cycle_start, cycle_end) -> None:
        if self.limit is not None and self._instructions >= self.limit:
            self.dropped_instructions += 1
            return
        self._instructions += 1
        self._events.append({
            "name": ins.op, "cat": "cpu", "ph": "X",
            "ts": cycle_start, "dur": cycle_end - cycle_start,
            "pid": _PID, "tid": self._tid(self._cpu_track),
            "args": {"pc": pc, "text": ins.text or ins.op},
        })

    def on_tlb_walk(self, core, vpn, levels, cycle_start, cycle_end) -> None:
        self._events.append({
            "name": "ptw", "cat": "tlb", "ph": "X",
            "ts": cycle_start, "dur": cycle_end - cycle_start,
            "pid": _PID, "tid": self._tid(f"{core}.tlb"),
            "args": {"vpn": vpn, "levels": levels},
        })

    def on_buffer_fill(self, engine) -> None:
        hht = engine.requester
        occupancy = {
            name: stream.unconsumed for name, stream in engine.streams.items()
        }
        self._events.append({
            "name": "buffer fill", "cat": "hht", "ph": "i", "s": "t",
            "ts": engine.time, "pid": _PID,
            "tid": self._tid(f"{hht}.backend"),
            "args": {
                "buffers_filled": engine.buffers_filled,
                "unconsumed": dict(occupancy),
            },
        })
        # Counter track: per-stream unconsumed elements (occupancy).
        self._events.append({
            "name": f"{hht} buffered elems", "cat": "hht", "ph": "C",
            "ts": engine.time, "pid": _PID, "args": occupancy,
        })

    def on_fifo_read(self, hht, stream, cycle, wait, count) -> None:
        self._events.append({
            "name": f"pop {stream}", "cat": "fifo", "ph": "X",
            "ts": cycle, "dur": wait,
            "pid": _PID, "tid": self._tid(f"{hht}.fifo"),
            "args": {"count": count, "wait": wait},
        })

    def on_port_issue(self, port, requester, slot, count, waited) -> None:
        self._events.append({
            "name": f"{port} issue", "cat": "port", "ph": "X",
            "ts": slot, "dur": count,
            "pid": _PID, "tid": self._tid(f"{port}.{requester}"),
            "args": {"beats": count, "waited": waited},
        })

    # -- result --------------------------------------------------------
    def payload(self) -> dict:
        """The complete trace document (``{"traceEvents": [...]}``)."""
        return trace_document(
            f"soc: {self._program}" if self._program else "soc",
            self._tracks, self._events,
            {
                "schema": CHROME_TRACE_SCHEMA,
                "program": self._program,
                "clock": "1 simulated cycle = 1us of trace time",
                "instructions": self._instructions,
                "dropped_instructions": self.dropped_instructions,
            },
        )


def trace_document(process: str, tracks: TrackTable, events: list[dict],
                   other: dict) -> dict:
    """The trace-event document envelope shared by every exporter.

    Process-name and track metadata come first, then *events* sorted by
    timestamp (stable, so simultaneous events keep emission order),
    which makes ``ts`` monotonic within every track — the invariant the
    tests pin.  *other* becomes ``otherData``.
    """
    process_meta = [{
        "name": "process_name", "ph": "M", "pid": tracks.pid,
        "args": {"name": process},
    }]
    return {
        "traceEvents": (process_meta + tracks.meta
                        + sorted(events, key=lambda e: e["ts"])),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(payload: dict, path: str | Path) -> Path:
    """Write a :meth:`ChromeTraceProbe.payload` document to *path*."""
    path = Path(path)
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    return path
