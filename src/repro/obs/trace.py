"""Sweep-level chrome-trace export: one track per worker.

Where :class:`repro.telemetry.ChromeTraceProbe` traces one simulated
run cycle-by-cycle, :func:`sweep_trace` traces one *sweep* of many runs
from its obs event log:

* one track per event source (``driver``, each ``worker-<pid>``) with a
  complete (``"X"``) span per attempt — ``attempt.start`` opened,
  ``attempt.ok`` / ``attempt.error`` closed, a span with no close (the
  worker died mid-attempt) closed at the matching ``worker.crash``
  driver event (else the log's end) and labelled ``outcome: crash``;
* instant events for the control-flow beats — retries, timeouts,
  worker crashes/hangs, pool restarts — on the ``driver`` track;
* instant events for cache traffic (hit/miss/write/corrupt) on a
  dedicated ``cache`` track, and ``fault.injected`` instants on the
  track of whichever process the fault tripped in.

Timestamps are wall-clock microseconds relative to the first event, so
the Perfetto timeline reads as elapsed sweep time.  The document is
built by the per-run exporter's :class:`TrackTable`,
:func:`trace_document` and :func:`write_chrome_trace`.
"""

from __future__ import annotations

from ..telemetry.chrome_trace import (
    TrackTable,
    trace_document,
    write_chrome_trace,
)

#: Schema tag carried in ``otherData``.
SWEEP_TRACE_SCHEMA = "repro-sweep-trace/1"

#: Driver events rendered as instants on the ``driver`` track.
_DRIVER_INSTANTS = {
    "retry": "retry",
    "spec.timeout": "timeout",
    "worker.crash": "worker crash",
    "worker.hung": "worker hung",
    "pool.restart": "pool restart",
}

#: Cache events rendered as instants on the ``cache`` track.
_CACHE_INSTANTS = {"cache.hit", "cache.miss", "cache.write", "cache.corrupt"}


def _short(key: str) -> str:
    return key[:12] if key else ""


def sweep_trace(events: list[dict]) -> dict:
    """Build a trace-event JSON document from a sweep's ordered events."""
    tracks = TrackTable()
    tracks.tid("driver")  # the driver always owns track 1
    spans: list[dict] = []
    instants: list[dict] = []
    sweep_id = ""
    t0 = events[0]["wall"] if events else 0.0
    last_wall = events[-1]["wall"] if events else 0.0

    def us(wall: float) -> float:
        return round((wall - t0) * 1e6, 1)

    # Open attempt spans per (src, key, attempt); crash events adopt the
    # freshest still-open span naming the crashed spec's key.
    open_spans: dict[tuple[str, str, int], dict] = {}

    def close(span_key: tuple[str, str, int], wall: float,
              outcome: str, extra: dict | None = None) -> None:
        span = open_spans.pop(span_key, None)
        if span is None:
            return
        span["dur"] = max(us(wall) - span["ts"], 0.1)
        span["args"]["outcome"] = outcome
        if extra:
            span["args"].update(extra)
        spans.append(span)

    for event in events:
        etype = event["type"]
        src = event["src"]
        wall = event["wall"]
        key = event.get("key", "")
        data = event.get("data", {})
        if etype == "sweep.start":
            sweep_id = event.get("sweep", "")
            continue
        if etype == "attempt.start":
            span_key = (src, key, event.get("attempt", 0))
            open_spans[span_key] = {
                "name": event.get("label") or _short(key),
                "cat": "attempt", "ph": "X",
                "ts": us(wall), "dur": 0.0,
                "pid": tracks.pid, "tid": tracks.tid(src),
                "args": {"key": _short(key),
                         "attempt": event.get("attempt", 0)},
            }
            continue
        if etype in ("attempt.ok", "attempt.error"):
            outcome = "ok" if etype == "attempt.ok" else "error"
            extra = {}
            if data.get("category"):
                extra["category"] = data["category"]
            close((src, key, event.get("attempt", 0)), wall, outcome, extra)
            continue
        if etype == "fault.injected":
            instants.append({
                "name": f"fault: {data.get('kind', '?')}", "cat": "fault",
                "ph": "i", "s": "t", "ts": us(wall),
                "pid": tracks.pid, "tid": tracks.tid(src),
                "args": {"key": _short(key),
                         "attempt": event.get("attempt", 0)},
            })
            continue
        if etype == "worker.crash":
            # Close the orphaned attempt span of whichever worker held
            # this spec when it died.
            candidates = [sk for sk in open_spans if sk[1] == key]
            if candidates:
                newest = max(candidates,
                             key=lambda sk: open_spans[sk]["ts"])
                close(newest, wall, "crash")
        if etype in _DRIVER_INSTANTS:
            instants.append({
                "name": _DRIVER_INSTANTS[etype], "cat": "driver",
                "ph": "i", "s": "t", "ts": us(wall),
                "pid": tracks.pid, "tid": tracks.tid("driver"),
                "args": {"key": _short(key), **{
                    name: value for name, value in data.items()
                    if not isinstance(value, (dict, list))
                }},
            })
            continue
        if etype in _CACHE_INSTANTS:
            instants.append({
                "name": etype.split(".", 1)[1], "cat": "cache",
                "ph": "i", "s": "t", "ts": us(wall),
                "pid": tracks.pid, "tid": tracks.tid("cache"),
                "args": {"key": _short(key)},
            })

    # Anything still open at log end: the sweep ended around it.
    for span_key in sorted(open_spans, key=lambda sk: open_spans[sk]["ts"]):
        close(span_key, last_wall, "crash")

    return trace_document(
        f"sweep: {sweep_id}" if sweep_id else "sweep", tracks,
        spans + instants,
        {
            "schema": SWEEP_TRACE_SCHEMA,
            "sweep_id": sweep_id,
            "clock": "ts in wall-clock us since the first event",
            "n_events": len(events),
            "n_spans": len(spans),
        },
    )


def write_sweep_trace(events: list[dict], path) -> "object":
    """Render *events* and write the trace document to *path*."""
    return write_chrome_trace(sweep_trace(events), path)


__all__ = ["SWEEP_TRACE_SCHEMA", "sweep_trace", "write_sweep_trace"]
