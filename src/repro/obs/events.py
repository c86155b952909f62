"""Event taxonomy and schema for the sweep observability log.

Every line of an obs JSONL log is one *event*: a flat JSON object with
a small common envelope plus per-type payload fields.  The envelope:

* ``type`` — one of :data:`EVENT_TYPES` (dotted ``family.kind`` names);
* ``sweep`` — the sweep id every event of one :func:`~repro.exec.run_specs`
  call shares (the correlation root);
* ``src`` — which writer emitted it (``"driver"`` or ``"worker-<pid>"``;
  workers append to per-worker files the driver merges, so no two
  writers ever share a file handle);
* ``pid`` — the emitting process;
* ``seq`` — per-writer monotonic sequence number (strictly increasing
  within one ``src``, the merge-order tiebreaker);
* ``wall`` — wall-clock epoch seconds, clamped strictly increasing per
  writer so every writer's stream carries monotonic timestamps.

Spec-scoped events additionally carry ``key`` (the spec's cache content
key — the per-spec correlation key) and usually ``label`` (the human
name) and ``attempt``.  Everything else lives under ``data``.

The lifecycle grammar the chaos suite and CI validate
(:func:`check_spec_sequences`): every spec that misses the cache is
``spec.submitted`` exactly once, runs one or more ``attempt.start``
attempts (each closed by ``attempt.ok`` / ``attempt.error`` unless the
worker died — then the driver's ``worker.crash`` stands in), and ends
in exactly one terminal event (``spec.completed`` / ``spec.failed``),
after which nothing but auxiliary cache events may mention it.
Injected faults always surface as ``fault.injected`` events emitted
*before* the fault trips (flushed even ahead of an ``os._exit``
crash), which is what makes 100% fault attribution checkable from the
log alone.
"""

from __future__ import annotations

from typing import Any, Iterable

#: Log schema tag (bump on incompatible envelope/taxonomy changes).
OBS_SCHEMA = "repro-obs/2"

#: Events emitted by the driver process.
DRIVER_EVENTS = frozenset({
    "sweep.start",       # batch accepted: size, policy, faults, code, host
    "sweep.end",         # batch finished: the ExecStats snapshot
    "spec.submitted",    # one cache-missing unique spec entered the queue
    "cache.hit",         # unique spec served from the result cache
    "cache.miss",        # unique spec not in the cache (will be simulated)
    "cache.write",       # completed summary persisted
    "cache.corrupt",     # a cache entry failed integrity and was quarantined
    "retry",             # failed attempt rescheduled with backoff
    "spec.timeout",      # an attempt exceeded the per-spec budget
    "worker.crash",      # a worker process died mid-spec (attributed)
    "worker.hung",       # driver-side backstop abandoned a wedged worker
    "pool.restart",      # the process pool was torn down and replaced
    "spec.completed",    # terminal: a summary landed
    "spec.failed",       # terminal: retries exhausted / deadline
})

#: Events emitted inside an attempt (by a pool worker, or by the driver
#: itself on the serial path).
WORKER_EVENTS = frozenset({
    "attempt.start",     # one attempt began executing
    "attempt.ok",        # the attempt returned a summary
    "attempt.error",     # the attempt raised (category + message)
    "fault.injected",    # a chaos fault is about to trip (kind)
})

EVENT_TYPES = DRIVER_EVENTS | WORKER_EVENTS

#: Terminal lifecycle events: exactly one per submitted spec.
TERMINAL_EVENTS = frozenset({"spec.completed", "spec.failed"})

#: Events that must carry a spec correlation ``key``.
SPEC_EVENTS = frozenset({
    "spec.submitted", "cache.hit", "cache.miss", "cache.write",
    "cache.corrupt", "retry", "spec.timeout", "worker.crash",
    "worker.hung", "attempt.start", "attempt.ok", "attempt.error",
    "fault.injected",
}) | TERMINAL_EVENTS

#: Envelope fields every event must carry.
ENVELOPE_FIELDS = ("type", "sweep", "src", "pid", "seq", "wall")


def validate_event(event: Any) -> None:
    """Raise ``ValueError`` unless *event* is schema-valid."""
    if not isinstance(event, dict):
        raise ValueError(f"event is not an object: {event!r}")
    for field in ENVELOPE_FIELDS:
        if field not in event:
            raise ValueError(f"event missing envelope field {field!r}: {event}")
    etype = event["type"]
    if etype not in EVENT_TYPES:
        raise ValueError(f"unknown event type {etype!r}")
    if not isinstance(event["seq"], int) or event["seq"] < 0:
        raise ValueError(f"bad seq in event: {event}")
    if not isinstance(event["wall"], (int, float)):
        raise ValueError(f"bad wall timestamp in event: {event}")
    if not isinstance(event["src"], str) or not event["src"]:
        raise ValueError(f"bad src in event: {event}")
    if etype in SPEC_EVENTS and not event.get("key"):
        raise ValueError(f"{etype} event carries no spec key: {event}")
    data = event.get("data", {})
    if not isinstance(data, dict):
        raise ValueError(f"event data is not an object: {event}")
    if etype == "fault.injected" and not data.get("kind"):
        raise ValueError(f"fault.injected event names no kind: {event}")


def validate_events(events: Iterable[dict]) -> int:
    """Validate every event plus per-writer ordering; return the count.

    Checks each event against the schema and, per ``src``, that ``seq``
    strictly increases and ``wall`` never decreases — the monotonicity
    contract each writer maintains and the merge preserves.
    """
    count = 0
    last: dict[str, tuple[int, float]] = {}
    for event in events:
        validate_event(event)
        count += 1
        src = event["src"]
        prev = last.get(src)
        if prev is not None:
            if event["seq"] <= prev[0]:
                raise ValueError(
                    f"non-monotonic seq for {src}: {prev[0]} -> {event['seq']}"
                )
            if event["wall"] < prev[1]:
                raise ValueError(
                    f"wall timestamp went backwards for {src}: "
                    f"{prev[1]} -> {event['wall']}"
                )
        last[src] = (event["seq"], event["wall"])
    return count


def spec_sequences(events: Iterable[dict]) -> dict[str, list[dict]]:
    """Group spec-scoped events by correlation key, in stream order."""
    sequences: dict[str, list[dict]] = {}
    for event in events:
        key = event.get("key")
        if key and event.get("type") in SPEC_EVENTS:
            sequences.setdefault(key, []).append(event)
    return sequences


def check_spec_sequences(events: Iterable[dict]) -> list[str]:
    """Lifecycle well-formedness problems, empty when the log is clean.

    For every spec that was ``spec.submitted``: exactly one submission,
    at least one ``attempt.start``, exactly one terminal event, and the
    terminal is the last lifecycle event for that key (cache events are
    auxiliary and may precede it).
    """
    problems: list[str] = []
    for key, seq in spec_sequences(events).items():
        types = [e["type"] for e in seq]
        short = key[:12]
        submitted = types.count("spec.submitted")
        if submitted == 0:
            if "cache.hit" in types:
                continue  # served from cache: no lifecycle to check
            problems.append(f"{short}: events without spec.submitted: {types}")
            continue
        if submitted > 1:
            problems.append(f"{short}: submitted {submitted} times")
        if "attempt.start" not in types:
            problems.append(f"{short}: submitted but never attempted")
        terminals = [t for t in types if t in TERMINAL_EVENTS]
        if len(terminals) != 1:
            problems.append(
                f"{short}: {len(terminals)} terminal events (want 1): {types}"
            )
            continue
        lifecycle = [t for t in types
                     if not t.startswith("cache.") or t == "cache.miss"]
        if lifecycle[-1] not in TERMINAL_EVENTS:
            problems.append(
                f"{short}: terminal not last (trailing {lifecycle[-1]})"
            )
    return problems
