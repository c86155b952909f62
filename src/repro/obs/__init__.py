"""Sweep-level observability for the :mod:`repro.exec` engine.

Structured JSONL event logs with per-sweep correlation ids
(:mod:`~repro.obs.log`, taxonomy in :mod:`~repro.obs.events`), worker
heartbeats for live progress and hang attribution
(:mod:`~repro.obs.heartbeat`, :mod:`~repro.obs.progress`), a
sweep-level chrome-trace exporter (:mod:`~repro.obs.trace`), log
analytics (:mod:`~repro.obs.summary`) and Prometheus/OpenMetrics text
exposition (:mod:`~repro.obs.metrics`).

Everything is off — and provably zero-cost — unless a sweep is armed
with ``--obs-log`` or ``$REPRO_OBS_DIR``; the engine then logs the full
spec lifecycle across driver and workers, survives worker crashes
(per-writer append files, flushed per line), and merges a single
ordered ``events.jsonl`` at sweep end.
"""

from .events import (
    DRIVER_EVENTS,
    ENVELOPE_FIELDS,
    EVENT_TYPES,
    OBS_SCHEMA,
    SPEC_EVENTS,
    TERMINAL_EVENTS,
    WORKER_EVENTS,
    check_spec_sequences,
    spec_sequences,
    validate_event,
    validate_events,
)
from .heartbeat import (
    Heartbeat,
    attribute,
    beat,
    clear,
    read_heartbeats,
)
from .log import (
    ENV_OBS_DIR,
    NULL_OBS,
    NullObsLog,
    ObsLog,
    ObsWriter,
    default_obs_dir,
    list_sweeps,
    load_events,
    load_stats,
    merge_events,
    new_sweep_id,
    read_events,
    resolve_sweep_dir,
    validate_log,
    worker_writer,
)
from .metrics import parse_metrics, render_metrics
from .progress import ProgressLine
from .summary import SpecRecord, SweepSummary, format_event, percentile
from .trace import SWEEP_TRACE_SCHEMA, sweep_trace, write_sweep_trace

__all__ = [
    "DRIVER_EVENTS",
    "ENVELOPE_FIELDS",
    "ENV_OBS_DIR",
    "EVENT_TYPES",
    "Heartbeat",
    "NULL_OBS",
    "NullObsLog",
    "OBS_SCHEMA",
    "ObsLog",
    "ObsWriter",
    "ProgressLine",
    "SPEC_EVENTS",
    "SWEEP_TRACE_SCHEMA",
    "SpecRecord",
    "SweepSummary",
    "TERMINAL_EVENTS",
    "WORKER_EVENTS",
    "attribute",
    "beat",
    "check_spec_sequences",
    "clear",
    "default_obs_dir",
    "format_event",
    "list_sweeps",
    "load_events",
    "load_stats",
    "merge_events",
    "new_sweep_id",
    "parse_metrics",
    "percentile",
    "read_events",
    "read_heartbeats",
    "render_metrics",
    "resolve_sweep_dir",
    "spec_sequences",
    "sweep_trace",
    "validate_event",
    "validate_events",
    "validate_log",
    "worker_writer",
    "write_sweep_trace",
]
