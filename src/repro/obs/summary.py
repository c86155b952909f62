"""Sweep log analytics: per-spec outcomes, latency percentiles,
retry histograms and failure breakdowns.

:class:`SweepSummary` is built purely from an ordered event stream
(:func:`repro.obs.log.load_events`), so it works on finished sweeps,
on crashed sweeps whose driver never merged, and in CI validation —
no live engine state required.  It backs ``repro obs summary`` and the
quantile/histogram families of :mod:`repro.obs.metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .events import TERMINAL_EVENTS


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile of *values* (q in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


@dataclass
class SpecRecord:
    """One spec's lifecycle as reconstructed from the log."""

    key: str
    label: str = ""
    attempts: int = 0
    outcome: str = "pending"  # completed | failed | cache-hit
    #: Seconds spent inside finished attempts (``attempt.ok/error``).
    busy_seconds: float = 0.0
    #: Wall seconds from submission to the terminal event.
    latency: float | None = None
    _submitted: float | None = None
    faults: list[str] = field(default_factory=list)
    categories: list[str] = field(default_factory=list)


class SweepSummary:
    """Aggregated view of one sweep's event log."""

    def __init__(self) -> None:
        self.sweep_id = ""
        self.specs: dict[str, SpecRecord] = {}
        self.cache = {"hit": 0, "miss": 0, "write": 0, "corrupt": 0}
        self.faults_by_kind: dict[str, int] = {}
        self.failures_by_category: dict[str, int] = {}
        self.retries = 0
        self.timeouts = 0
        self.worker_crashes = 0
        self.workers_hung = 0
        self.pool_restarts = 0
        self.events = 0
        self.wall_seconds = 0.0
        self.stats: dict | None = None  # ExecStats snapshot from sweep.end

    # -- construction ------------------------------------------------------
    @classmethod
    def from_events(cls, events: Iterable[dict]) -> "SweepSummary":
        summary = cls()
        first_wall = last_wall = None
        for event in events:
            summary.events += 1
            wall = float(event.get("wall", 0.0))
            if first_wall is None:
                first_wall = wall
            last_wall = wall
            summary._fold(event, wall)
        if first_wall is not None and last_wall is not None:
            summary.wall_seconds = last_wall - first_wall
        return summary

    def _spec(self, event: dict) -> SpecRecord:
        key = event.get("key", "")
        record = self.specs.get(key)
        if record is None:
            record = self.specs[key] = SpecRecord(key=key)
        if not record.label and event.get("label"):
            record.label = event["label"]
        return record

    def _fold(self, event: dict, wall: float) -> None:
        etype = event.get("type", "")
        data = event.get("data", {})
        if etype == "sweep.start":
            self.sweep_id = event.get("sweep", "")
            return
        if etype == "sweep.end":
            if isinstance(data.get("stats"), dict):
                self.stats = data["stats"]
            return
        if etype == "pool.restart":
            self.pool_restarts += 1
            return
        if etype.startswith("cache."):
            kind = etype.split(".", 1)[1]
            self.cache[kind] = self.cache.get(kind, 0) + 1
            if etype in ("cache.hit", "cache.miss"):
                record = self._spec(event)
                if etype == "cache.hit":
                    record.outcome = "cache-hit"
            return
        if not event.get("key"):
            return
        record = self._spec(event)
        if etype == "spec.submitted":
            record._submitted = wall
        elif etype == "attempt.start":
            record.attempts = max(record.attempts,
                                  int(event.get("attempt", 0)) or
                                  record.attempts + 1)
        elif etype in ("attempt.ok", "attempt.error"):
            record.busy_seconds += float(data.get("seconds", 0.0))
            if etype == "attempt.error" and data.get("category"):
                record.categories.append(data["category"])
        elif etype == "fault.injected":
            kind = data.get("kind", "?")
            record.faults.append(kind)
            self.faults_by_kind[kind] = self.faults_by_kind.get(kind, 0) + 1
        elif etype == "retry":
            self.retries += 1
        elif etype == "spec.timeout":
            self.timeouts += 1
        elif etype == "worker.crash":
            self.worker_crashes += 1
        elif etype == "worker.hung":
            self.workers_hung += 1
        elif etype in TERMINAL_EVENTS:
            record.outcome = etype.split(".", 1)[1]
            if record._submitted is not None:
                record.latency = wall - record._submitted
            if etype == "spec.failed":
                category = data.get("category", "error")
                self.failures_by_category[category] = (
                    self.failures_by_category.get(category, 0) + 1)

    # -- analytics ---------------------------------------------------------
    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.specs.values():
            counts[record.outcome] = counts.get(record.outcome, 0) + 1
        return counts

    def latencies(self) -> list[float]:
        """Submission-to-terminal wall seconds of every finished spec."""
        return [r.latency for r in self.specs.values()
                if r.latency is not None]

    def latency_percentiles(self, qs: tuple[float, ...] = (0.5, 0.9, 0.99)
                            ) -> dict[float, float]:
        values = self.latencies()
        return {q: percentile(values, q) for q in qs}

    def retry_histogram(self) -> dict[int, int]:
        """Specs per attempt count (1 = first try, 2 = one retry, …)."""
        histogram: dict[int, int] = {}
        for record in self.specs.values():
            if record.attempts:
                histogram[record.attempts] = (
                    histogram.get(record.attempts, 0) + 1)
        return dict(sorted(histogram.items()))

    # -- rendering ---------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "sweep_id": self.sweep_id,
            "events": self.events,
            "wall_seconds": self.wall_seconds,
            "specs": len(self.specs),
            "outcomes": self.outcome_counts(),
            "latency_percentiles": {
                f"p{int(q * 100)}": value
                for q, value in self.latency_percentiles().items()
            },
            "retry_histogram": {str(k): v
                                for k, v in self.retry_histogram().items()},
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_crashes": self.worker_crashes,
            "workers_hung": self.workers_hung,
            "pool_restarts": self.pool_restarts,
            "cache": dict(self.cache),
            "faults_by_kind": dict(self.faults_by_kind),
            "failures_by_category": dict(self.failures_by_category),
        }

    def render_lines(self) -> list[str]:
        lines = [f"sweep {self.sweep_id or '<unknown>'}: "
                 f"{len(self.specs)} specs, {self.events} events, "
                 f"{self.wall_seconds:.2f}s logged span"]
        outcomes = self.outcome_counts()
        if outcomes:
            lines.append("outcomes    : " + ", ".join(
                f"{count} {name}" for name, count in sorted(outcomes.items())))
        values = self.latencies()
        if values:
            p = self.latency_percentiles()
            lines.append(
                f"latency     : p50 {p[0.5]:.3f}s  p90 {p[0.9]:.3f}s  "
                f"p99 {p[0.99]:.3f}s  max {max(values):.3f}s"
            )
        histogram = self.retry_histogram()
        if histogram:
            lines.append("attempts    : " + ", ".join(
                f"{attempts}x:{count}" for attempts, count
                in histogram.items()))
        lines.append(
            f"cache       : {self.cache.get('hit', 0)} hit, "
            f"{self.cache.get('miss', 0)} miss, "
            f"{self.cache.get('write', 0)} written, "
            f"{self.cache.get('corrupt', 0)} corrupt"
        )
        if self.retries or self.timeouts or self.worker_crashes \
                or self.workers_hung or self.pool_restarts:
            lines.append(
                f"turbulence  : {self.retries} retries, "
                f"{self.timeouts} timeouts, "
                f"{self.worker_crashes} worker crashes, "
                f"{self.workers_hung} hung, "
                f"{self.pool_restarts} pool restarts"
            )
        if self.faults_by_kind:
            lines.append("faults      : " + ", ".join(
                f"{kind}:{count}" for kind, count
                in sorted(self.faults_by_kind.items())))
        if self.failures_by_category:
            lines.append("failures    : " + ", ".join(
                f"{category}:{count}" for category, count
                in sorted(self.failures_by_category.items())))
        return lines


def format_event(event: dict) -> str:
    """One human-readable line per event (the ``repro obs tail`` view)."""
    wall = event.get("wall", 0.0)
    etype = event.get("type", "?")
    src = event.get("src", "?")
    parts = [f"{wall:.3f}", f"{src:<12}", f"{etype:<16}"]
    if event.get("key"):
        parts.append(event["key"][:12])
    if event.get("attempt"):
        parts.append(f"attempt={event['attempt']}")
    if event.get("label"):
        parts.append(event["label"])
    data = event.get("data", {})
    if data:
        extras = " ".join(
            f"{name}={value}" for name, value in data.items()
            if not isinstance(value, (dict, list))
        )
        if extras:
            parts.append(extras)
    return " ".join(parts)
