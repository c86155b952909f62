"""OpenMetrics / Prometheus text exposition for sweep stats.

:func:`render_metrics` turns an ``ExecStats`` snapshot (plus, when an
event log is available, a :class:`~repro.obs.summary.SweepSummary`)
into the Prometheus text format — ``# TYPE`` headers, label sets,
``_count``/``_sum`` series for the latency summary and the attempt
histogram, terminated by the OpenMetrics ``# EOF`` marker.  The output
of ``repro obs metrics`` can be dropped into a node-exporter textfile
collector or scraped from a file as-is.

:func:`parse_metrics` is the matching reader: a small parser for the
subset we emit, used by the tests and the CI round-trip gate so the
exposition stays machine-parseable by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .summary import SweepSummary

#: ``le`` bucket bounds of the attempts-per-spec histogram.
_ATTEMPT_BUCKETS = (1.0, 2.0, 3.0, 5.0, 8.0)

#: Latency summary quantiles.
_QUANTILES = (0.5, 0.9, 0.99)


def _fmt(value: float) -> str:
    """Prometheus sample value: integers stay integral."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def _labels(pairs: dict[str, str]) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in pairs.items())
    return "{" + inner + "}"


class _Exposition:
    """Accumulates families in emission order."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def family(self, name: str, mtype: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {mtype}")

    def sample(self, name: str, value: float,
               labels: dict[str, str] | None = None) -> None:
        self.lines.append(f"{name}{_labels(labels or {})} {_fmt(value)}")

    def text(self) -> str:
        return "\n".join(self.lines + ["# EOF"]) + "\n"


def render_metrics(stats: dict, *, summary: "SweepSummary | None" = None,
                   sweep_id: str = "") -> str:
    """Render an ``ExecStats.as_dict()`` snapshot as Prometheus text."""
    exp = _Exposition()
    base = {"sweep": sweep_id} if sweep_id else {}

    exp.family("repro_sweep_points_total", "counter",
               "Sweep points resolved, by how they were served.")
    exp.sample("repro_sweep_points_total", stats.get("executed", 0),
               {**base, "kind": "executed"})
    exp.sample("repro_sweep_points_total", stats.get("cached", 0),
               {**base, "kind": "cached"})

    exp.family("repro_sweep_wall_seconds", "gauge",
               "Wall-clock seconds the sweep engine spent.")
    exp.sample("repro_sweep_wall_seconds",
               stats.get("wall_seconds", 0.0), base)

    exp.family("repro_sweep_points_per_second", "gauge",
               "Resolved points per wall second.")
    exp.sample("repro_sweep_points_per_second",
               stats.get("points_per_second", 0.0), base)

    exp.family("repro_sweep_jobs", "gauge",
               "Worker processes the sweep ran with.")
    exp.sample("repro_sweep_jobs", stats.get("jobs", 0), base)

    exp.family("repro_sweep_cache_hit_ratio", "gauge",
               "Fraction of requested points served from the cache.")
    total = stats.get("executed", 0) + stats.get("cached", 0)
    hit_ratio = stats.get("cached", 0) / total if total else 0.0
    exp.sample("repro_sweep_cache_hit_ratio", hit_ratio, base)

    for counter, help_text in (
        ("retried", "Attempts that were rescheduled after a retryable error."),
        ("failed", "Specs that exhausted retries or hit the deadline."),
        ("corrupt", "Cache entries that failed integrity verification."),
        ("pool_restarts", "Times the worker pool was torn down and rebuilt."),
    ):
        name = f"repro_sweep_{counter}_total"
        exp.family(name, "counter", help_text)
        exp.sample(name, stats.get(counter, 0), base)

    exp.family("repro_obs_events_total", "counter",
               "Events written to the sweep's observability log.")
    exp.sample("repro_obs_events_total", stats.get("events_emitted", 0), base)
    exp.family("repro_obs_heartbeats_total", "counter",
               "Worker heartbeat updates the driver observed.")
    exp.sample("repro_obs_heartbeats_total",
               stats.get("heartbeats_seen", 0), base)
    exp.family("repro_obs_log_bytes", "gauge",
               "Size of the merged observability log.")
    exp.sample("repro_obs_log_bytes", stats.get("log_bytes", 0), base)

    if summary is not None:
        _render_summary_families(exp, summary, base)
    return exp.text()


def _render_summary_families(exp: _Exposition, summary: "SweepSummary",
                             base: dict[str, str]) -> None:
    latencies = summary.latencies()
    exp.family("repro_spec_latency_seconds", "summary",
               "Submission-to-terminal latency per executed spec.")
    percentiles = summary.latency_percentiles(_QUANTILES)
    for q in _QUANTILES:
        exp.sample("repro_spec_latency_seconds", percentiles[q],
                   {**base, "quantile": str(q)})
    exp.sample("repro_spec_latency_seconds_count", len(latencies), base)
    exp.sample("repro_spec_latency_seconds_sum", sum(latencies), base)

    histogram = summary.retry_histogram()
    exp.family("repro_spec_attempts", "histogram",
               "Attempts needed per executed spec.")
    cumulative = 0
    observations = sorted(histogram.items())
    for bound in _ATTEMPT_BUCKETS:
        cumulative = sum(count for attempts, count in observations
                         if attempts <= bound)
        exp.sample("repro_spec_attempts_bucket", cumulative,
                   {**base, "le": _fmt(bound)})
    total = sum(histogram.values())
    exp.sample("repro_spec_attempts_bucket", total, {**base, "le": "+Inf"})
    exp.sample("repro_spec_attempts_count", total, base)
    exp.sample("repro_spec_attempts_sum",
               sum(attempts * count for attempts, count in observations),
               base)

    exp.family("repro_spec_failures_total", "counter",
               "Terminal spec failures by error category.")
    for category, count in sorted(summary.failures_by_category.items()):
        exp.sample("repro_spec_failures_total", count,
                   {**base, "category": category})

    exp.family("repro_faults_injected_total", "counter",
               "Chaos faults injected, by kind.")
    for kind, count in sorted(summary.faults_by_kind.items()):
        exp.sample("repro_faults_injected_total", count,
                   {**base, "kind": kind})


# ---------------------------------------------------------------------------
# Parsing (tests + CI round-trip gate)
# ---------------------------------------------------------------------------
def parse_metrics(text: str) -> dict[tuple[str, tuple[tuple[str, str], ...]],
                                     float]:
    """Parse the exposition back into ``{(name, labels): value}``.

    Handles exactly the subset :func:`render_metrics` emits.  Raises
    ``ValueError`` on malformed lines or a missing ``# EOF`` terminator,
    so a round-trip failure is loud.
    """
    samples: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    saw_eof = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(f"malformed comment line: {raw!r}")
            continue
        if saw_eof:
            raise ValueError(f"sample after # EOF: {raw!r}")
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"malformed sample line: {raw!r}")
        labels: tuple[tuple[str, str], ...] = ()
        name = name_part
        if "{" in name_part:
            if not name_part.endswith("}"):
                raise ValueError(f"malformed label set: {raw!r}")
            name, _, label_blob = name_part.partition("{")
            pairs = []
            for item in label_blob[:-1].split(","):
                label_name, eq, label_value = item.partition("=")
                if not eq or len(label_value) < 2 \
                        or not label_value.startswith('"') \
                        or not label_value.endswith('"'):
                    raise ValueError(f"malformed label {item!r} in: {raw!r}")
                pairs.append((label_name, label_value[1:-1]))
            labels = tuple(pairs)
        try:
            value = float(value_part)
        except ValueError as exc:
            raise ValueError(f"malformed value in: {raw!r}") from exc
        samples[(name, labels)] = value
    if not saw_eof:
        raise ValueError("exposition does not end with # EOF")
    return samples


__all__ = ["parse_metrics", "render_metrics"]
