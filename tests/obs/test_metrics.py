"""OpenMetrics exposition render + parse round-trip."""

from __future__ import annotations

import pytest

from repro.obs import SweepSummary, parse_metrics, render_metrics

STATS = {
    "executed": 7, "cached": 3, "failed": 1, "retried": 2,
    "corrupt": 1, "pool_restarts": 1,
    "wall_seconds": 2.5, "points_per_second": 4.0, "jobs": 2,
    "events_emitted": 55, "heartbeats_seen": 9, "log_bytes": 4096,
}


def _summary():
    events = []
    wall = 1.0
    for i, attempts in enumerate([1, 1, 3]):
        key = f"key{i}"
        events.append({"type": "spec.submitted", "sweep": "s",
                       "src": "driver", "pid": 1, "seq": len(events),
                       "wall": wall, "key": key})
        for a in range(1, attempts + 1):
            events.append({"type": "attempt.start", "sweep": "s",
                           "src": "worker-9", "pid": 9, "seq": len(events),
                           "wall": wall + 0.1 * a, "key": key,
                           "attempt": a})
        events.append({"type": "spec.completed", "sweep": "s",
                       "src": "driver", "pid": 1, "seq": len(events),
                       "wall": wall + 1.0, "key": key})
        wall += 2.0
    events.append({"type": "spec.failed", "sweep": "s", "src": "driver",
                   "pid": 1, "seq": len(events), "wall": wall, "key": "bad",
                   "data": {"category": "timeout"}})
    events.append({"type": "fault.injected", "sweep": "s", "src": "worker-9",
                   "pid": 9, "seq": len(events), "wall": wall, "key": "bad",
                   "data": {"kind": "flaky"}})
    return SweepSummary.from_events(events)


def test_exposition_shape():
    text = render_metrics(STATS, sweep_id="s1")
    assert text.endswith("# EOF\n")
    lines = text.splitlines()
    # Every family carries both HELP and TYPE headers.
    helps = {l.split()[2] for l in lines if l.startswith("# HELP")}
    types = {l.split()[2] for l in lines if l.startswith("# TYPE")}
    assert helps == types
    assert "repro_sweep_points_total" in helps


def test_round_trip_values():
    samples = parse_metrics(render_metrics(STATS, sweep_id="s1"))
    sweep = (("sweep", "s1"),)
    assert samples[("repro_sweep_points_total",
                    sweep + (("kind", "executed"),))] == 7
    assert samples[("repro_sweep_points_total",
                    sweep + (("kind", "cached"),))] == 3
    assert samples[("repro_sweep_wall_seconds", sweep)] == 2.5
    assert samples[("repro_sweep_cache_hit_ratio", sweep)] == 0.3
    assert samples[("repro_sweep_retried_total", sweep)] == 2
    assert samples[("repro_obs_events_total", sweep)] == 55
    assert samples[("repro_obs_heartbeats_total", sweep)] == 9
    assert samples[("repro_obs_log_bytes", sweep)] == 4096


def test_summary_families_round_trip():
    samples = parse_metrics(render_metrics(STATS, summary=_summary()))
    # Latency summary: 4 finished specs (3 completed + 1 failed... the
    # failed one has no submission, so 3 latencies of 1.0s each).
    assert samples[("repro_spec_latency_seconds_count", ())] == 3
    assert samples[("repro_spec_latency_seconds_sum", ())] == pytest.approx(3.0)
    assert samples[("repro_spec_latency_seconds",
                    (("quantile", "0.5"),))] == pytest.approx(1.0)
    # Attempt histogram: two 1-attempt specs, one 3-attempt spec.
    assert samples[("repro_spec_attempts_bucket", (("le", "1"),))] == 2
    assert samples[("repro_spec_attempts_bucket", (("le", "3"),))] == 3
    assert samples[("repro_spec_attempts_bucket", (("le", "+Inf"),))] == 3
    assert samples[("repro_spec_attempts_count", ())] == 3
    assert samples[("repro_spec_attempts_sum", ())] == 5
    assert samples[("repro_spec_failures_total",
                    (("category", "timeout"),))] == 1
    assert samples[("repro_faults_injected_total",
                    (("kind", "flaky"),))] == 1


def test_integer_values_render_integral():
    text = render_metrics(STATS)
    line = next(l for l in text.splitlines()
                if l.startswith("repro_sweep_jobs"))
    assert line.endswith(" 2")


@pytest.mark.parametrize("mutation", [
    lambda t: t.replace("# EOF\n", ""),             # missing terminator
    lambda t: t + "repro_bad{oops} nan nan\n",      # sample after EOF
    lambda t: t.replace('kind="executed"', "kind=executed"),  # bad label
])
def test_parse_rejects_malformed(mutation):
    text = mutation(render_metrics(STATS, sweep_id="s1"))
    with pytest.raises(ValueError):
        parse_metrics(text)


def test_empty_stats_still_parse():
    samples = parse_metrics(render_metrics({}))
    assert samples[("repro_sweep_points_total", (("kind", "executed"),))] == 0
