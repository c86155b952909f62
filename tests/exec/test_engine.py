"""Sweep engine: ordering, dedup, parallel determinism, session stats."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import (
    ExecStats,
    NullCache,
    ResultCache,
    caching_enabled,
    configure,
    execute,
    reset_session_stats,
    resolve_jobs,
    run_specs,
    session_stats,
    spmspv_spec,
    spmv_spec,
)


@pytest.fixture(autouse=True)
def _clean_engine_state():
    reset_session_stats()
    configure(jobs=None, use_cache=None)
    yield
    reset_session_stats()
    configure(jobs=None, use_cache=None)


def _specs(n=4):
    return [
        spmv_spec((16, 16), 0.1 * (i + 1), accel="hht" if i % 2 else None,
                  matrix_seed=i, vector_seed=i + 10)
        for i in range(n)
    ]


def _assert_same(a, b):
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert a.cpu_wait_cycles == b.cpu_wait_cycles
    assert a.hht_stats == b.hht_stats
    assert np.array_equal(a.y, b.y)


def test_results_preserve_spec_order(tmp_path):
    specs = _specs()
    results = run_specs(specs, cache=ResultCache(tmp_path))
    for spec, summary in zip(specs, results):
        _assert_same(summary, execute(spec))


def test_parallel_equals_serial(tmp_path):
    specs = _specs(5)
    serial = run_specs(specs, jobs=1, cache=NullCache())
    parallel = run_specs(specs, jobs=2, cache=NullCache())
    for a, b in zip(serial, parallel):
        _assert_same(a, b)


def test_cached_equals_live(tmp_path):
    specs = _specs()
    live = run_specs(specs, cache=NullCache())
    cache = ResultCache(tmp_path)
    run_specs(specs, cache=cache)          # populate
    cached = run_specs(specs, cache=cache)  # all hits
    for a, b in zip(live, cached):
        _assert_same(a, b)


def test_warm_cache_runs_zero_simulations(tmp_path):
    specs = _specs()
    cache = ResultCache(tmp_path)
    run_specs(specs, cache=cache)
    reset_session_stats()
    run_specs(specs, cache=cache)
    stats = session_stats()
    assert stats.executed == 0
    assert stats.cached == len(specs)


def test_duplicate_specs_simulate_once(tmp_path):
    spec = spmv_spec((16, 16), 0.5, accel="hht", matrix_seed=1, vector_seed=2)
    reset_session_stats()
    results = run_specs([spec, spec, spec], cache=ResultCache(tmp_path))
    assert session_stats().executed == 1
    _assert_same(results[0], results[1])
    _assert_same(results[0], results[2])


def test_mixed_kernels_in_one_batch(tmp_path):
    specs = [
        spmv_spec((16, 16), 0.5, accel=None, matrix_seed=1, vector_seed=2),
        spmspv_spec(16, 0.5, mode="hht_v2", matrix_seed=3, vector_seed=4),
    ]
    results = run_specs(specs, cache=NullCache())
    assert results[0].cycles != results[1].cycles  # different kernels
    for spec, summary in zip(specs, results):
        _assert_same(summary, execute(spec))


def test_empty_batch():
    assert run_specs([]) == []


def test_resolve_jobs_precedence(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs() == 3          # env
    assert resolve_jobs(5) == 5         # explicit beats env
    configure(jobs=2)
    assert resolve_jobs() == 2          # configure beats env
    assert resolve_jobs(7) == 7         # explicit beats configure
    configure(jobs=None)
    assert resolve_jobs() == 3          # back to env


def test_caching_enabled_controls(monkeypatch):
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    assert caching_enabled()
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert not caching_enabled()
    configure(use_cache=True)
    assert caching_enabled()            # configure beats env


def test_throughput_line_formatting():
    stats = ExecStats(executed=3, cached=5, wall_seconds=2.0, jobs=4)
    line = stats.throughput_line()
    assert "3 simulated" in line
    assert "5 cached" in line
    assert "jobs=4" in line
    assert f"{stats.points_per_second:.1f} points/s" in line
    assert stats.total == 8


def test_throughput_line_surfaces_fault_counters():
    stats = ExecStats(executed=3, cached=0, wall_seconds=1.0, jobs=1,
                      retried=2, corrupt=1, pool_restarts=1)
    line = stats.throughput_line()
    assert "2 retried" in line
    assert "1 corrupt cache entries" in line
    assert "1 pool restarts" in line
    # Zero counters stay off the line entirely.
    assert "failed" not in line
    assert "quarantined" not in line


def test_points_per_second_zero_wall_clock():
    assert ExecStats(executed=4, wall_seconds=0.0).points_per_second == 0.0
    assert ExecStats().points_per_second == 0.0


def test_stats_delta_isolates_one_batch():
    before = ExecStats(executed=2, cached=1, wall_seconds=1.0, retried=1)
    after = ExecStats(executed=5, cached=4, wall_seconds=3.0, retried=2,
                      jobs=4)
    delta = after.delta(before)
    assert delta.executed == 3
    assert delta.cached == 3
    assert delta.wall_seconds == 2.0
    assert delta.retried == 1
    assert delta.jobs == 4


def test_interleaved_duplicates_keep_positions(tmp_path):
    specs = _specs(3)
    batch = [specs[0], specs[1], specs[0], specs[2], specs[1], specs[0]]
    reset_session_stats()
    results = run_specs(batch, cache=ResultCache(tmp_path))
    assert session_stats().executed == 3  # deduplicated
    for spec, summary in zip(batch, results):
        _assert_same(summary, execute(spec))


def test_null_cache_executes_every_run():
    specs = _specs(2)
    reset_session_stats()
    run_specs(specs, cache=NullCache())
    run_specs(specs, cache=NullCache())
    stats = session_stats()
    assert stats.executed == 4
    assert stats.cached == 0


def test_single_miss_skips_the_pool(tmp_path, monkeypatch):
    # Below _MIN_POOL_BATCH the fork cost is not worth it: even with a
    # generous --jobs the engine must take the serial path.
    from repro.exec import engine as engine_mod

    def _boom(*args, **kwargs):
        raise AssertionError("pool must not be constructed for one miss")

    monkeypatch.setattr(engine_mod, "ProcessPoolExecutor", _boom)
    spec = _specs(1)[0]
    results = run_specs([spec], jobs=8, cache=ResultCache(tmp_path))
    _assert_same(results[0], execute(spec))


def test_throughput_line_reports_cache_hit_rate():
    stats = ExecStats(executed=3, cached=1, wall_seconds=1.0, jobs=2)
    assert stats.cache_hit_rate == 0.25
    assert "cache 25% hit" in stats.throughput_line()
    assert ExecStats().cache_hit_rate == 0.0


def test_as_dict_carries_obs_counters():
    stats = ExecStats(executed=3, cached=1, wall_seconds=1.0, jobs=2,
                      heartbeats_seen=7, events_emitted=42, log_bytes=1234)
    d = stats.as_dict()
    assert d["heartbeats_seen"] == 7
    assert d["events_emitted"] == 42
    assert d["log_bytes"] == 1234
    assert d["cache_hit_rate"] == 0.25
    # Every numeric field survives a JSON round-trip (the bench suite
    # and obs stats.json both persist this dict).
    import json

    assert json.loads(json.dumps(d)) == d


def test_delta_covers_obs_counters():
    before = ExecStats(executed=2, heartbeats_seen=3, events_emitted=10,
                       log_bytes=100)
    after = ExecStats(executed=5, heartbeats_seen=8, events_emitted=25,
                      log_bytes=350, wall_seconds=1.0)
    delta = after.delta(before)
    assert delta.heartbeats_seen == 5
    assert delta.events_emitted == 15
    assert delta.log_bytes == 250
    # And add() is delta()'s inverse.
    rebuilt = ExecStats(executed=2, heartbeats_seen=3, events_emitted=10,
                        log_bytes=100)
    rebuilt.add(delta)
    assert rebuilt.heartbeats_seen == after.heartbeats_seen
    assert rebuilt.events_emitted == after.events_emitted
    assert rebuilt.log_bytes == after.log_bytes
