"""Engine-level obs integration: clean logs under chaos, 100% fault
attribution, hang naming, and bit-identity with obs off.

Chaos seeds are probed deterministically (the rolls are pure hashes of
(seed, kind, payload key, attempt) — see tests/exec/test_chaos.py), so
every scenario reproduces exactly while staying correct when the
payload keys legitimately change.
"""

from __future__ import annotations

import numpy as np

from repro.exec import (
    ExecPolicy,
    FaultPlan,
    NullCache,
    ResultCache,
    cache_key,
    payload_key,
    reset_session_stats,
    run_specs,
    session_stats,
    spmv_spec,
)
from repro.exec.engine import _Driver, _Pending, ExecStats
from repro.obs import (
    ObsLog,
    SweepSummary,
    check_spec_sequences,
    load_events,
    load_stats,
    spec_sequences,
    validate_events,
)
from repro.obs.heartbeat import beat

SPECS = [
    spmv_spec((16, 16), 0.1 * (i + 1), accel="hht" if i % 2 else None,
              matrix_seed=i, vector_seed=i + 10)
    for i in range(4)
]
FKEYS = [payload_key(s) for s in SPECS]
CKEYS = [cache_key(s) for s in SPECS]


def _find_plan(make_plan, predicate):
    for seed in range(500):
        plan = make_plan(seed)
        if predicate(plan):
            return plan
    raise AssertionError("no suitable chaos seed in range")


def _converges(plan, kinds, within):
    return all(
        any(not any(plan.roll(kind, key, a) for kind in kinds)
            for a in range(1, within + 1))
        for key in FKEYS
    )


def _run_logged(tmp_path, *, jobs, cache=None, policy=None, faults=None):
    obs = ObsLog.create(tmp_path / "obs")
    results = run_specs(
        SPECS, jobs=jobs, cache=cache if cache is not None else NullCache(),
        policy=policy or ExecPolicy(),
        faults=faults if faults is not None else FaultPlan(),
        obs=obs,
    )
    return results, obs.sweep_dir


def test_clean_sweep_log_is_well_formed(tmp_path):
    reset_session_stats()
    results, sweep_dir = _run_logged(tmp_path, jobs=1)
    events = load_events(sweep_dir)
    assert validate_events(events) == len(events) > 0
    assert check_spec_sequences(events) == []
    types = [e["type"] for e in events]
    assert types[0] == "sweep.start"
    assert types[-1] == "sweep.end"
    assert types.count("spec.submitted") == len(SPECS)
    assert types.count("spec.completed") == len(SPECS)
    assert types.count("cache.miss") == len(SPECS)
    # Every spec event correlates through its cache key.
    assert set(spec_sequences(events)) == set(CKEYS)
    # The driver's start event records the batch provenance.
    start = events[0]["data"]
    assert start["n_specs"] == len(SPECS)
    assert start["code"] and start["host"]
    assert start["policy"]["retries"] == 0
    # Final counters land in stats.json (post-merge).
    stats = load_stats(sweep_dir)
    assert stats["executed"] == len(SPECS)
    assert stats["events_emitted"] == len(events)
    assert stats["log_bytes"] > 0


def test_cache_hits_are_logged_and_counted(tmp_path):
    cache = ResultCache(tmp_path / "cache", faults=FaultPlan())
    _run_logged(tmp_path / "a", jobs=1, cache=cache)
    reset_session_stats()
    results, sweep_dir = _run_logged(tmp_path / "b", jobs=1, cache=cache)
    events = load_events(sweep_dir)
    assert check_spec_sequences(events) == []
    types = [e["type"] for e in events]
    assert types.count("cache.hit") == len(SPECS)
    assert types.count("spec.submitted") == 0
    stats = session_stats()
    assert stats.cached == len(SPECS)
    assert stats.cache_hit_rate == 1.0


def test_chaos_pool_sweep_sequences_and_fault_attribution(tmp_path):
    # Pooled chaos: crashes and flaky faults with full retry headroom.
    # The log must stay lifecycle-clean and attribute every injected
    # fault the plan says tripped.
    plan = _find_plan(
        lambda s: FaultPlan(crash=0.15, flaky=0.3, seed=s),
        lambda p: (any(p.roll("crash", k, 1) for k in FKEYS)
                   and any(p.roll("flaky", k, a)
                           for k in FKEYS for a in (1, 2))
                   and _converges(p, ["crash", "flaky"], within=6)),
    )
    reset_session_stats()
    results, sweep_dir = _run_logged(
        tmp_path, jobs=2,
        policy=ExecPolicy(retries=5, backoff=0.01), faults=plan)
    assert all(r is not None for r in results)

    events = load_events(sweep_dir)
    assert validate_events(events) == len(events)
    assert check_spec_sequences(events) == []

    # 100% fault attribution: replay the pure rolls over the attempts
    # the log records; each tripped (kind, spec, attempt) must have its
    # fault.injected event, keyed by the spec's correlation key.
    logged = {(e["data"]["kind"], e["key"], e.get("attempt", 0))
              for e in events if e["type"] == "fault.injected"}
    expected = set()
    for fkey, ckey in zip(FKEYS, CKEYS):
        attempts = max((e.get("attempt", 0) for e in events
                        if e.get("key") == ckey
                        and e["type"] == "attempt.start"), default=0)
        for attempt in range(1, attempts + 1):
            if plan.roll("crash", fkey, attempt):
                # The worker died: later kinds never rolled this attempt.
                expected.add(("crash", ckey, attempt))
                continue
            if plan.roll("flaky", fkey, attempt):
                expected.add(("flaky", ckey, attempt))
    assert logged == expected
    assert expected  # the probe guaranteed real faults

    # Crash forensics: each crash roll surfaces as a worker.crash event.
    crash_keys = {e["key"] for e in events if e["type"] == "worker.crash"}
    expected_crash = {ckey for kind, ckey, _ in expected if kind == "crash"}
    assert crash_keys == expected_crash


def test_cache_corrupt_faults_are_attributed(tmp_path):
    plan = FaultPlan(cache_corrupt=1.0, seed=3)
    cache = ResultCache(tmp_path / "cache", faults=plan)
    reset_session_stats()
    results, sweep_dir = _run_logged(tmp_path, jobs=1, cache=cache)
    events = load_events(sweep_dir)
    assert check_spec_sequences(events) == []
    corrupt_faults = [e for e in events if e["type"] == "fault.injected"
                      and e["data"]["kind"] == "cache-corrupt"]
    assert {e["key"] for e in corrupt_faults} == set(CKEYS)

    # Re-reading the damaged cache logs the quarantine events too.
    reader = ResultCache(tmp_path / "cache", faults=FaultPlan())
    reset_session_stats()
    results, sweep_dir = _run_logged(tmp_path / "b", jobs=1, cache=reader)
    events = load_events(sweep_dir)
    assert check_spec_sequences(events) == []
    assert {e["key"] for e in events
            if e["type"] == "cache.corrupt"} == set(CKEYS)


def test_obs_off_is_bit_identical_to_obs_on(tmp_path):
    reset_session_stats()
    bare = run_specs(SPECS, jobs=1, cache=NullCache(),
                     policy=ExecPolicy(), faults=FaultPlan())
    reset_session_stats()
    logged, _ = _run_logged(tmp_path, jobs=1)
    for a, b in zip(bare, logged):
        assert a.cycles == b.cycles
        assert a.instructions == b.instructions
        assert np.array_equal(a.y, b.y)


def test_heartbeats_flow_back_into_stats(tmp_path):
    # Pool path with enough work to outlive the 0.25s poll throttle.
    specs = [spmv_spec((32, 32), 0.3 + 0.02 * i, matrix_seed=i,
                       vector_seed=i)
             for i in range(8)]
    obs = ObsLog.create(tmp_path / "obs")
    reset_session_stats()
    run_specs(specs, jobs=2, cache=NullCache(), policy=ExecPolicy(),
              faults=FaultPlan(), obs=obs)
    stats = session_stats()
    assert stats.heartbeats_seen >= 1
    # Attribution: heartbeat records name real spec correlation keys.
    merged = load_events(obs.sweep_dir)
    attempt_keys = {e["key"] for e in merged
                    if e["type"] == "attempt.start"}
    assert attempt_keys == {cache_key(s) for s in specs}


def test_hung_worker_is_named_by_its_heartbeat(tmp_path, monkeypatch):
    # Drive _abandon_hung directly with a synthetic wedged future and a
    # heartbeat file naming the spec: the timeout error and the
    # worker.hung event must both name the holder.
    from repro.exec import engine as engine_mod

    class FakePool:
        def shutdown(self, wait=False, cancel_futures=False):
            pass

    class FakeFuture:
        def done(self):
            return False

    monkeypatch.setattr(engine_mod, "ProcessPoolExecutor",
                        lambda max_workers, initializer: FakePool())

    obs = ObsLog.create(tmp_path / "obs")
    spec = SPECS[0]
    key = cache_key(spec)
    beat(obs.heartbeat_dir, key=key, label="hung spmv", attempt=1)
    worker_pid = __import__("os").getpid()

    p = _Pending(spec=spec, key=key, fkey=payload_key(spec),
                 label="hung spmv", indices=[0], attempts=1)
    driver = _Driver(
        policy=ExecPolicy(timeout=0.1, retries=0, on_error="collect"),
        plan=FaultPlan(), cache=NullCache(), results=[None],
        stats=ExecStats(), deadline_at=None, workers=1, obs=obs,
    )
    future = FakeFuture()
    driver._abandon_hung(FakePool(), [(future, p)], {future: p}, [],
                         tmp_path / "crumbs")

    record = driver.stats.failures[0]
    assert record.key == key
    assert f"worker pid {worker_pid}" in record.message
    assert "last heartbeat" in record.message

    obs.finalize()
    events = load_events(obs.sweep_dir)
    hung = [e for e in events if e["type"] == "worker.hung"]
    assert len(hung) == 1
    assert hung[0]["key"] == key
    assert hung[0]["data"]["worker_pid"] == worker_pid
    assert hung[0]["data"]["heartbeat_age"] >= 0.0
    restart = next(e for e in events if e["type"] == "pool.restart")
    assert restart["data"]["reason"] == "hung-workers"


def test_summary_reconstructs_the_chaos_run(tmp_path):
    plan = _find_plan(
        lambda s: FaultPlan(flaky=0.3, seed=s),
        lambda p: (any(p.roll("flaky", k, 1) for k in FKEYS)
                   and _converges(p, ["flaky"], within=5)),
    )
    reset_session_stats()
    results, sweep_dir = _run_logged(
        tmp_path, jobs=1, policy=ExecPolicy(retries=4, backoff=0.01),
        faults=plan)
    summary = SweepSummary.from_events(load_events(sweep_dir))
    assert summary.outcome_counts() == {"completed": len(SPECS)}
    assert summary.retries == session_stats().retried >= 1
    assert summary.faults_by_kind.get("flaky", 0) >= 1
    assert sum(summary.retry_histogram().values()) == len(SPECS)
    assert len(summary.latencies()) == len(SPECS)
    assert summary.stats is not None  # sweep.end snapshot folded in
