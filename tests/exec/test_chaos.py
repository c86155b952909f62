"""Chaos suite: every fault-policy path converges to the clean run.

Fault rolls are pure hashes of (seed, kind, payload key, attempt), so
each scenario *probes* for a seed with the fault shape it needs — the
probe lands on the same seed every run, yet stays correct when the
payload keys legitimately change (new config fields, the compiled
backend's ``cpu.backend`` flavour, ...).  Each scenario then asserts
bit-identity against a clean serial run — fault tolerance must change
*whether* a sweep survives, never *what* it computes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec import (
    DeadlineExceeded,
    ExecError,
    ExecPolicy,
    FaultPlan,
    NullCache,
    ResultCache,
    WorkerCrash,
    payload_key,
    reset_session_stats,
    run_specs,
    session_stats,
    spmv_spec,
)

SPECS = [
    spmv_spec((16, 16), 0.1 * (i + 1), accel="hht" if i % 2 else None,
              matrix_seed=i, vector_seed=i + 10)
    for i in range(4)
]
KEYS = [payload_key(s) for s in SPECS]


def _converges(plan, kinds, within):
    """Every spec has a fault-free attempt within the retry budget."""
    return all(
        any(not any(plan.roll(kind, key, a) for kind in kinds)
            for a in range(1, within + 1))
        for key in KEYS
    )


def _find_plan(make_plan, predicate):
    """Deterministically probe for a chaos seed with the wanted shape.

    Rolls are pure functions of (seed, kind, payload key, attempt), so
    probing here picks the same seed on every run — but stays correct
    when the payload keys legitimately change (e.g. the compiled
    backend flavours ``cpu.backend`` into every spec payload).
    """
    for seed in range(500):
        plan = make_plan(seed)
        if predicate(plan):
            return plan
    raise AssertionError("no suitable chaos seed in range")


@pytest.fixture(autouse=True)
def _clean_session():
    reset_session_stats()
    yield
    reset_session_stats()


@pytest.fixture(scope="module")
def clean():
    """Ground truth: clean serial run, injection explicitly disabled."""
    return run_specs(SPECS, jobs=1, cache=NullCache(), faults=FaultPlan(),
                     policy=ExecPolicy())


def _assert_same(a, b):
    assert a.cycles == b.cycles
    assert a.instructions == b.instructions
    assert np.array_equal(a.y, b.y)


def _assert_all_same(clean, results):
    assert len(results) == len(clean)
    for a, b in zip(clean, results):
        _assert_same(a, b)


@pytest.mark.parametrize("jobs", [1, 2])
def test_flaky_faults_converge(clean, jobs):
    plan = _find_plan(
        lambda s: FaultPlan(flaky=0.3, seed=s),
        lambda p: (any(p.roll("flaky", k, 1) for k in KEYS)
                   and _converges(p, ["flaky"], within=5)),
    )
    results = run_specs(
        SPECS, jobs=jobs, cache=NullCache(),
        policy=ExecPolicy(retries=4, backoff=0.01),
        faults=plan,
    )
    _assert_all_same(clean, results)
    assert session_stats().retried >= 1


@pytest.mark.parametrize("jobs", [2, 1])
def test_worker_crashes_converge(clean, jobs):
    """Pool resurrection (jobs=2) / simulated crash (jobs=1) both heal."""
    plan = _find_plan(
        lambda s: FaultPlan(crash=0.5, seed=s),
        lambda p: (any(p.roll("crash", k, 1) for k in KEYS)
                   and _converges(p, ["crash"], within=5)),
    )
    results = run_specs(
        SPECS, jobs=jobs, cache=NullCache(),
        policy=ExecPolicy(retries=4, backoff=0.01),
        faults=plan,
    )
    _assert_all_same(clean, results)
    stats = session_stats()
    assert stats.retried >= 1
    if jobs == 2:
        assert stats.pool_restarts >= 1


def test_hang_is_timed_out_and_retried(clean):
    plan = _find_plan(
        lambda s: FaultPlan(hang=0.4, seed=s, hang_seconds=30.0),
        lambda p: (any(p.roll("hang", k, 1) for k in KEYS)
                   and _converges(p, ["hang"], within=5)),
    )
    results = run_specs(
        SPECS, jobs=2, cache=NullCache(),
        policy=ExecPolicy(timeout=1.0, retries=4, backoff=0.01),
        faults=plan,
    )
    _assert_all_same(clean, results)
    stats = session_stats()
    assert any(r.category == "timeout" for r in stats.failures)


def test_unrecoverable_crash_quarantines_and_collects():
    results = run_specs(
        SPECS, jobs=2, cache=NullCache(),
        policy=ExecPolicy(retries=1, backoff=0.01, quarantine_after=2,
                          on_error="collect"),
        faults=FaultPlan(crash=1.0, seed=0),
    )
    assert all(isinstance(r, WorkerCrash) for r in results)
    stats = session_stats()
    assert stats.quarantined == len(SPECS)
    assert stats.executed == 0


def test_on_error_skip_leaves_none():
    results = run_specs(
        SPECS, jobs=1, cache=NullCache(),
        policy=ExecPolicy(retries=0, on_error="skip"),
        faults=FaultPlan(flaky=1.0, seed=0),
    )
    assert results == [None] * len(SPECS)
    assert session_stats().failed == len(SPECS)


def test_on_error_raise_propagates():
    with pytest.raises(ExecError):
        run_specs(
            SPECS, jobs=1, cache=NullCache(),
            policy=ExecPolicy(retries=0, on_error="raise"),
            faults=FaultPlan(flaky=1.0, seed=0),
        )


def test_deadline_fails_remaining_specs():
    results = run_specs(
        SPECS, jobs=1, cache=NullCache(),
        policy=ExecPolicy(deadline=1e-6, on_error="collect"),
        faults=FaultPlan(),
    )
    assert all(isinstance(r, DeadlineExceeded) for r in results)
    assert session_stats().failed == len(SPECS)


def test_cache_corruption_detected_and_healed(clean, tmp_path):
    # Write every entry corrupted (rate 1.0), then re-read: each entry
    # must be caught by its digest, quarantined, and re-simulated to
    # the exact clean result.
    writer = ResultCache(tmp_path, faults=FaultPlan(cache_corrupt=1.0))
    run_specs(SPECS, jobs=1, cache=writer, policy=ExecPolicy(),
              faults=FaultPlan())

    reader = ResultCache(tmp_path, faults=FaultPlan())
    audit = reader.verify()
    assert audit.scanned == len(SPECS)
    assert len(audit.corrupt) == len(SPECS)  # 100% detection

    reset_session_stats()
    results = run_specs(SPECS, jobs=1, cache=reader, policy=ExecPolicy(),
                        faults=FaultPlan())
    _assert_all_same(clean, results)
    stats = session_stats()
    assert stats.corrupt == len(SPECS)
    assert stats.cached == 0
    assert stats.executed == len(SPECS)
    quarantined = list(tmp_path.glob("*/*.corrupt"))
    assert len(quarantined) == len(SPECS)


def test_verify_has_zero_false_positives(tmp_path):
    cache = ResultCache(tmp_path, faults=FaultPlan())
    run_specs(SPECS, jobs=1, cache=cache, policy=ExecPolicy(),
              faults=FaultPlan())
    audit = cache.verify()
    assert audit.scanned == len(SPECS)
    assert audit.ok == len(SPECS)
    assert audit.clean


def test_killed_sweep_resumes_from_incremental_cache(clean, tmp_path):
    # A plan where exactly two specs crash on attempt 1.  With zero
    # retries and quarantine_after=1, exactly the survivors' results
    # must land in the cache — crash attribution must not smear onto
    # in-flight bystanders.
    plan = _find_plan(
        lambda s: FaultPlan(crash=0.5, seed=s),
        lambda p: sum(p.roll("crash", k, 1) for k in KEYS) == 2,
    )
    expected_dead = [plan.roll("crash", k, 1) for k in KEYS]

    cache = ResultCache(tmp_path, faults=FaultPlan())
    results = run_specs(
        SPECS, jobs=2, cache=cache,
        policy=ExecPolicy(retries=0, quarantine_after=1, on_error="skip"),
        faults=plan,
    )
    for result, dead in zip(results, expected_dead):
        assert (result is None) == dead

    # The "fixed" rerun resumes: survivors come from the cache, only
    # the crashed specs are re-simulated, and the batch is
    # bit-identical to the clean run.
    reset_session_stats()
    resumed = run_specs(SPECS, jobs=2, cache=cache, policy=ExecPolicy(),
                        faults=FaultPlan())
    stats = session_stats()
    assert stats.cached == expected_dead.count(False)
    assert stats.executed == expected_dead.count(True)
    _assert_all_same(clean, resumed)


def test_combined_chaos_converges_bit_identical(clean, tmp_path):
    # Everything at once: crashes, hangs, flaky faults and a cache that
    # corrupts half of what it writes.  The sweep must still converge
    # to the clean serial ground truth.
    plan = _find_plan(
        lambda s: FaultPlan(crash=0.2, hang=0.2, flaky=0.3, seed=s,
                            hang_seconds=20.0),
        lambda p: (any(p.roll(kind, k, 1) for kind in ("crash", "hang",
                                                       "flaky")
                       for k in KEYS)
                   and _converges(p, ["crash", "hang", "flaky"], within=9)),
    )
    cache = ResultCache(tmp_path,
                        faults=FaultPlan(cache_corrupt=0.5, seed=plan.seed))
    results = run_specs(
        SPECS, jobs=2, cache=cache,
        policy=ExecPolicy(timeout=1.0, retries=8, backoff=0.01),
        faults=plan,
    )
    _assert_all_same(clean, results)

    # And a clean reader over the damaged cache heals it too.
    reset_session_stats()
    reread = run_specs(SPECS, jobs=1, cache=ResultCache(tmp_path,
                                                        faults=FaultPlan()),
                       policy=ExecPolicy(), faults=FaultPlan())
    _assert_all_same(clean, reread)
    stats = session_stats()
    assert stats.cached + stats.executed == len(SPECS)
    assert stats.corrupt == stats.executed  # re-ran exactly the damage
