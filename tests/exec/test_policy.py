"""ExecPolicy: env parsing, validation, backoff, error taxonomy."""

from __future__ import annotations

import pickle

import pytest

from repro.exec import (
    CacheCorruption,
    DeadlineExceeded,
    ExecError,
    ExecPolicy,
    FailureRecord,
    FailureReport,
    SpecTimeout,
    TransientFault,
    WorkerCrash,
)


def test_defaults_are_permissive():
    policy = ExecPolicy()
    assert policy.timeout is None
    assert policy.deadline is None
    assert policy.retries == 0
    assert policy.on_error == "raise"
    assert policy.max_attempts == 1


def test_on_error_is_validated():
    with pytest.raises(ValueError, match="on_error"):
        ExecPolicy(on_error="explode")


def test_retries_validated():
    with pytest.raises(ValueError, match="retries"):
        ExecPolicy(retries=-1)


def test_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_TIMEOUT", "2.5")
    monkeypatch.setenv("REPRO_DEADLINE", "60")
    monkeypatch.setenv("REPRO_RETRIES", "3")
    monkeypatch.setenv("REPRO_ON_ERROR", "skip")
    monkeypatch.setenv("REPRO_BACKOFF", "0.02")
    policy = ExecPolicy.from_env()
    assert policy.timeout == 2.5
    assert policy.deadline == 60.0
    assert policy.retries == 3
    assert policy.max_attempts == 4
    assert policy.on_error == "skip"
    assert policy.backoff == 0.02


def test_from_env_empty_is_default(monkeypatch):
    for name in ("REPRO_TIMEOUT", "REPRO_DEADLINE", "REPRO_RETRIES",
                 "REPRO_ON_ERROR", "REPRO_BACKOFF"):
        monkeypatch.delenv(name, raising=False)
    assert ExecPolicy.from_env() == ExecPolicy()


def test_retry_delay_deterministic_and_bounded():
    policy = ExecPolicy(retries=5, backoff=0.1)
    delays = [policy.retry_delay("somekey", a) for a in range(1, 8)]
    # Same (key, attempt) -> exact same schedule on any host.
    assert delays == [policy.retry_delay("somekey", a) for a in range(1, 8)]
    for attempt, delay in enumerate(delays, start=1):
        base = min(2.0, 0.1 * 2.0 ** (attempt - 1))
        assert 0.5 * base <= delay < base
    # A different key jitters differently (with overwhelming probability).
    assert policy.retry_delay("otherkey", 1) != delays[0]


def test_error_taxonomy_categories():
    assert WorkerCrash("x").category == "worker-crash"
    assert SpecTimeout("x").category == "timeout"
    assert DeadlineExceeded("x").category == "deadline"
    assert not DeadlineExceeded("x").retryable
    assert CacheCorruption("x").category == "cache-corruption"
    assert TransientFault("x").category == "transient"
    assert TransientFault("x").retryable


@pytest.mark.parametrize("cls", [
    ExecError, WorkerCrash, SpecTimeout, DeadlineExceeded,
    CacheCorruption, TransientFault,
])
def test_errors_pickle_with_metadata(cls):
    error = cls("it broke", key="abc123", label="spmv/hht 16x16", attempts=3)
    clone = pickle.loads(pickle.dumps(error))
    assert type(clone) is cls
    assert str(clone) == "it broke"
    assert clone.key == "abc123"
    assert clone.label == "spmv/hht 16x16"
    assert clone.attempts == 3


def test_failure_report_json_and_summary():
    report = FailureReport([
        FailureRecord(key="a" * 64, label="one", category="transient",
                      message="flaked", attempts=2, resolved=True),
        FailureRecord(key="b" * 64, label="two", category="worker-crash",
                      message="died", attempts=4),
    ])
    assert len(report) == 2
    assert bool(report)
    assert len(report.unresolved) == 1
    assert report.count("transient") == 1
    doc = report.to_json_dict()
    assert doc["total"] == 2
    assert doc["unresolved"] == 1
    assert doc["categories"] == {"transient": 1, "worker-crash": 1}
    lines = report.summary_lines()
    assert "recovered" in lines[0]
    assert "failed after 4 attempt(s)" in lines[1]
    assert not FailureReport()
