"""Fault-tolerance policy and error taxonomy for the sweep engine.

An :class:`ExecPolicy` tells :func:`repro.exec.run_specs` how to behave
when a point misbehaves: how long one spec may run (``timeout``), how
long the whole batch may take (``deadline``), how many times a failed
spec is retried (``retries``, with exponential backoff and
deterministic jitter so two hosts replaying the same sweep sleep the
same schedule), and what to do once retries are exhausted
(``on_error``):

* ``"raise"`` — propagate the first exhausted failure (the historic
  behaviour of a bare ``pool.map``);
* ``"skip"`` — leave ``None`` in that result slot and keep sweeping;
* ``"collect"`` — leave the :class:`ExecError` itself in the slot so
  the caller can triage per point.

Every failure is classified into a small taxonomy rooted at
:class:`ExecError` — :class:`WorkerCrash` (the worker process died),
:class:`SpecTimeout` (one spec ran past its per-spec budget),
:class:`DeadlineExceeded` (the batch ran past its total budget),
:class:`CacheCorruption` (a persisted entry failed its integrity
digest) and :class:`TransientFault` (a retryable error, e.g. injected
by :mod:`repro.exec.faults`).  Errors carry the spec's cache content
key and a human-readable label so a :class:`FailureReport` can be
written out and correlated with cache entries.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any

ENV_TIMEOUT = "REPRO_TIMEOUT"
ENV_DEADLINE = "REPRO_DEADLINE"
ENV_RETRIES = "REPRO_RETRIES"
ENV_ON_ERROR = "REPRO_ON_ERROR"
ENV_BACKOFF = "REPRO_BACKOFF"

ON_ERROR_MODES = ("raise", "skip", "collect")

#: Cap on one backoff delay in seconds, before the jitter scales it.
_BACKOFF_MAX = 2.0


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------
def _rebuild_error(cls, message, key, label, attempts):
    """Unpickle helper: rebuild an ExecError with its metadata intact."""
    return cls(message, key=key, label=label, attempts=attempts)


class ExecError(Exception):
    """Base of the sweep-engine failure taxonomy.

    Carries the failing spec's cache content ``key`` (so the failure can
    be correlated with — or quarantined alongside — its cache entry), a
    short human ``label`` and the number of ``attempts`` made.
    """

    category = "error"
    #: Whether a bounded retry may plausibly succeed.
    retryable = True

    def __init__(self, message: str, *, key: str = "", label: str = "",
                 attempts: int = 0):
        super().__init__(message)
        self.key = key
        self.label = label
        self.attempts = attempts

    def __reduce__(self):  # exceptions cross process boundaries pickled
        return (_rebuild_error,
                (type(self), str(self), self.key, self.label, self.attempts))


class WorkerCrash(ExecError):
    """A worker process died mid-spec (``BrokenProcessPool``)."""

    category = "worker-crash"


class SpecTimeout(ExecError):
    """One spec ran past the per-spec ``timeout``."""

    category = "timeout"


class DeadlineExceeded(ExecError):
    """The whole batch ran past the total ``deadline`` (never retried)."""

    category = "deadline"
    retryable = False


class CacheCorruption(ExecError):
    """A persisted cache entry failed its integrity digest."""

    category = "cache-corruption"


class TransientFault(ExecError):
    """A retryable transient error (e.g. injected flakiness)."""

    category = "transient"


# ---------------------------------------------------------------------------
# Policy
# ---------------------------------------------------------------------------
def _env_float(name: str) -> float | None:
    raw = os.environ.get(name, "").strip()
    return float(raw) if raw else None


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name, "").strip()
    return int(raw) if raw else None


@dataclass(frozen=True)
class ExecPolicy:
    """How :func:`run_specs` reacts to slow, crashing or flaky specs."""

    #: Per-spec wall-clock budget in seconds (None = unlimited).
    timeout: float | None = None
    #: Whole-batch wall-clock budget in seconds (None = unlimited).
    deadline: float | None = None
    #: Extra attempts after the first failure (0 = fail immediately).
    retries: int = 0
    #: Base backoff delay; attempt *n* waits ``backoff * 2**(n-1)``,
    #: capped at 2 s, then scaled by a deterministic jitter in [0.5, 1).
    backoff: float = 0.1
    #: What to do with a spec once its retries are exhausted.
    on_error: str = "raise"

    def __post_init__(self) -> None:
        if self.on_error not in ON_ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {ON_ERROR_MODES}, "
                f"got {self.on_error!r}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")

    @classmethod
    def from_env(cls) -> "ExecPolicy":
        """Policy from ``REPRO_TIMEOUT`` / ``REPRO_RETRIES`` / … env vars."""
        kwargs: dict[str, Any] = {}
        if (timeout := _env_float(ENV_TIMEOUT)) is not None:
            kwargs["timeout"] = timeout
        if (deadline := _env_float(ENV_DEADLINE)) is not None:
            kwargs["deadline"] = deadline
        if (retries := _env_int(ENV_RETRIES)) is not None:
            kwargs["retries"] = retries
        if (backoff := _env_float(ENV_BACKOFF)) is not None:
            kwargs["backoff"] = backoff
        on_error = os.environ.get(ENV_ON_ERROR, "").strip()
        if on_error:
            kwargs["on_error"] = on_error
        return cls(**kwargs)

    @property
    def max_attempts(self) -> int:
        return 1 + self.retries

    def to_json_dict(self) -> dict[str, Any]:
        """JSON-able form (recorded in the obs log's sweep.start event)."""
        return {
            "timeout": self.timeout,
            "deadline": self.deadline,
            "retries": self.retries,
            "backoff": self.backoff,
            "on_error": self.on_error,
        }

    def retry_delay(self, key: str, attempt: int) -> float:
        """Backoff before relaunching *key* after its *attempt*-th try.

        Exponential in the attempt number, capped at 2 s, scaled by a
        jitter factor in ``[0.5, 1.0)`` derived from ``(key, attempt)`` —
        deterministic, so a replayed sweep sleeps the exact same schedule
        on any host.
        """
        base = min(_BACKOFF_MAX, self.backoff * (2.0 ** max(0, attempt - 1)))
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).hexdigest()
        jitter = 0.5 + (int(digest[:12], 16) / float(16 ** 12)) * 0.5
        return base * jitter


# ---------------------------------------------------------------------------
# Failure reporting
# ---------------------------------------------------------------------------
@dataclass
class FailureRecord:
    """One spec's failure history inside a sweep."""

    key: str
    label: str
    category: str
    message: str
    attempts: int
    #: True when a later attempt succeeded (the failure was transient).
    resolved: bool = False

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "label": self.label,
            "category": self.category,
            "message": self.message,
            "attempts": self.attempts,
            "resolved": self.resolved,
        }


@dataclass
class FailureReport:
    """Structured account of everything that went wrong in a sweep."""

    records: list[FailureRecord] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.records)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def unresolved(self) -> list[FailureRecord]:
        return [r for r in self.records if not r.resolved]

    def count(self, category: str) -> int:
        return sum(1 for r in self.records if r.category == category)

    def to_json_dict(self) -> dict[str, Any]:
        categories: dict[str, int] = {}
        for record in self.records:
            categories[record.category] = categories.get(record.category, 0) + 1
        return {
            "total": len(self.records),
            "unresolved": len(self.unresolved),
            "categories": categories,
            "records": [r.to_json_dict() for r in self.records],
        }

    def summary_lines(self) -> list[str]:
        lines = []
        for record in self.records:
            outcome = "recovered" if record.resolved else "failed"
            lines.append(
                f"{record.category}: {record.label} [{record.key[:12]}] "
                f"{outcome} after {record.attempts} attempt(s): "
                f"{record.message}"
            )
        return lines
