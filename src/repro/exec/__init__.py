"""Fault-tolerant parallel sweep engine with an integrity-checked cache.

The experiment harness expresses every simulation as a picklable
:class:`RunSpec`; :func:`run_specs` deduplicates a batch, serves
already-simulated points from the persistent cache (quarantining
corrupt entries), and fans the rest out across worker processes — one
future per spec, under an :class:`ExecPolicy` of timeouts, bounded
retries and failure disposition.  Worker heartbeats name the spec each
worker holds, so a crashed or wedged worker's spec is charged and the
pool replaced.  :mod:`repro.exec.faults` injects deterministic chaos
(``$REPRO_FAULTS``) to prove all of it.  See :mod:`repro.exec.spec`,
:mod:`repro.exec.cache`, :mod:`repro.exec.policy` and
:mod:`repro.exec.engine`.
"""

from .cache import (
    ENV_CACHE_DIR,
    ENV_NO_CACHE,
    CacheAudit,
    CorruptionEvent,
    NullCache,
    ResultCache,
    cache_key,
    code_version,
    default_cache_dir,
    payload_key,
    run_provenance,
    summary_digest,
)
from .engine import (
    ENV_JOBS,
    ExecStats,
    caching_enabled,
    configure,
    open_cache,
    open_obs,
    reset_session_stats,
    resolve_jobs,
    resolve_obs_dir,
    resolve_policy,
    resolve_progress,
    run_specs,
    session_stats,
)
from .faults import ENV_FAULTS, FaultPlan
from .policy import (
    ENV_DEADLINE,
    ENV_ON_ERROR,
    ENV_RETRIES,
    ENV_TIMEOUT,
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
from .spec import (
    RunSpec,
    RunSummary,
    corpus_spec,
    dnn_spec,
    execute,
    freeze_config,
    programmable_spec,
    spmspv_spec,
    spmv_spec,
    thaw_config,
)

__all__ = [
    "CacheAudit",
    "CacheCorruption",
    "CorruptionEvent",
    "DeadlineExceeded",
    "ENV_CACHE_DIR",
    "ENV_DEADLINE",
    "ENV_FAULTS",
    "ENV_JOBS",
    "ENV_NO_CACHE",
    "ENV_ON_ERROR",
    "ENV_RETRIES",
    "ENV_TIMEOUT",
    "ExecError",
    "ExecPolicy",
    "ExecStats",
    "FailureRecord",
    "FailureReport",
    "FaultPlan",
    "NullCache",
    "ResultCache",
    "RunSpec",
    "RunSummary",
    "SpecTimeout",
    "TransientFault",
    "WorkerCrash",
    "cache_key",
    "caching_enabled",
    "code_version",
    "configure",
    "corpus_spec",
    "default_cache_dir",
    "dnn_spec",
    "execute",
    "freeze_config",
    "open_cache",
    "open_obs",
    "payload_key",
    "programmable_spec",
    "reset_session_stats",
    "resolve_jobs",
    "resolve_obs_dir",
    "resolve_policy",
    "resolve_progress",
    "run_provenance",
    "run_specs",
    "session_stats",
    "spmspv_spec",
    "spmv_spec",
    "summary_digest",
    "thaw_config",
]
