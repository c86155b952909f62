"""Fault-tolerant parallel sweep engine: per-spec futures + policy.

:func:`run_specs` is the one entry point the harness uses.  For a batch
of specs it

1. deduplicates identical points (a figure pair often shares its
   baseline run with another figure's sweep),
2. serves whatever the content-addressed cache already holds
   (integrity-checked: corrupt entries are quarantined and counted,
   never silently re-run and overwritten),
3. fans the remaining misses out as *one future per spec* over a
   ``ProcessPoolExecutor`` sized by ``jobs`` / ``$REPRO_JOBS`` /
   ``os.cpu_count()``, governed by an :class:`ExecPolicy` (per-spec
   timeout, whole-batch deadline, bounded retries with jittered
   backoff, ``on_error`` disposition), and
4. returns summaries *in the order the specs were given* — results are
   position-stable, so parallel runs are byte-identical to serial ones.

Fault tolerance is structural, not best-effort:

* every completed future's summary is cached *immediately*, so a sweep
  killed halfway resumes from what finished;
* every pool worker keeps one heartbeat record of the spec it holds, in
  its pool's own temporary directory (:mod:`repro.obs.heartbeat`),
  whether or not the obs log is on;
* a worker crash (``BrokenProcessPool``) is survived by replacing the
  pool — the records still naming a spec once the teardown settles
  identify the crashing specs, which are charged a failure and retried,
  while innocent in-flight specs are relaunched without burning a retry;
* per-spec timeouts are enforced *inside* the worker with ``SIGALRM``
  (raising :class:`SpecTimeout` cleanly), backstopped driver-side: a
  worker unresponsive past ``timeout + grace`` is abandoned with its
  pool, its heartbeat naming the spec it held, and the same replacement
  path reschedules the rest;
* everything that went wrong is accounted in :class:`ExecStats` —
  counters (retried / failed / corrupt / pool restarts) plus a
  structured :class:`FailureReport` of per-spec records.

Deterministic chaos testing hooks in via :mod:`repro.exec.faults`
(``$REPRO_FAULTS``): injection happens only around engine-launched
attempts, so a clean serial run remains the ground truth the chaos
suite compares against.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import tempfile
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Collection, Iterable, Sequence

from ..obs.heartbeat import Heartbeat, read_heartbeats, record_path
from ..obs.heartbeat import attribute as heartbeat_attribute
from ..obs.heartbeat import beat as heartbeat_beat
from ..obs.heartbeat import clear as heartbeat_clear
from ..obs.log import ENV_OBS_DIR, NULL_OBS, ObsLog, worker_writer
from ..obs.progress import ProgressLine
from .cache import (
    ENV_NO_CACHE,
    NullCache,
    ResultCache,
    cache_key,
    code_version,
    payload_key,
)
from .faults import FaultPlan, inject_pre_execute
from .policy import (
    DeadlineExceeded,
    ExecError,
    ExecPolicy,
    FailureRecord,
    FailureReport,
    SpecTimeout,
    WorkerCrash,
)
from .spec import RunSpec, RunSummary, execute

ENV_JOBS = "REPRO_JOBS"

#: Below this many cache misses a worker pool is not worth its fork cost.
_MIN_POOL_BATCH = 2

#: Driver poll interval while futures are outstanding.
_POLL_SECONDS = 0.05

#: Driver-side hang backstop: a worker still running this long past the
#: per-spec timeout (which SIGALRM should have enforced in-worker) is
#: presumed wedged in uninterruptible code and abandoned with its pool.
_HANG_GRACE_SECONDS = 5.0

#: Longest wait, after a pool breaks, for the busy heartbeat records to
#: stop changing while the executor SIGTERMs the surviving workers.
_SETTLE_SECONDS = 2.0

_UNSET = object()


@dataclass
class ExecStats:
    """Sweep-engine counters (one batch, or the whole session)."""

    executed: int = 0
    cached: int = 0
    wall_seconds: float = 0.0
    jobs: int = 1
    retried: int = 0
    failed: int = 0
    corrupt: int = 0
    pool_restarts: int = 0
    heartbeats_seen: int = 0
    events_emitted: int = 0
    log_bytes: int = 0
    failures: list[FailureRecord] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.executed + self.cached

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of requested points served from the cache."""
        if self.total <= 0:
            return 0.0
        return self.cached / self.total

    @property
    def points_per_second(self) -> float:
        # Zero-wall-clock batches (empty, or all-cached on a coarse
        # clock) must report 0, not raise or return inf.
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.total / self.wall_seconds

    @property
    def failure_report(self) -> FailureReport:
        return FailureReport(list(self.failures))

    def add(self, other: "ExecStats") -> None:
        self.executed += other.executed
        self.cached += other.cached
        self.wall_seconds += other.wall_seconds
        self.jobs = max(self.jobs, other.jobs)
        self.retried += other.retried
        self.failed += other.failed
        self.corrupt += other.corrupt
        self.pool_restarts += other.pool_restarts
        self.heartbeats_seen += other.heartbeats_seen
        self.events_emitted += other.events_emitted
        self.log_bytes += other.log_bytes
        self.failures.extend(other.failures)

    def copy(self) -> "ExecStats":
        return replace(self, failures=list(self.failures))

    def delta(self, before: "ExecStats") -> "ExecStats":
        """Counters accumulated since *before* (a session snapshot)."""
        return ExecStats(
            executed=self.executed - before.executed,
            cached=self.cached - before.cached,
            wall_seconds=self.wall_seconds - before.wall_seconds,
            jobs=self.jobs,
            retried=self.retried - before.retried,
            failed=self.failed - before.failed,
            corrupt=self.corrupt - before.corrupt,
            pool_restarts=self.pool_restarts - before.pool_restarts,
            heartbeats_seen=self.heartbeats_seen - before.heartbeats_seen,
            events_emitted=self.events_emitted - before.events_emitted,
            log_bytes=self.log_bytes - before.log_bytes,
            failures=self.failures[len(before.failures):],
        )

    def throughput_line(self) -> str:
        line = (
            f"sweep engine: {self.executed} simulated + {self.cached} cached "
            f"points in {self.wall_seconds:.2f}s "
            f"({self.points_per_second:.1f} points/s, jobs={self.jobs}, "
            f"cache {self.cache_hit_rate:.0%} hit)"
        )
        extras = [
            f"{count} {name}"
            for name, count in (
                ("retried", self.retried),
                ("failed", self.failed),
                ("corrupt cache entries", self.corrupt),
                ("pool restarts", self.pool_restarts),
            )
            if count
        ]
        if extras:
            line += " [" + ", ".join(extras) + "]"
        return line

    def as_dict(self) -> dict:
        """JSON-able snapshot (the obs log records one per sweep)."""
        return {
            "executed": self.executed,
            "cached": self.cached,
            "wall_seconds": self.wall_seconds,
            "points_per_second": self.points_per_second,
            "jobs": self.jobs,
            "retried": self.retried,
            "failed": self.failed,
            "corrupt": self.corrupt,
            "pool_restarts": self.pool_restarts,
            "cache_hit_rate": self.cache_hit_rate,
            "heartbeats_seen": self.heartbeats_seen,
            "events_emitted": self.events_emitted,
            "log_bytes": self.log_bytes,
            "failures": self.failure_report.to_json_dict(),
        }


_SESSION = ExecStats()
_DEFAULT_JOBS: int | None = None
_DEFAULT_USE_CACHE: bool | None = None
_DEFAULT_OBS_DIR: str | None = None
_DEFAULT_PROGRESS: bool | None = None
_POLICY_OVERRIDES: dict = {}


def configure(*, jobs=_UNSET, use_cache=_UNSET, timeout=_UNSET,
              deadline=_UNSET, retries=_UNSET, on_error=_UNSET,
              obs_dir=_UNSET, progress=_UNSET) -> None:
    """Set process-wide defaults (the CLI's --jobs / --retries / … flags).

    ``None`` restores "decide from the environment" for that option.
    ``obs_dir`` arms sweep event logging: a path roots the log there,
    ``""`` uses the default obs root (``$REPRO_OBS_DIR`` or
    ``~/.cache/repro/obs``).  ``progress`` forces the live TTY progress
    line on/off (``None`` = auto: on only when stderr is a TTY).
    """
    global _DEFAULT_JOBS, _DEFAULT_USE_CACHE, _DEFAULT_OBS_DIR, \
        _DEFAULT_PROGRESS
    if jobs is not _UNSET:
        _DEFAULT_JOBS = None if jobs is None else max(1, int(jobs))
    if use_cache is not _UNSET:
        _DEFAULT_USE_CACHE = use_cache
    if obs_dir is not _UNSET:
        _DEFAULT_OBS_DIR = obs_dir
    if progress is not _UNSET:
        _DEFAULT_PROGRESS = progress
    for name, value in (("timeout", timeout), ("deadline", deadline),
                        ("retries", retries), ("on_error", on_error)):
        if value is _UNSET:
            continue
        if value is None:
            _POLICY_OVERRIDES.pop(name, None)
        else:
            _POLICY_OVERRIDES[name] = value


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker count: explicit arg > configure() > $REPRO_JOBS > cpu_count."""
    if jobs is None:
        jobs = _DEFAULT_JOBS
    if jobs is None:
        env = os.environ.get(ENV_JOBS, "").strip()
        if env:
            jobs = int(env)
    if jobs is None:
        jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def resolve_policy(policy: ExecPolicy | None = None) -> ExecPolicy:
    """Policy: explicit arg > configure() overrides > $REPRO_* env."""
    if policy is not None:
        return policy
    base = ExecPolicy.from_env()
    if _POLICY_OVERRIDES:
        base = replace(base, **_POLICY_OVERRIDES)
    return base


def caching_enabled() -> bool:
    if _DEFAULT_USE_CACHE is not None:
        return _DEFAULT_USE_CACHE
    return not os.environ.get(ENV_NO_CACHE, "").strip()


def open_cache() -> ResultCache | NullCache:
    """The cache run_specs uses when none is passed explicitly."""
    return ResultCache() if caching_enabled() else NullCache()


def resolve_obs_dir() -> str | None:
    """Obs root: configure() > ``$REPRO_OBS_DIR`` > off (None).

    ``""`` means "armed, default root"; ``None`` means logging is off.
    """
    if _DEFAULT_OBS_DIR is not None:
        return _DEFAULT_OBS_DIR
    env = os.environ.get(ENV_OBS_DIR, "").strip()
    if env:
        return env
    return None


def open_obs() -> ObsLog | None:
    """A fresh sweep log when obs is armed, else None (logging off)."""
    root = resolve_obs_dir()
    if root is None:
        return None
    return ObsLog.create(root or None)


def resolve_progress(progress: bool | None = None) -> bool | None:
    """Progress-line wish: explicit arg > configure() > auto (None)."""
    if progress is not None:
        return progress
    return _DEFAULT_PROGRESS


def session_stats() -> ExecStats:
    """Totals accumulated by every run_specs call in this process."""
    return _SESSION.copy()


def reset_session_stats() -> None:
    global _SESSION
    _SESSION = ExecStats()


# ---------------------------------------------------------------------------
# Worker-side attempt (module-level so ProcessPoolExecutor can pickle it)
# ---------------------------------------------------------------------------
@contextmanager
def _spec_alarm(seconds: float | None, *, key: str, label: str, attempt: int):
    """Raise :class:`SpecTimeout` in-place after *seconds* (SIGALRM).

    No-op when there is no timeout, no SIGALRM on this platform, or we
    are not on the main thread (signal handlers are main-thread-only);
    the driver-side hang backstop still covers those cases.
    """
    usable = (
        seconds is not None and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise SpecTimeout(
            f"spec exceeded its {seconds}s timeout (attempt {attempt})",
            key=key, label=label, attempts=attempt,
        )

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: The pool's heartbeat directory, fixed when the worker starts, so
#: the SIGTERM handler knows its record's path before the first beat.
_HEARTBEAT_DIR: Path | None = None


def _worker_sigterm(signum, frame):
    # When one worker crashes, the executor SIGTERMs the *other*
    # workers while tearing the pool down.  Those are victims, not
    # culprits: remove their record so only a worker that genuinely
    # died (os._exit / segfault / SIGKILL skip this handler) is left
    # naming a spec.
    if _HEARTBEAT_DIR is not None:
        try:
            record_path(_HEARTBEAT_DIR).unlink()
        except OSError:
            pass
    os._exit(143)


def _worker_init(heartbeat_dir: str) -> None:
    global _HEARTBEAT_DIR
    _HEARTBEAT_DIR = Path(heartbeat_dir)
    if hasattr(signal, "SIGTERM"):
        signal.signal(signal.SIGTERM, _worker_sigterm)


def _attempt(spec: RunSpec, *, key: str, fkey: str, label: str,
             attempt: int, timeout: float | None, plan: FaultPlan,
             in_worker: bool, obs) -> RunSummary:
    """One attempt at one spec, the body the serial driver and the pool
    workers share.

    Logs ``attempt.start``, arms the per-spec :func:`_spec_alarm`,
    injects any planned pre-execute fault, calls :func:`execute` and
    logs ``attempt.ok`` or ``attempt.error`` with the attempt's wall
    seconds; exceptions propagate.  *obs* is the driver's log or a
    worker's per-pid writer (falsy: log nothing).  ``fkey`` is the
    code-version-independent :func:`~repro.exec.cache.payload_key` that
    fault rolls key on; ``key`` is the cache key (reported in errors,
    and the obs correlation key).
    """
    obs = obs or None
    if obs is not None:
        obs.emit("attempt.start", key=key, label=label, attempt=attempt)
    started = perf_counter()
    try:
        with _spec_alarm(timeout, key=key, label=label, attempt=attempt):
            if plan.active:
                inject_pre_execute(plan, fkey, attempt, label=label,
                                   in_worker=in_worker, obs=obs,
                                   event_key=key)
            summary = execute(spec)
    except BaseException as exc:
        if obs is not None:
            obs.emit(
                "attempt.error", key=key, label=label, attempt=attempt,
                category=getattr(exc, "category", type(exc).__name__),
                seconds=round(perf_counter() - started, 6),
                message=str(exc)[:200],
            )
        raise
    if obs is not None:
        obs.emit("attempt.ok", key=key, label=label, attempt=attempt,
                 seconds=round(perf_counter() - started, 6))
    return summary


def _worker_attempt(spec: RunSpec, key: str, fkey: str, label: str,
                    attempt: int, timeout: float | None, faults_text: str,
                    obs_dir: str = "", sweep_id: str = "") -> RunSummary:
    """:func:`_attempt` inside a pool worker.

    Beats (key, label, attempt) into the worker's heartbeat record first
    and marks the record idle on any non-crash exit (an executor SIGTERM
    removes it instead): after a ``BrokenProcessPool`` the records still
    naming a spec belong exactly to the workers that died, so the driver
    can attribute the crash instead of penalising every in-flight spec.

    With ``obs_dir`` set the attempt's events (and any
    ``fault.injected``) go to the worker's own per-pid event file —
    every line flushed, so a crash mid-attempt still leaves the
    attempt's trail on disk.  In a worker an injected crash really kills
    the process.
    """
    heartbeat_beat(_HEARTBEAT_DIR, key=key, label=label, attempt=attempt)
    try:
        return _attempt(spec, key=key, fkey=fkey, label=label,
                        attempt=attempt, timeout=timeout,
                        plan=FaultPlan.parse(faults_text), in_worker=True,
                        obs=worker_writer(obs_dir, sweep_id) if obs_dir
                        else None)
    finally:
        heartbeat_clear(_HEARTBEAT_DIR)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------
@dataclass
class _Pending:
    """Driver-side bookkeeping for one deduplicated spec."""

    spec: RunSpec
    key: str               # cache key (content + code-version salt)
    fkey: str              # payload key (fault rolls; code-stable)
    label: str
    indices: list[int]
    attempts: int = 0          # attempts launched so far
    failures: int = 0
    ready_at: float = 0.0      # perf_counter() time of next launch
    running_since: float | None = None
    last_error: ExecError | None = None


class _Driver:
    """Executes one batch of misses under a policy (serial or pooled)."""

    def __init__(self, *, policy: ExecPolicy, plan: FaultPlan,
                 cache, results: list, stats: ExecStats,
                 deadline_at: float | None, workers: int,
                 obs=NULL_OBS, progress: ProgressLine | None = None):
        self.policy = policy
        self.plan = plan
        self.cache = cache
        self.results = results
        self.stats = stats
        self.deadline_at = deadline_at
        self.workers = workers
        self.obs = obs
        self.progress = progress
        #: The current pool's heartbeat records (see :meth:`_new_pool`).
        self.heartbeat_dir: Path | None = None
        self._heartbeat_updates: dict[int, float] = {}
        self._last_obs_poll = 0.0

    # -- observability -----------------------------------------------------
    def _tick(self, running: int = 0, force: bool = False) -> None:
        """Refresh the live progress line from the shared counters."""
        if self.progress is None:
            return
        self.progress.update(
            done=(self.stats.cached + self.stats.executed
                  + self.stats.failed),
            running=running, retried=self.stats.retried,
            failed=self.stats.failed, cached=self.stats.cached,
            force=force,
        )

    def _poll_observability(self, inflight: dict) -> None:
        """Fold worker heartbeats into counters + progress (throttled)."""
        if not (self.obs or self.progress):
            return
        now = perf_counter()
        if now - self._last_obs_poll < 0.25:
            return
        self._last_obs_poll = now
        beats = read_heartbeats(self.heartbeat_dir)
        for pid, hb in beats.items():
            if self._heartbeat_updates.get(pid) != hb.updated:
                self._heartbeat_updates[pid] = hb.updated
                self.stats.heartbeats_seen += 1
        # Specs actually executing, not just queued.
        busy = sum(1 for hb in beats.values() if hb.busy)
        self._tick(running=busy or len(inflight))

    # -- shared bookkeeping ------------------------------------------------
    def _complete(self, p: _Pending, summary: RunSummary) -> None:
        # Incremental persistence: a killed sweep resumes from here.
        self.cache.put(p.spec, summary, provenance={"attempts": p.attempts})
        for i in p.indices:
            self.results[i] = summary
        self.stats.executed += 1
        if p.failures and p.last_error is not None:
            self.stats.failures.append(FailureRecord(
                key=p.key, label=p.label,
                category=p.last_error.category,
                message=str(p.last_error),
                attempts=p.attempts, resolved=True,
            ))
        if self.obs:
            self.obs.emit("cache.write", key=p.key, label=p.label)
            self.obs.emit("spec.completed", key=p.key, label=p.label,
                          attempt=p.attempts, failures=p.failures)
        self._tick()

    def _fail(self, p: _Pending, error: ExecError) -> None:
        self.stats.failed += 1
        self.stats.failures.append(FailureRecord(
            key=p.key, label=p.label, category=error.category,
            message=str(error), attempts=p.attempts, resolved=False,
        ))
        if self.obs:
            self.obs.emit("spec.failed", key=p.key, label=p.label,
                          attempt=p.attempts, category=error.category,
                          message=str(error)[:200])
        self._tick()
        if self.policy.on_error == "raise":
            raise error
        if self.policy.on_error == "collect":
            for i in p.indices:
                self.results[i] = error
        # "skip": the result slots stay None.

    def _wrap(self, p: _Pending, exc: BaseException) -> ExecError:
        if isinstance(exc, ExecError):
            exc.key = exc.key or p.key
            exc.label = exc.label or p.label
            exc.attempts = exc.attempts or p.attempts
            return exc
        return ExecError(
            f"{type(exc).__name__}: {exc}",
            key=p.key, label=p.label, attempts=p.attempts,
        )

    def _handle_failure(self, p: _Pending, error: ExecError) -> bool:
        """Record one failed attempt; True when the spec should relaunch."""
        p.failures += 1
        p.last_error = error
        if self.obs and isinstance(error, SpecTimeout):
            self.obs.emit("spec.timeout", key=p.key, label=p.label,
                          attempt=p.attempts, message=str(error)[:200])
        if error.retryable and p.attempts < self.policy.max_attempts:
            self.stats.retried += 1
            delay = self.policy.retry_delay(p.fkey, p.attempts)
            p.ready_at = perf_counter() + delay
            if self.obs:
                self.obs.emit("retry", key=p.key, label=p.label,
                              attempt=p.attempts, category=error.category,
                              delay=round(delay, 4))
            return True
        self._fail(p, error)
        return False

    def _fail_deadline(self, pendings: list[_Pending]) -> None:
        for p in pendings:
            self._fail(p, DeadlineExceeded(
                f"batch exceeded its {self.policy.deadline}s deadline "
                f"with {len(pendings)} point(s) unfinished",
                key=p.key, label=p.label, attempts=p.attempts,
            ))

    # -- serial path -------------------------------------------------------
    def run_serial(self, pending: list[_Pending]) -> None:
        queue = list(pending)
        while queue:
            p = queue.pop(0)
            now = perf_counter()
            if self.deadline_at is not None and now >= self.deadline_at:
                self._fail_deadline([p] + queue)
                return
            if p.ready_at > now:
                time.sleep(p.ready_at - now)
            p.attempts += 1
            try:
                # Serially a "crash" is simulated by raising — killing
                # this process would take the caller too.
                summary = _attempt(p.spec, key=p.key, fkey=p.fkey,
                                   label=p.label, attempt=p.attempts,
                                   timeout=self.policy.timeout,
                                   plan=self.plan, in_worker=False,
                                   obs=self.obs)
            except Exception as exc:
                if self._handle_failure(p, self._wrap(p, exc)):
                    queue.append(p)
                continue
            self._complete(p, summary)

    # -- pooled path -------------------------------------------------------
    def run_pool(self, pending: list[_Pending]) -> None:
        pool = self._new_pool()
        waiting = list(pending)
        inflight: dict[Future, _Pending] = {}
        faults_text = self.plan.spec_string() if self.plan.active else ""
        obs_dir = str(self.obs.sweep_dir) if self.obs else ""
        sweep_id = self.obs.sweep_id if self.obs else ""
        try:
            while waiting or inflight:
                now = perf_counter()
                if self.deadline_at is not None and now >= self.deadline_at:
                    self._fail_deadline(waiting + list(inflight.values()))
                    return
                for p in [p for p in waiting if p.ready_at <= now]:
                    waiting.remove(p)
                    p.attempts += 1
                    p.running_since = None
                    try:
                        future = pool.submit(
                            _worker_attempt, p.spec, p.key, p.fkey,
                            p.label, p.attempts, self.policy.timeout,
                            faults_text, obs_dir, sweep_id,
                        )
                    except (BrokenProcessPool, RuntimeError):
                        # Pool died between completions: undo the launch
                        # and replace the pool before trying again.
                        p.attempts -= 1
                        waiting.append(p)
                        pool = self._replace_pool(pool, inflight, waiting)
                        break
                    inflight[future] = p
                if not inflight:
                    if waiting:
                        time.sleep(_POLL_SECONDS)
                    continue
                done, _ = wait(set(inflight), timeout=_POLL_SECONDS,
                               return_when=FIRST_COMPLETED)
                if any(isinstance(f.exception(), BrokenProcessPool)
                       for f in done):
                    pool = self._replace_pool(pool, inflight, waiting)
                    continue
                for future in done:
                    p = inflight.pop(future)
                    try:
                        summary = future.result()
                    except Exception as exc:
                        if self._handle_failure(p, self._wrap(p, exc)):
                            waiting.append(p)
                    else:
                        self._complete(p, summary)
                self._note_running(inflight)
                self._poll_observability(inflight)
                hung = {f for f, p in inflight.items() if self._is_hung(p)}
                if hung:
                    pool = self._replace_pool(pool, inflight, waiting,
                                              hung=hung)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            shutil.rmtree(self.heartbeat_dir, ignore_errors=True)

    def _new_pool(self) -> ProcessPoolExecutor:
        # Each pool's workers beat into a temporary directory of their
        # own: a worker of a pool abandoned around a hung spec may still
        # run the specs queued to it, and its records must never be read
        # as the new pool's.
        self.heartbeat_dir = Path(
            tempfile.mkdtemp(prefix="repro-exec-heartbeats-"))
        return ProcessPoolExecutor(max_workers=self.workers,
                                   initializer=_worker_init,
                                   initargs=(str(self.heartbeat_dir),))

    def _note_running(self, inflight: dict[Future, _Pending]) -> None:
        now = perf_counter()
        for future, p in inflight.items():
            if p.running_since is None and future.running():
                p.running_since = now

    def _is_hung(self, p: _Pending) -> bool:
        if self.policy.timeout is None or p.running_since is None:
            return False
        limit = self.policy.timeout + _HANG_GRACE_SECONDS
        return perf_counter() - p.running_since > limit

    def _replace_pool(self, pool: ProcessPoolExecutor,
                      inflight: dict[Future, _Pending],
                      waiting: list[_Pending],
                      hung: Collection[Future] = (),
                      ) -> ProcessPoolExecutor:
        """Replace a broken pool, or one whose *hung* workers are wedged.

        Sorts every in-flight spec once:

        * a hung spec fails with :class:`SpecTimeout`, naming the worker
          its heartbeat says held it;
        * a future that finished before the pool went keeps its summary,
          or its error is charged like any other failure;
        * in a broken pool, a spec still named by a busy heartbeat (its
          worker died without cleaning up) is charged :class:`WorkerCrash`;
        * any other spec — cancelled while queued, or a teardown victim —
          relaunches without burning a retry.

        The old pool's records are then removed with their directory, so
        the next pool starts with none.
        """
        self.stats.pool_restarts += 1
        pool.shutdown(wait=False, cancel_futures=True)
        if hung:
            beats = read_heartbeats(self.heartbeat_dir)
            crashed: set[str] = set()
            if self.obs:
                self.obs.emit("pool.restart", reason="hung-workers",
                              hung=len(hung))
        else:
            beats = _settled_heartbeats(self.heartbeat_dir)
            crashed = {hb.key for hb in beats.values() if hb.busy}
            if self.obs:
                self.obs.emit("pool.restart", reason="broken-pool",
                              crashed=len(crashed))
        for future, p in inflight.items():
            hb = heartbeat_attribute(beats, p.key)
            if future in hung:
                held = (f"; worker pid {hb.pid} last heartbeat "
                        f"{hb.age():.1f}s ago" if hb else "")
                error = SpecTimeout(
                    f"worker unresponsive {_HANG_GRACE_SECONDS}s past the "
                    f"{self.policy.timeout}s timeout "
                    f"(attempt {p.attempts}){held}",
                    key=p.key, label=p.label, attempts=p.attempts,
                )
                if self.obs:
                    self.obs.emit(
                        "worker.hung", key=p.key, label=p.label,
                        attempt=p.attempts,
                        worker_pid=hb.pid if hb else 0,
                        heartbeat_age=round(hb.age(), 3) if hb else -1.0,
                    )
            elif (future.done() and not future.cancelled()
                  and not isinstance(future.exception(), BrokenProcessPool)):
                try:
                    summary = future.result()
                except Exception as exc:
                    error = self._wrap(p, exc)
                else:
                    self._complete(p, summary)
                    continue
            elif p.key in crashed:
                error = WorkerCrash(
                    f"worker process died mid-spec (attempt {p.attempts})",
                    key=p.key, label=p.label, attempts=p.attempts,
                )
                if self.obs:
                    self.obs.emit("worker.crash", key=p.key, label=p.label,
                                  attempt=p.attempts, worker_pid=hb.pid)
            else:  # cancelled while queued, or a teardown victim
                p.attempts -= 1
                p.ready_at = 0.0
                waiting.append(p)
                continue
            if self._handle_failure(p, error):
                waiting.append(p)
        inflight.clear()
        shutil.rmtree(self.heartbeat_dir, ignore_errors=True)
        return self._new_pool()


def _settled_heartbeats(heartbeat_dir: Path) -> dict[int, Heartbeat]:
    """The heartbeat records once their busy set stops changing.

    When the pool breaks, the executor SIGTERMs surviving workers
    *concurrently* with the driver's cleanup; their handlers remove
    their own records on the way out.  Poll (at most
    :data:`_SETTLE_SECONDS`) until the busy set stops changing so a
    dying victim is not misread as a crasher — the busy records left
    belong to workers that died without cleanup.
    """
    deadline = perf_counter() + _SETTLE_SECONDS
    previous = None
    while True:
        beats = read_heartbeats(heartbeat_dir)
        busy = {(pid, hb.key) for pid, hb in beats.items() if hb.busy}
        if busy == previous or perf_counter() >= deadline:
            return beats
        previous = busy
        time.sleep(0.1)


def _absorb_cache_corruption(cache, stats: ExecStats, obs=NULL_OBS) -> None:
    """Fold the cache's quarantine events into the batch stats."""
    drain = getattr(cache, "drain_corruption_events", None)
    if drain is None:
        return
    for event in drain():
        stats.corrupt += 1
        stats.failures.append(FailureRecord(
            key=event.key, label=event.path,
            category="cache-corruption",
            message=event.reason, attempts=0,
            resolved=True,  # quarantined + re-executed, not trusted
        ))
        if obs:
            obs.emit("cache.corrupt", key=event.key,
                     path=event.path, reason=event.reason[:200])


def run_specs(
    specs: Iterable[RunSpec] | Sequence[RunSpec],
    *,
    jobs: int | None = None,
    cache: ResultCache | NullCache | None = None,
    policy: ExecPolicy | None = None,
    faults: FaultPlan | None = None,
    obs=None,
    progress: bool | None = None,
) -> list[RunSummary]:
    """Run every spec (cache-first, then parallel); order-preserving.

    ``policy`` governs timeouts/retries/failure disposition (default:
    ``$REPRO_TIMEOUT``-family env vars via :func:`resolve_policy`);
    ``faults`` arms deterministic fault injection (default:
    ``$REPRO_FAULTS``).  With ``on_error="skip"`` failed slots hold
    ``None``; with ``"collect"`` they hold the :class:`ExecError`.

    ``obs`` attaches a sweep event log (default: :func:`open_obs`, which
    is off unless ``--obs-log`` / ``$REPRO_OBS_DIR`` armed it — pass
    :data:`~repro.obs.NULL_OBS` to force it off); ``progress`` forces
    the live TTY progress line on/off (default: auto).
    """
    specs = list(specs)
    if not specs:
        return []
    if cache is None:
        cache = open_cache()
    jobs = resolve_jobs(jobs)
    policy = resolve_policy(policy)
    plan = faults if faults is not None else FaultPlan.from_env()
    if obs is None:
        obs = open_obs() or NULL_OBS

    started = perf_counter()
    stats = ExecStats(jobs=jobs)
    results: list = [None] * len(specs)

    # Deduplicate: identical specs simulate (or hit the cache) once.
    positions: dict[RunSpec, list[int]] = {}
    for i, spec in enumerate(specs):
        positions.setdefault(spec, []).append(i)

    if obs:
        obs.emit(
            "sweep.start", n_specs=len(specs), n_unique=len(positions),
            jobs=jobs, policy=policy.to_json_dict(),
            faults=plan.spec_string() if plan.active else "",
            code=code_version(), host=socket.gethostname(),
        )

    pending: list[_Pending] = []
    for spec, indices in positions.items():
        summary = cache.get(spec)
        if summary is None:
            p = _Pending(
                spec=spec, key=cache_key(spec), fkey=payload_key(spec),
                label=spec.label, indices=indices,
            )
            pending.append(p)
            if obs:
                obs.emit("cache.miss", key=p.key, label=p.label)
                obs.emit("spec.submitted", key=p.key, label=p.label,
                         duplicates=len(indices))
        else:
            for i in indices:
                results[i] = summary
            if obs:
                obs.emit("cache.hit", key=cache_key(spec), label=spec.label)
    stats.cached = len(positions) - len(pending)
    _absorb_cache_corruption(cache, stats, obs)

    # While the log records, route cache-corrupt fault injections into
    # it too — the one fault kind that trips outside an attempt.
    armed_cache_hook = False
    if obs and getattr(cache, "on_fault", _UNSET) is None:
        cache.on_fault = lambda key: obs.emit("fault.injected", key=key,
                                              kind="cache-corrupt")
        armed_cache_hook = True

    progress_line: ProgressLine | None = None
    try:
        if pending:
            wish = resolve_progress(progress)
            if wish is not False:
                progress_line = ProgressLine(len(positions), enabled=wish)
                if not progress_line.enabled:
                    progress_line = None
            workers = min(jobs, len(pending))
            driver = _Driver(
                policy=policy, plan=plan, cache=cache, results=results,
                stats=stats, workers=workers, obs=obs,
                progress=progress_line,
                deadline_at=(started + policy.deadline
                             if policy.deadline else None),
            )
            driver._tick(force=True)
            if workers >= 2 and len(pending) >= _MIN_POOL_BATCH:
                driver.run_pool(pending)
            else:
                driver.run_serial(pending)
    finally:
        # Whatever happened — including on_error="raise" — the completed
        # points are cached, the log is sealed and the session charged.
        stats.wall_seconds = perf_counter() - started
        if armed_cache_hook:
            cache.on_fault = None
        if progress_line is not None:
            progress_line.close()
        if obs:
            obs.emit("sweep.end", stats=stats.as_dict())
            stats.events_emitted, stats.log_bytes = obs.finalize()
            obs.write_stats(stats.as_dict())
        _SESSION.add(stats)
    return results
