"""JSONL event log: per-writer append files, driver-side merge.

Layout of one sweep's log directory (``<obs root>/<sweep_id>/``):

* ``driver.jsonl`` — everything the driver emits;
* ``worker-<pid>.jsonl`` — one append-only file per pool worker (no
  two processes ever share a file handle, so there is no lock and no
  contention on the hot path);
* ``events.jsonl`` — the merged, ordered log the driver writes at
  sweep end (sorted by ``(wall, src, seq)``; stable, so every writer's
  own order — and its monotonic timestamps — survive the merge);
* ``stats.json`` — the sweep's final ``ExecStats.as_dict()`` snapshot.

Worker heartbeats are not part of the log: each process pool keeps them
in its own temporary directory (:mod:`repro.obs.heartbeat`).

Writers flush every line: a worker that dies mid-spec (``os._exit``
crash injection included) leaves every event it emitted on disk, which
is what makes post-mortem fault attribution exact.

The whole subsystem is **zero-cost when off**: the engine holds the
:data:`NULL_OBS` singleton (falsy, every method a no-op) unless
``--obs-log`` / ``$REPRO_OBS_DIR`` armed it, and every emit site is
guarded by a plain truthiness test.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Iterable, Iterator

from .events import OBS_SCHEMA, validate_events

ENV_OBS_DIR = "REPRO_OBS_DIR"

#: Tail of every per-writer event file name.
_EVENTS_SUFFIX = ".jsonl"
MERGED_NAME = "events.jsonl"
DRIVER_NAME = "driver.jsonl"
STATS_NAME = "stats.json"

_SWEEP_COUNTER = 0


def default_obs_dir() -> Path:
    """Obs root: ``$REPRO_OBS_DIR``, else ``~/.cache/repro/obs``."""
    env = os.environ.get(ENV_OBS_DIR)
    if env:
        return Path(env)
    return Path(os.path.expanduser("~")) / ".cache" / "repro" / "obs"


def new_sweep_id() -> str:
    """Unique-enough sweep id: start time + driver pid + counter."""
    global _SWEEP_COUNTER
    _SWEEP_COUNTER += 1
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return f"{stamp}-p{os.getpid()}-{_SWEEP_COUNTER:03d}"


class ObsWriter:
    """Append-only JSONL event writer for one (process, sweep) pair.

    Fills the event envelope (``sweep``/``src``/``pid``/``seq``/``wall``)
    and flushes every line so events survive any way the process dies.
    ``wall`` is clamped strictly increasing per writer, making each
    stream's timestamps monotonic by construction.
    """

    def __init__(self, path: str | Path, *, sweep_id: str, src: str):
        self.path = Path(path)
        self.sweep_id = sweep_id
        self.src = src
        self.events = 0
        self._last_wall = 0.0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a", encoding="utf-8")

    def emit(self, etype: str, *, key: str = "", label: str = "",
             attempt: int = 0, **data: Any) -> None:
        wall = time.time()
        if wall <= self._last_wall:
            wall = self._last_wall + 1e-7
        self._last_wall = wall
        event: dict[str, Any] = {
            "type": etype, "sweep": self.sweep_id, "src": self.src,
            "pid": os.getpid(), "seq": self.events, "wall": wall,
        }
        if key:
            event["key"] = key
        if label:
            event["label"] = label
        if attempt:
            event["attempt"] = attempt
        if data:
            event["data"] = data
        self.events += 1
        try:
            self._file.write(json.dumps(event, separators=(",", ":"),
                                        default=repr) + "\n")
            self._file.flush()
        except (OSError, ValueError):
            pass  # a broken log must never break the sweep

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            pass


#: Per-process cache of worker-side writers, keyed by (sweep dir, pid):
#: pool workers are reused across attempts, and a forked child must
#: never inherit its parent's handle under the parent's pid.
_WORKER_WRITERS: dict[tuple[str, int], ObsWriter] = {}


def worker_writer(sweep_dir: str, sweep_id: str) -> ObsWriter:
    """The calling worker process's writer for *sweep_dir* (cached)."""
    cache_key = (sweep_dir, os.getpid())
    writer = _WORKER_WRITERS.get(cache_key)
    if writer is None:
        src = f"worker-{os.getpid()}"
        writer = ObsWriter(Path(sweep_dir) / f"{src}{_EVENTS_SUFFIX}",
                           sweep_id=sweep_id, src=src)
        _WORKER_WRITERS[cache_key] = writer
    return writer


class NullObsLog:
    """Observability disabled: falsy, every operation a no-op."""

    enabled = False
    sweep_id = ""
    sweep_dir: Path | None = None

    def __bool__(self) -> bool:
        return False

    def emit(self, etype: str, **kwargs: Any) -> None:
        pass

    def finalize(self, stats_dict: dict | None = None
                 ) -> tuple[int, int]:
        return 0, 0

    def write_stats(self, stats_dict: dict) -> None:
        pass


NULL_OBS = NullObsLog()


class ObsLog:
    """One sweep's driver-side log: emits, then merges at sweep end."""

    enabled = True

    def __init__(self, sweep_dir: str | Path, *, sweep_id: str | None = None):
        self.sweep_dir = Path(sweep_dir)
        self.sweep_id = sweep_id or self.sweep_dir.name
        self.sweep_dir.mkdir(parents=True, exist_ok=True)
        self._writer = ObsWriter(self.sweep_dir / DRIVER_NAME,
                                 sweep_id=self.sweep_id, src="driver")

    @classmethod
    def create(cls, root: str | Path | None = None) -> "ObsLog":
        """Open a fresh sweep directory under the obs *root*."""
        root = Path(root) if root is not None else default_obs_dir()
        sweep_id = new_sweep_id()
        return cls(root / sweep_id, sweep_id=sweep_id)

    def __bool__(self) -> bool:
        return True

    def emit(self, etype: str, **kwargs: Any) -> None:
        self._writer.emit(etype, **kwargs)

    def finalize(self, stats_dict: dict | None = None) -> tuple[int, int]:
        """Merge worker files into ``events.jsonl``; write ``stats.json``.

        Returns ``(events, bytes)`` of the merged log (the engine's
        ``events_emitted`` / ``log_bytes`` counters).
        """
        self._writer.close()
        events = merge_events(self.sweep_dir)
        merged = self.sweep_dir / MERGED_NAME
        try:
            with open(merged, "w", encoding="utf-8") as f:
                for event in events:
                    f.write(json.dumps(event, separators=(",", ":")) + "\n")
            size = merged.stat().st_size
        except OSError:
            return len(events), 0
        if stats_dict is not None:
            self.write_stats(stats_dict)
        return len(events), size

    def write_stats(self, stats_dict: dict) -> None:
        """(Re)write ``stats.json`` — callable after :meth:`finalize`,
        so the snapshot can include the merge's own event/byte counts."""
        try:
            (self.sweep_dir / STATS_NAME).write_text(
                json.dumps({"schema": OBS_SCHEMA,
                            "sweep_id": self.sweep_id,
                            "stats": stats_dict},
                           indent=2, sort_keys=True) + "\n")
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Readers (the `repro obs` CLI and the validation suites)
# ---------------------------------------------------------------------------
def read_events(path: str | Path) -> Iterator[dict]:
    """Yield the events of one JSONL file (skipping torn final lines)."""
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line)
                except ValueError:
                    continue  # torn write from a killed process
    except OSError:
        return


def merge_events(sweep_dir: str | Path) -> list[dict]:
    """Merge every per-writer file of a sweep into one ordered stream.

    Stable sort by ``(wall, src, seq)``: cross-writer order follows the
    shared wall clock, and each writer's internal order (monotonic by
    construction) is preserved exactly.
    """
    sweep_dir = Path(sweep_dir)
    events: list[dict] = []
    for path in sorted(sweep_dir.glob(f"*{_EVENTS_SUFFIX}")):
        if path.name == MERGED_NAME:
            continue
        events.extend(read_events(path))
    events.sort(key=lambda e: (e.get("wall", 0.0), e.get("src", ""),
                               e.get("seq", 0)))
    return events


def load_events(sweep_dir: str | Path) -> list[dict]:
    """A sweep's ordered events: the merged file, else a live merge."""
    merged = Path(sweep_dir) / MERGED_NAME
    if merged.exists():
        return list(read_events(merged))
    return merge_events(sweep_dir)


def load_stats(sweep_dir: str | Path) -> dict | None:
    """The sweep's final ``ExecStats`` snapshot, if the sweep finished."""
    try:
        document = json.loads((Path(sweep_dir) / STATS_NAME).read_text())
    except (OSError, ValueError):
        return None
    stats = document.get("stats")
    return stats if isinstance(stats, dict) else None


def list_sweeps(root: str | Path) -> list[Path]:
    """Sweep directories under an obs root, oldest first."""
    root = Path(root)
    try:
        candidates = sorted(p for p in root.iterdir() if p.is_dir())
    except OSError:
        return []
    return [p for p in candidates
            if (p / DRIVER_NAME).exists() or (p / MERGED_NAME).exists()]


def resolve_sweep_dir(path: str | Path | None = None) -> Path:
    """Resolve a CLI ``--dir`` argument to one sweep's log directory.

    Accepts a sweep directory itself, or an obs root (picks the newest
    sweep).  ``None`` means the default root.  Raises ``FileNotFoundError``
    when there is nothing to inspect.
    """
    root = Path(path) if path is not None else default_obs_dir()
    if (root / DRIVER_NAME).exists() or (root / MERGED_NAME).exists():
        return root
    sweeps = list_sweeps(root)
    if not sweeps:
        raise FileNotFoundError(
            f"no sweep event logs under {root} (run a sweep with "
            "--obs-log, or set $REPRO_OBS_DIR)"
        )
    return sweeps[-1]


def validate_log(sweep_dir: str | Path) -> int:
    """Schema-validate a sweep's merged log; return the event count."""
    return validate_events(load_events(sweep_dir))


__all__ = [
    "ENV_OBS_DIR",
    "NULL_OBS",
    "NullObsLog",
    "ObsLog",
    "ObsWriter",
    "default_obs_dir",
    "list_sweeps",
    "load_events",
    "load_stats",
    "merge_events",
    "new_sweep_id",
    "read_events",
    "resolve_sweep_dir",
    "validate_log",
    "worker_writer",
]
