"""Worker heartbeats: who is running what, right now.

Each worker of a sweep's process pool touches ``<pid>.json`` in the
pool's own temporary directory at the start of every attempt, marks
itself idle on any clean exit from the attempt, and removes the record
when the executor SIGTERMs it.  The records are kept whether or not the
sweep's obs log is on.  Each is tiny — pid, the spec's correlation key
and label, the attempt number, start/update wall-times — and written
via atomic replace, so the driver can read the set at any moment
without locks.

They are the driver's one account of what each worker holds:

* **crash attribution**: after a ``BrokenProcessPool``, once the
  teardown settles, the records still naming a spec belong to workers
  that died without cleanup, and exactly those specs are charged;
* **hang attribution**: when the driver-side backstop abandons a
  worker that stopped responding, the heartbeat names which spec (and
  attempt) that worker was holding — a crashed or wedged worker cannot
  report its own demise, but its last heartbeat can;
* the live progress line (which specs are *actually* executing, not
  just submitted).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Heartbeat:
    """One worker's most recent self-report."""

    pid: int
    key: str          # spec correlation key ("" when idle)
    label: str
    attempt: int
    started: float    # wall-time the current attempt began
    updated: float    # wall-time of the last touch

    @property
    def busy(self) -> bool:
        return bool(self.key)

    def age(self, now: float | None = None) -> float:
        """Seconds since the worker last touched its record."""
        return (now if now is not None else time.time()) - self.updated

    def to_json_dict(self) -> dict:
        return {
            "pid": self.pid, "key": self.key, "label": self.label,
            "attempt": self.attempt, "started": self.started,
            "updated": self.updated,
        }


def record_path(heartbeat_dir: str | Path) -> Path:
    """The calling process's record in *heartbeat_dir*."""
    return Path(heartbeat_dir) / f"{os.getpid()}.json"


def beat(heartbeat_dir: str | Path, *, key: str, label: str = "",
         attempt: int = 0, started: float | None = None) -> None:
    """Touch the calling process's heartbeat record (atomic replace)."""
    now = time.time()
    record = Heartbeat(
        pid=os.getpid(), key=key, label=label, attempt=attempt,
        started=started if started is not None else now, updated=now,
    )
    path = record_path(heartbeat_dir)
    tmp = path.with_name(f"{path.name}.tmp")
    try:
        tmp.write_text(json.dumps(record.to_json_dict(),
                                  separators=(",", ":")))
        tmp.replace(path)
    except OSError:
        pass  # heartbeats are best-effort by design


def clear(heartbeat_dir: str | Path) -> None:
    """Mark the calling process idle (attempt finished cleanly)."""
    beat(heartbeat_dir, key="", label="", attempt=0)


def read_heartbeats(heartbeat_dir: str | Path) -> dict[int, Heartbeat]:
    """The current heartbeat set, keyed by worker pid."""
    records: dict[int, Heartbeat] = {}
    try:
        paths = list(Path(heartbeat_dir).glob("*.json"))
    except OSError:
        return records
    for path in paths:
        try:
            data = json.loads(path.read_text())
            record = Heartbeat(
                pid=int(data["pid"]), key=str(data.get("key", "")),
                label=str(data.get("label", "")),
                attempt=int(data.get("attempt", 0)),
                started=float(data.get("started", 0.0)),
                updated=float(data.get("updated", 0.0)),
            )
        except (OSError, KeyError, TypeError, ValueError):
            continue  # torn write: the next beat overwrites it
        records[record.pid] = record
    return records


def attribute(heartbeats: dict[int, Heartbeat], key: str
              ) -> Heartbeat | None:
    """The heartbeat (if any) naming *key* as its in-flight spec.

    When several records name the same key (a retry relaunched on a new
    worker while a stale file lingers), the freshest wins.
    """
    matches = [hb for hb in heartbeats.values() if hb.key == key]
    if not matches:
        return None
    return max(matches, key=lambda hb: hb.updated)
