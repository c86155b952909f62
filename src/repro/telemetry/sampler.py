"""Cyclic time-series sampling of the flat stats registry.

:class:`SamplerProbe` snapshots the :class:`~repro.component.SimComponent`
stats registry every ``every`` simulated cycles through the session's
cyclic-sampling path (folded into the run loop's existing budget
compare — no per-instruction Python call or attribute load, which
keeps the probe inside the 5% probe-hook CI gate).  The payload is
*columnar*: one ``cycle`` axis plus
one value list per registry key, ready for dataframe/plot ingestion, and
two derived series for the paper's temporal story:

* ``cpu_wait_fraction`` — cumulative HHT-induced CPU wait over the total
  cycle count at each sample (Figs. 6-7 as a trajectory, not an endpoint);
* ``buffered_elements`` — elements the back-end has staged but the CPU
  has not yet consumed (buffer occupancy: fills times the buffer element
  count, minus elements supplied).

A sample is always taken at session start and at session end, so the
series brackets the run even when it is shorter than one stride.
"""

from __future__ import annotations

import io
from itertools import chain
from pathlib import Path

from ..component import hht_counter_keys, registry
from ..instrument.probes import Probe

#: Schema tag carried in the payload (bump on incompatible changes).
SAMPLER_SCHEMA = "repro-sampler/1"


class SamplerProbe(Probe):
    """Snapshot the component-tree stats registry every N cycles.

    ``prefixes`` optionally restricts the recorded keys (e.g.
    ``("soc.hht", "soc.ram")``); the derived series always use the full
    registry, so filtering only trims the exported columns.
    """

    name = "sampler"

    def __init__(self, every: int = 1024,
                 prefixes: tuple[str, ...] | None = None):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.sample_every = int(every)
        self.prefixes = tuple(prefixes) if prefixes else None
        self._rows: list[tuple[int, dict]] = []
        self._root = None
        self._layout: list = []
        self._buffer_elems = 0

    # -- events --------------------------------------------------------
    def on_session_start(self, session) -> None:
        self._root = (
            session.system if session.system is not None else session.cpu
        )
        config = getattr(self._root, "config", None)
        hht_config = getattr(config, "hht", None)
        self._buffer_elems = getattr(hht_config, "buffer_elems", 0)
        # The tree is fixed once built: find its counters once.
        self._layout = self._root.stats_layout()
        self._snap(session.cpu.cycle)

    def on_sample(self, session, cycle: int) -> None:
        self._snap(cycle)

    def on_session_end(self, session) -> None:
        cycle = session.cpu.cycle
        if not self._rows or self._rows[-1][0] != cycle:
            self._snap(cycle)

    def _snap(self, cycle: int) -> None:
        self._rows.append((cycle, registry(self._layout)))

    # -- result --------------------------------------------------------
    def payload(self) -> dict:
        cycles = [c for c, _ in self._rows]
        rows = [row for _, row in self._rows]
        # One column per registry key (the ordered union across samples,
        # 0 where a sample lacks the key), transposed from one row of
        # values per sample.
        keys = list(dict.fromkeys(chain.from_iterable(rows)))
        zeros = [0] * len(keys)
        columns = dict(zip(keys, map(list, zip(
            *[list(map(row.get, keys, zeros)) for row in rows]))))
        series = columns if self.prefixes is None else {
            key: column for key, column in columns.items()
            if key.startswith(self.prefixes)
        }
        # The derived series read the whole registry: the HHT counters'
        # columns, summed over every instance.
        hht = hht_counter_keys(keys)

        def total(counter: str) -> list[int]:
            return ([sum(values) for values
                     in zip(*[columns[key] for key in hht[counter]])]
                    or [0] * len(rows))

        wait_fraction = [wait / cycle if cycle else 0.0
                         for wait, cycle in zip(total("cpu_wait_cycles"),
                                                cycles)]
        buffered = [max(0, filled * self._buffer_elems - supplied)
                    for filled, supplied in zip(total("buffers_filled"),
                                                total("elements_supplied"))]
        return {
            "schema": SAMPLER_SCHEMA,
            "every": self.sample_every,
            "cycle": cycles,
            "series": series,
            "derived": {
                "cpu_wait_fraction": wait_fraction,
                "buffered_elements": buffered,
            },
        }


def sampler_to_csv(payload: dict) -> str:
    """Render a :meth:`SamplerProbe.payload` as CSV text.

    Columns: ``cycle``, the derived series (``derived.<name>``), then
    every registry key in sorted order.
    """
    derived = payload["derived"]
    series = payload["series"]
    columns = (
        [f"derived.{name}" for name in sorted(derived)] + sorted(series)
    )
    out = io.StringIO()
    out.write(",".join(["cycle"] + columns) + "\n")
    for i, cycle in enumerate(payload["cycle"]):
        values = [str(cycle)]
        for name in sorted(derived):
            values.append(repr(derived[name][i]))
        for key in sorted(series):
            values.append(repr(series[key][i]))
        out.write(",".join(values) + "\n")
    return out.getvalue()


def write_sampler_csv(payload: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(sampler_to_csv(payload))
    return path
