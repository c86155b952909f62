"""Host-time ledger: spans recorded from outside, around public calls.

:func:`tracing` swaps each public entry point listed by :func:`_targets`
for a wrapper that appends one span (layer, call name, start, end,
parent span, spec) to a :class:`Ledger`, and restores the originals on
exit.  Nothing inside the program is instrumented, so simulation time
(``Soc.run``) is one bucket; splitting it needs spans inside the program.

A span's *self time* is its duration minus its children's.  Calls nest
strictly, so the self times of all spans sum exactly (in integer
nanoseconds) to the duration of the root spans, the ``run_specs``
batches: every nanosecond of traced wall lands in exactly one layer.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

#: Layers that partition the traced wall, in reporting order.  Each is
#: reported as ``<layer>_s``: self seconds per seed block.
LAYERS = (
    "exec.self", "exec.cache", "exec.summarise", "workloads.gen",
    "system.build", "system.load", "kernels.text", "isa.assemble",
    "analysis.verify", "system.run",
)

# Span record fields.
LAYER, NAME, START, END, PARENT, SPEC = range(6)


class Ledger:
    """Spans of one traced pass, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, name: str, fn, spec_arg: int | None = None):
        """*fn* recording a span; ``args[spec_arg]`` is the spec it serves."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [layer, name, perf_counter_ns(), 0,
                      stack[-1] if stack else -1,
                      None if spec_arg is None else args[spec_arg]]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[END] = perf_counter_ns()
                stack.pop()

        return traced

    def self_ns(self) -> list[int]:
        """Self time of every span, in span order."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_ns(self) -> dict[str, int]:
        """Self time summed per layer (every layer of :data:`LAYERS`)."""
        totals = dict.fromkeys(LAYERS, 0)
        for span, own in zip(self.spans, self.self_ns()):
            totals[span[LAYER]] += own
        return totals

    def wall_ns(self) -> int:
        """Summed duration of the root spans."""
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def durations_ns(self, name: str) -> list[int]:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def chrome_trace(self) -> dict:
        """The spans as a Chrome trace-event document (loads in Perfetto)."""
        from repro.exec import payload_key

        origin = min((s[START] for s in self.spans), default=0)
        keys: dict[int, str] = {}
        events = [{"name": "process_name", "ph": "M", "pid": 1,
                   "args": {"name": "bench ledger"}}]
        for i, s in enumerate(self.spans):
            if s[SPEC] is not None:
                keys[i] = payload_key(s[SPEC])
            elif s[PARENT] in keys:
                keys[i] = keys[s[PARENT]]
            event = {"name": s[NAME], "cat": s[LAYER], "ph": "X",
                     "ts": (s[START] - origin) / 1e3,
                     "dur": (s[END] - s[START]) / 1e3,
                     "pid": 1, "tid": 1}
            if i in keys:
                event["args"] = {"payload_key": keys[i]}
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str | Path) -> None:
        from repro.telemetry.chrome_trace import write_chrome_trace

        write_chrome_trace(self.chrome_trace(), path)


def _targets():
    """(owner, attribute, layer, spec argument index) per traced call.

    Module attributes are patched where the caller looks them up:
    ``engine.execute`` for the serial engine path, ``spec.thaw_config``
    and the ``repro.workloads``/``analysis.runners`` attributes that
    ``execute`` imports at call time, and the kernel generators as
    ``analysis.runners`` holds them.
    """
    from repro.analysis import runners
    from repro.exec import cache, engine, spec
    from repro.system.soc import Soc
    from repro.workloads import dnn, mtx_corpus, synthetic

    return [
        (engine, "execute", "exec.summarise", 0),
        (cache.ResultCache, "get", "exec.cache", 1),
        (cache.ResultCache, "put", "exec.cache", 1),
        (synthetic, "random_csr", "workloads.gen", None),
        (synthetic, "random_dense_vector", "workloads.gen", None),
        (synthetic, "random_sparse_vector", "workloads.gen", None),
        (dnn.FCLayer, "weights", "workloads.gen", None),
        (mtx_corpus, "load_corpus_matrix", "workloads.gen", None),
        (runners, "convert", "workloads.gen", None),
        (spec, "thaw_config", "system.build", None),
        (Soc, "__init__", "system.build", None),
        *((Soc, name, "system.load", None) for name in (
            "load_csr", "load_dense_vector", "load_sparse_vector",
            "load_coo_image", "load_bitvector_image", "load_smash_image",
            "allocate_output")),
        *((runners, name, "kernels.text", None) for name in (
            "spmv_kernel", "spmspv_kernel", "spmv_multicore_kernel",
            "spmspv_multicore_kernel", "programmable_consumer")),
        (Soc, "assemble", "isa.assemble", None),
        (Soc, "run", "system.run", None),
        *((runners, name, "analysis.verify", None) for name in (
            "run_spmv", "run_spmspv", "run_spmv_programmable")),
    ]


@contextmanager
def tracing(ledger: Ledger):
    """Record spans into *ledger* for the duration of the block."""
    from repro.analysis import runners

    saved = []
    for owner, attr, layer, spec_arg in _targets():
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, ledger.wrap(layer, attr, original, spec_arg))
    firmwares = runners.FIRMWARES
    runners.FIRMWARES = {
        name: ledger.wrap("kernels.text", f"firmware.{name}", make)
        for name, make in firmwares.items()
    }
    try:
        yield ledger
    finally:
        runners.FIRMWARES = firmwares
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def run_specs_traced(ledger: Ledger):
    """``run_specs`` recording the root span of each batch."""
    from repro.exec import run_specs

    return ledger.wrap("exec.self", "run_specs", run_specs)


def percentile(values: list[int], pct: float) -> float:
    """Nearest-rank percentile of *values* (which need not be sorted)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(0, min(99, int(100 * (1 - 10 / n)))) if n > 10 else 0
