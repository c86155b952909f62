"""Telemetry layer: trace export, time-series sampling, bench harness.

Built on the :mod:`repro.instrument` probe/session layer — everything
here is a probe or a consumer of probe payloads, so runs without
telemetry attached stay bit-identical and pay nothing.
"""

from .bench import (
    BENCH_SCHEMA,
    DEFAULT_BENCH_SIZE,
    GATE_RTOL,
    collect_bench,
    compare_bench,
    load_bench,
    write_bench,
)
from .chrome_trace import (
    CHROME_TRACE_SCHEMA,
    ChromeTraceProbe,
    TrackTable,
    write_chrome_trace,
)
from .sampler import (
    SAMPLER_SCHEMA,
    SamplerProbe,
    sampler_to_csv,
    write_sampler_csv,
)

__all__ = [
    "BENCH_SCHEMA",
    "CHROME_TRACE_SCHEMA",
    "SAMPLER_SCHEMA",
    "DEFAULT_BENCH_SIZE",
    "GATE_RTOL",
    "ChromeTraceProbe",
    "SamplerProbe",
    "TrackTable",
    "collect_bench",
    "compare_bench",
    "load_bench",
    "sampler_to_csv",
    "write_bench",
    "write_chrome_trace",
    "write_sampler_csv",
]
