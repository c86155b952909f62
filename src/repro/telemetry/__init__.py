"""Telemetry layer: trace export and time-series sampling.

Built on the :mod:`repro.instrument` probe/session layer — everything
here is a probe or a consumer of probe payloads, so runs without
telemetry attached stay bit-identical and pay nothing.
"""

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
    "CHROME_TRACE_SCHEMA",
    "SAMPLER_SCHEMA",
    "ChromeTraceProbe",
    "SamplerProbe",
    "TrackTable",
    "sampler_to_csv",
    "write_chrome_trace",
    "write_sampler_csv",
]
