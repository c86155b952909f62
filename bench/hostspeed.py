"""Host-speed normalisation of the benchmark's times.

The benchmark's reference host is a 2-vCPU virtual machine on a shared
machine, and its speed drifts in two ways:

* Contention: the speed of interpreted Python changes by up to 2.3x
  within a second and can stay low for minutes.  CPU time slows with
  wall time.
* Steal: in some phases the hypervisor takes the vCPU away for tens of
  milliseconds at a time, so wall time runs ahead of the process's CPU
  time, by up to 20% over a 3 s block.

Medians inside a 15 s run cannot remove a slow phase that covers the
whole run: ten runs of the same code spread by 6-44% (quartile distance
over median).

:meth:`HostSpeed.sampling` times a block of work in process CPU time,
which leaves out steal; the benchmark's measured work is one
single-threaded, CPU-bound process, so on an idle machine its CPU time
equals its wall time.  Meanwhile a ``SIGPROF`` handler runs a fixed
:func:`probe` every :data:`INTERVAL` seconds of CPU time, so the probe
samples the contention uniformly over the work.  :meth:`HostSpeed.ratio`
is the mean probe rate over :data:`REFERENCE_HZ`: 1 on the reference host
at its fast state, 0.5 at half speed.  :meth:`HostSpeed.reference_s` is
the block's CPU time, without the probes' own time (about 3%), times
that ratio: its duration at reference speed.

The probe is code of the benchmark only, so a change to the program
moves the normalised numbers exactly as it moves the raw ones.  It
interprets a fixed register program (like the simulator's dispatch
loop), round-trips a small document through ``json`` and
``hashlib.sha256`` (like a cache hit) and applies small numpy operations
(like the vector bursts).  Contention slows these three by different
factors, and the workloads mix them differently.  The garbage collector
is off while it runs, so a collection of the program's heap never lands
in a probe and the program's heap size does not change the probe's
speed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter_ns, process_time_ns, thread_time_ns

import numpy as np

#: Seconds of process CPU time between probes.
INTERVAL = 0.02

#: Probe rate (timed probe runs per CPU second) of the reference host at
#: its fast state, the 2-vCPU Xeon virtual machine that the baseline in
#: ``README.md`` was measured on; there the rate of back-to-back probes
#: ranged from about 4,000/s to 8,800/s.
REFERENCE_HZ = 8000.0

_PROGRAM = ((0, 1), (1, 2), (2, 3), (0, 5), (3, 0), (1, 4), (2, 6), (3, 7))
_DOC = json.dumps({"stats": {f"soc.counter{i}": i * 7919 for i in range(40)},
                   "cycles": 123456789, "label": "probe"})
_VECTOR = np.arange(64, dtype=np.float64)


def probe() -> int:
    """Run the fixed probe twice; the second run's thread CPU time in ns.

    The first run brings the probe's code and data back into the CPU
    caches, so the timed run does not depend on how much of the cache
    the measured program had used.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _probe()
        return _probe()
    finally:
        if enabled:
            gc.enable()


def _probe() -> int:
    start = thread_time_ns()
    regs = [0] * 8
    program, n = _PROGRAM, len(_PROGRAM)
    pc = 0
    for i in range(400):
        op, r = program[pc]
        if op == 0:
            value = regs[r] + i
        elif op == 1:
            value = regs[r] ^ (i << 3)
        elif op == 2:
            value = (regs[r] * 3 + i) & 0xFFFF
        else:
            value = regs[r] - i
        regs[r] = value & 0x3FFFFFFF
        pc = (pc + 1) % n
    hashlib.sha256(json.dumps(json.loads(_DOC), sort_keys=True)
                   .encode()).digest()
    vector = _VECTOR
    for _ in range(16):
        vector = np.add(vector, 1.0) * 0.5
    float(vector[3:40].sum())
    return thread_time_ns() - start


class HostSpeed:
    """Wall time, CPU time and probe samples of one ``sampling()`` block."""

    def __init__(self) -> None:
        self.samples_ns: list[int] = []
        #: CPU nanoseconds the probes took inside the block.
        self.spent_ns = 0
        self.wall_ns = 0
        self.cpu_ns = 0

    def _tick(self, signum, frame) -> None:
        start = thread_time_ns()
        self.samples_ns.append(probe())
        self.spent_ns += thread_time_ns() - start

    @contextmanager
    def sampling(self):
        """Time the block and probe every :data:`INTERVAL` of CPU time."""
        self.samples_ns, self.spent_ns = [], 0
        # Read the process clock only while no CPU timer is armed: an armed
        # one makes Linux return it at scheduler-tick granularity.
        wall, cpu = perf_counter_ns(), process_time_ns()
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0)
            signal.signal(signal.SIGPROF, previous)
            self.cpu_ns = process_time_ns() - cpu
            self.wall_ns = perf_counter_ns() - wall

    def ratio(self) -> float:
        """Mean sampled probe rate over :data:`REFERENCE_HZ`.

        A block too short for the timer to fire is probed once here.
        """
        samples = self.samples_ns or [probe()]
        return statistics.fmean(1e9 / ns for ns in samples) / REFERENCE_HZ

    def wall_s(self) -> float:
        """The block's wall time without the probes: the raw duration."""
        return (self.wall_ns - self.spent_ns) / 1e9

    def reference_s(self) -> float:
        """The block's CPU time without the probes, at reference speed."""
        return (self.cpu_ns - self.spent_ns) / 1e9 * self.ratio()
