"""I1 — interpreter dispatch-loop throughput (simulated instructions/s).

Not a paper figure: this guards the simulator's own speed, which bounds
every sweep in the suite.  The benchmark executes a fixed baseline SpMV
program repeatedly through :meth:`Soc.run` on the per-instruction path
(one-instruction translations, :mod:`repro.instrument.session`) and
reports host-side instructions per second, archiving the number so
regressions in the dispatch loop are visible across runs.  I2 does the
same for the HHT FIFO pop, and I3 gates the probe hooks' overhead.

I1 and I2 time each round back to back with a fixed host-reference
workload (``benchmarks/conftest.py``), alternating which goes first, and
archive the median per-round ratio of the two next to the raw times: the
raw times follow the shared host, the paired ratio much less.
"""

import time

import numpy as np

from repro.analysis.tables import Table
from repro.core import HHT, HHT_BASE, MMR, HHTConfig, HHTMode
from repro.kernels import spmv_kernel
from repro.memory import Bus, MemoryPort, Ram
from repro.system.soc import Soc
from repro.workloads.synthetic import random_csr, random_dense_vector


def _spmv_setup(size: int = 64, sparsity: float = 0.5):
    matrix = random_csr((size, size), sparsity, seed=11)
    v = random_dense_vector(size, seed=12)
    soc = Soc()
    soc.load_csr(matrix)
    soc.load_dense_vector(v)
    soc.allocate_output(matrix.nrows)
    program = soc.assemble(spmv_kernel(accel=None, vector=True))
    return soc, program


def _fifo_pops(size: int = 256, sparsity: float = 0.5):
    """A bus with one HHT programmed for SpMV, as the device tests
    program it; returns ``(load, address, fill sizes)``: popping every
    fill through ``load(address, count, cycle)`` drains the run."""
    matrix = random_csr((size, size), sparsity, seed=11)
    v = random_dense_vector(size, seed=12)
    ram = Ram(1 << 20)
    bus = Bus(ram, MemoryPort(latency=2))
    hht = HHT(HHTConfig(), ram, bus.mem)
    bus.attach_device(HHT_BASE, MMR.REGION_SIZE, hht)
    addr = 0x100

    def place(arr):
        nonlocal addr
        base = addr
        arr = np.ascontiguousarray(arr)
        ram.write_array(base, arr)
        addr += max(arr.size * 4, 4)
        return base

    for reg, value in (
        (MMR.M_NUM_ROWS, matrix.nrows),
        (MMR.M_NUM_COLS, matrix.ncols),
        (MMR.M_ROWS_BASE, place(matrix.rows)),
        (MMR.M_COLS_BASE, place(matrix.cols)),
        (MMR.M_VALS_BASE, place(matrix.vals)),
        (MMR.V_BASE, place(np.asarray(v, np.float32))),
        (MMR.MODE, int(HHTMode.SPMV)),
        (MMR.START, 1),
    ):
        hht.write_word(reg, value, 0)
    blen = hht.config.buffer_elems
    fills = [min(blen, n - k)
             for n in np.diff(matrix.rows).tolist() for k in range(0, n, blen)]
    return bus.load_burst, HHT_BASE + MMR.VVAL_FIFO, fills


def test_interpreter_dispatch_speed(record_table, paired_rounds):
    soc, program = _spmv_setup()
    instructions = soc.run(program).instructions     # translations made

    def run() -> float:
        start = time.perf_counter()
        soc.run(program)
        return time.perf_counter() - start

    rounds = 15
    seconds, paired = paired_rounds(run, rounds)
    mean_seconds = sum(seconds) / rounds
    ips = instructions / mean_seconds
    table = Table(
        "interpreter dispatch throughput (64x64 SpMV baseline, VL=8, mean "
        f"of {rounds}; paired: median of {rounds} per-round ratios to the "
        "host reference)",
        ["instructions", "mean_seconds", "instructions_per_second",
         "paired_ratio"],
    )
    table.add_row(instructions, mean_seconds, ips, paired)
    record_table(table, "interpreter_speed")

    # Loose floor: even a slow CI box manages two orders of magnitude
    # more; this only catches catastrophic dispatch-loop regressions.
    assert ips > 20_000


def test_mmio_fifo_pop_speed(record_table, paired_rounds):
    """I2 — host cost of one HHT FIFO pop, refill included.

    A vector load from an HHT FIFO walks ``Bus.load_burst``, which finds
    the address in its FIFO map, and ``HHT._fifo_read``, whose pop
    reopens the buffer gate and so runs the back-end's next fill.  This times
    that layer alone: no CPU runs, so instruction dispatch, RAM bursts
    and the multiply-accumulates of a whole kernel do not dilute it.
    Each round programs a fresh HHT for a 256x256 SpMV and pops every
    fill through ``Bus.load_burst`` on the VVAL address; the best round
    is reported.
    """
    drained = []

    def pop_all() -> float:
        load, fifo, fills = _fifo_pops()
        cycle = 0
        start = time.perf_counter()
        for count in fills:
            _, cycle = load(fifo, count, cycle)
        elapsed = time.perf_counter() - start
        drained.append((len(fills), cycle))
        return elapsed

    rounds = 7
    seconds, paired = paired_rounds(pop_all, rounds)
    best = min(seconds)
    n_fills, cycle = drained[-1]
    assert cycle > n_fills

    pops_per_second = n_fills / best
    table = Table(
        "MMIO FIFO pop cost, refill included (256x256 SpMV on the ASIC "
        f"HHT, BLEN 8, best of {rounds}; paired: median of {rounds} "
        "per-round ratios to the host reference)",
        ["fifo_reads", "best_seconds", "us_per_pop", "pops_per_second",
         "paired_ratio"],
    )
    table.add_row(n_fills, best, best / n_fills * 1e6, pops_per_second,
                  paired)
    record_table(table, "mmio_fifo_pop_speed")

    # Same spirit as I1: only a catastrophic regression in the bus
    # routing / FIFO pop / refill path should trip this.
    assert pops_per_second > 20_000


def test_probe_hook_overhead(record_table):
    """I3 — the probe hook chain must be free when nobody subscribes.

    The unified SimSession loop replaced the old dedicated profile /
    non-profile loops with one body that tests a hook tuple per
    instruction.  This gate holds that design to its promise: running
    with a probe that overrides *nothing* (empty hook chains, same
    fast path) may cost at most 5% over a bare run.  A probe that does
    subscribe to on_instruction is timed too, informationally — that
    cost is expected and not gated.

    Methodology: each round times a bare run and a probed run
    back-to-back (alternating which goes first) and keeps their ratio,
    and the gate checks the median ratio across rounds.  Adjacent-pair
    ratios cancel the slow drift (frequency scaling, noisy CI
    neighbours) that made best-of-N absolute times unstable on shared
    boxes, and alternating the order cancels any within-pair drift
    bias.
    """
    import statistics

    from repro.instrument import Probe
    from repro.telemetry import SamplerProbe

    class NoOpProbe(Probe):
        """Overrides no hook: the loop must take the no-hooks branch."""

    class CountingProbe(Probe):
        def __init__(self):
            self.n = 0

        def on_instruction(self, pc, ins, cycle_start, cycle_end):
            self.n += 1

    variants = {
        "bare": lambda: (),
        "noop_probe": lambda: (NoOpProbe(),),
        "counting_probe": lambda: (CountingProbe(),),
        # The cyclic-sampling path must stay an inline integer compare;
        # gated below alongside the no-op chain.
        "sampler_probe": lambda: (SamplerProbe(every=4096),),
    }

    def timed(probes):
        soc, program = _spmv_setup(size=48)
        start = time.perf_counter()
        result = soc.run(program, probes=probes)
        return time.perf_counter() - start, result.instructions

    rounds = 13
    ratios = {name: [] for name in variants}
    seconds = {name: 0.0 for name in variants}
    for r in range(rounds):
        for name, make_probes in variants.items():
            if name == "bare":
                continue
            if r % 2:
                elapsed, n = timed(make_probes())
                bare_elapsed, bare_n = timed(())
            else:
                bare_elapsed, bare_n = timed(())
                elapsed, n = timed(make_probes())
            # Identical work per variant, or the ratio is meaningless.
            assert n == bare_n
            ratios[name].append(elapsed / bare_elapsed)
            seconds[name] += elapsed
            seconds["bare"] += bare_elapsed

    overhead = {"bare": 0.0}
    for name in ratios:
        if ratios[name]:
            overhead[name] = statistics.median(ratios[name]) - 1.0
    table = Table(
        "probe hook overhead (48x48 SpMV baseline, median of "
        f"{rounds} adjacent-pair ratios)",
        ["variant", "total_seconds", "overhead_vs_bare"],
    )
    for name in variants:
        table.add_row(name, seconds[name], f"{overhead[name]:+.1%}")
    record_table(table, "probe_hook_overhead")

    assert overhead["noop_probe"] <= 0.05, (
        f"empty hook chain costs {overhead['noop_probe']:+.1%} "
        "(gate: +5.0%) — the no-probe fast path has regressed"
    )
    assert overhead["sampler_probe"] <= 0.05, (
        f"cyclic sampling costs {overhead['sampler_probe']:+.1%} "
        "(gate: +5.0%) — the inline sample_due compare has regressed"
    )
